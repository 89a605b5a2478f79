#!/usr/bin/env python3
"""The repository benchmark: figure cells and large worlds, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload paper-bus --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

``paper-bus``
    Figure-2 cells on ``bench`` bus maps (80 buses, lambda = 10, the
    figure's 3000 s horizon): EER, CR and spray-and-wait on each of
    ``BUS_MAPS`` maps.  Each cell is simulated and written to a fresh results
    store; the grid is then served a second time from it.
``traffic-10k``
    The catalog ``rwp-10k-traffic`` world (epidemic, 1 MiB messages) with
    Poisson arrivals at 50 msg/s.
``rwp-100k``
    The catalog ``rwp-100k`` world (direct delivery, ~60k live links); not
    in ``BENCHMARK.json``, whose bounds its ``ticks_per_s`` cannot hold.

A run repeats whole rounds of its workload (a round is every cell once)
while another round still fits in ``--seconds``; there is always at least
one.  Every cell is built with ``build_scenario`` and driven one tick at a
time through ``simulator.run(until=...)``.  Correctness checks run between
ticks and after each cell, outside every timed region.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run,
whose spans are also written to ``.bench_build/perfbench-traces/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_build"

#: sharded-detector worker threads: one, so the load does not follow the
#: host's core count and the run never competes with itself for a core
WORLD_WORKERS = 1

#: bus maps (scenario seeds) in one paper-bus round
BUS_MAPS = 2

#: A fixed figure cell on which the program delivers a replica after its
#: TTL ran out (spray-and-wait on map seed 5: one latency of 1200.31 s
#: against the 1200 s TTL).  Every paper-bus round runs it untimed and holds
#: it to the exact TTL: while the fault stands, that operation fails in
#: every round, the same share of every run, and leaves ``correct`` true.
#: Seeded cells are held to the TTL plus one tick, the most the fault adds,
#: because whether it shows on them depends on the seed.
LATE_DELIVERY_CELL = {"protocol": "spray-and-wait", "seed": 5}

#: setup_s is the median of at least this many set-ups of every cell
SETUP_SAMPLES = 3

#: percentiles tried for the tick tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def _load_program():
    """Put ``src`` on the import path; refuse to run without the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its cells and which checks apply."""

    name: str
    #: seed -> the scenario configs of one round, in run order
    cells: Callable[[int], list]
    #: cold-start ticks per cell, timed as warm-up
    warmup_ticks: int
    #: link (and movement) checks run every this many ticks and on the last
    check_every: int
    #: random-waypoint movement is checked against speed and map bounds
    movement: bool
    #: the report check requires at least one delivery
    require_delivery: bool
    #: the grid is served a second time from the results store, and the
    #: fixed late-delivery cell is checked, in every round
    serve: bool
    #: traced runs alternate traced and untraced blocks of this many ticks
    trace_block: int
    #: rounds every run makes at least
    rounds: int


def _bus_cell(protocol: str, seed: int):
    """One Figure-2 cell: the ``bench`` map and horizon, 80 buses, lambda 10."""
    from repro import api

    return api.make_scenario("bench", {"name": f"paper-bus-{protocol}-80",
                                       "protocol": protocol, "num_nodes": 80,
                                       "message_copies": 10, "seed": seed})


def _paper_bus(seed: int) -> list:
    # several map seeds per run: the bus map and routes follow the scenario
    # seed, and one map alone moves the grid's cost by ~9% from seed to seed
    return [_bus_cell(protocol, BUS_MAPS * seed + offset)
            for offset in range(BUS_MAPS)
            for protocol in ("eer", "cr", "spray-and-wait")]


def _traffic_10k(seed: int) -> list:
    from repro import api

    return [api.make_scenario("rwp-10k-traffic", seed=seed,
                              traffic_rate=50.0, sim_time=100.0,
                              world_workers=WORLD_WORKERS)]


def _rwp_100k(seed: int) -> list:
    from repro import api

    return [api.make_scenario("rwp-100k", seed=seed, sim_time=30.0,
                              world_workers=WORLD_WORKERS)]


WORKLOADS: Dict[str, Workload] = {
    "paper-bus": Workload("paper-bus", _paper_bus, warmup_ticks=100,
                          check_every=500, movement=False,
                          require_delivery=True, serve=True, trace_block=100,
                          rounds=1),
    "traffic-10k": Workload("traffic-10k", _traffic_10k, warmup_ticks=5,
                            check_every=20, movement=True,
                            require_delivery=False, serve=False, trace_block=5,
                            rounds=3),
    "rwp-100k": Workload("rwp-100k", _rwp_100k, warmup_ticks=5,
                         check_every=25, movement=True,
                         require_delivery=False, serve=False, trace_block=5,
                         rounds=3),
}


# ------------------------------------------------------------------ results
@dataclass
class Ops:
    """Operations attempted and failed, with the failure messages."""

    attempted: int = 0
    failed: int = 0
    #: failures of the known fault that LATE_DELIVERY_CELL shows
    known: int = 0
    errors: List[str] = field(default_factory=list)

    def check(self, errors: List[str], known: bool = False) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.known += known
            prefix = "known fault: " if known else ""
            self.errors.extend(prefix + error for error in errors)

    def raised(self, what: str, error: Exception) -> None:
        self.check([f"{what} raised {error!r}"])

    @property
    def correct(self) -> bool:
        """No operation failed apart from the known fault."""
        return self.failed == self.known


@dataclass
class Cell:
    """Wall times, host slowdowns and program counters of one simulated cell."""

    setup_s: float
    write_s: float
    #: every tick, tick 1 first
    ticks: List[float]
    #: whether each tick ran traced
    traced: List[bool]
    counters: Dict[str, float]
    warmup: int
    #: host slowdown probed over the build, over the warm-up ticks and over
    #: the steady ticks with the store write (see hostspeed.py)
    slowdowns: Tuple[float, float, float]

    @property
    def slowdown(self) -> float:
        """Host slowdown over the steady ticks."""
        return self.slowdowns[2]

    def seconds(self, normalised: bool) -> Tuple[float, float, float, float]:
        """Set-up, warm-up, steady and write seconds, wall or host-normalised.

        Normalised seconds are wall seconds divided by the slowdown probed
        over that part of the cell: seconds at the host's unloaded speed.
        """
        build, warm, steady = self.slowdowns if normalised else (1.0, 1.0, 1.0)
        return (self.setup_s / build, sum(self.ticks[:self.warmup]) / warm,
                sum(self.ticks[self.warmup:]) / steady, self.write_s / steady)

    def normalised_ticks(self) -> List[float]:
        _, warm, steady = self.slowdowns
        return [t / (warm if k < self.warmup else steady)
                for k, t in enumerate(self.ticks)]


# ------------------------------------------------------------------ checks
def _check_ticks(world, config, workload: Workload, before, ops: Ops) -> None:
    import checks

    positions = world.positions().copy()
    links = [(c.node_a.node_id, c.node_b.node_id) for c in world.connections]
    ops.check(checks.check_links(positions, world.node_ids(),
                                 config.transmit_range, links))
    if workload.movement:
        ops.check(checks.check_movement(
            before, positions, config.map_width, config.map_height,
            config.max_speed * config.update_interval))


def _sample_routers(world, count: int = 8):
    ids = world.node_ids()
    step = max(1, len(ids) // count)
    return [world.get_node(node_id).router for node_id in ids[::step][:count]]


def _check_knowledge(world, config, now: float, ops: Ops) -> None:
    """MEMD and EEV of sampled EER/CR routers against independent solves."""
    import numpy as np

    import checks
    from repro.contacts.md_matrix import build_delay_matrix
    from repro.contacts.memd import MemdCache
    from repro.core.cr import CommunityRouter
    from repro.core.eer import EERRouter
    from repro.core.expectation import expected_encounter_value

    routers = [router for router in _sample_routers(world)
               if isinstance(router, (EERRouter, CommunityRouter))]
    if not routers:
        return
    memd_errors: List[str] = []
    eev_errors: List[str] = []
    for router in routers:
        history = router.history
        if isinstance(router, EERRouter):
            mi, mask = router.mi, None
        else:
            mi = router.intra_mi
            mask = np.zeros(mi.num_nodes, dtype=bool)
            mask[router.community_members(router.community)] = True
        policy = router.overdue_policy
        program = MemdCache(refresh=0.0).delays(history, mi, now, policy,
                                                node_filter=mask)
        md = build_delay_matrix(history, mi, now, policy, node_filter=mask)
        memd_errors += checks.check_memd(program, md, router.node_id)
        peers = history.peers()
        intervals = [history.intervals(peer) for peer in peers]
        elapsed = [history.elapsed_since(peer, now) for peer in peers]
        for share in (1.0, 0.5, 0.1):
            horizon = router.alpha * config.message_ttl * share
            value = expected_encounter_value(history, now, horizon, policy)
            eev_errors += checks.check_eev(value, intervals, elapsed, horizon)
    ops.check(memd_errors)
    ops.check(eev_errors)


def _check_cell(built, workload: Workload, ticks: int, ops: Ops) -> None:
    import checks

    world, stats, config = built.world, built.stats, built.config
    if stats.record_mode.value == "columnar":
        left = stats.record_columns("aborted")["bytes_left"]
    else:
        left = [record.bytes_left for record in stats.aborted_records]
    ops.check(checks.check_transfers(
        stats.bytes_delivered, stats.transfers_completed, stats.relayed,
        config.message_size, left))
    ops.check(checks.check_router_accounting(
        world.routers_ticked, world.routers_skipped, world.routers_batched,
        world.num_nodes, ticks))
    # the TTL plus one tick: see LATE_DELIVERY_CELL
    ops.check(checks.check_reports(
        stats.created, stats.delivered, stats.delivered_latencies(),
        config.message_ttl + config.update_interval,
        workload.require_delivery))
    _check_knowledge(world, config, built.simulator.now, ops)


# -------------------------------------------------------------------- cells
def _counters(built) -> Dict[str, float]:
    """Program counters of a finished cell (no tracing needed)."""
    from repro.contacts.memd import MemdCache

    world, stats = built.world, built.stats
    hits = computes = 0
    for node in world.nodes:
        for value in vars(node.router).values():
            if isinstance(value, MemdCache):
                hits += value.hits
                computes += value.computes
    engine = world.transfer_engine
    return {
        "mobility.fast_moves": world.movement.fast_moves,
        "mobility.loop_moves": world.movement.loop_moves,
        "world.link_ups": stats.contacts,
        "world.detector_rebuilds": getattr(world.detector, "rebuilds", 0),
        "net.transfers_completed": stats.transfers_completed,
        "net.transfers_aborted": stats.transfers_aborted,
        "net.engine_rows_attached": engine.rows_attached if engine else 0,
        "net.messages_created": stats.created,
        "routing.ticked": world.routers_ticked,
        "routing.skipped": world.routers_skipped,
        "routing.batched": world.routers_batched,
        "contacts.memd_hits": hits,
        "contacts.memd_computes": computes,
        "metrics.record_storage_mb": stats.record_storage_bytes() / 2**20,
        "metrics.late_deliveries": int(
            (stats.delivered_latencies() > built.config.message_ttl).sum()),
    }


def run_cell(config, workload: Workload, store, ops: Ops, tracer=None,
             fresh: Optional[List[str]] = None, parity: int = 0
             ) -> Optional[Cell]:
    """Build, run tick by tick and store one cell; check it on the way.

    In a traced run, steady ticks alternate between untraced and traced
    blocks of ``workload.trace_block`` ticks; *parity* shifts the pattern
    so that successive rounds trace complementary blocks.
    """
    from hostspeed import HostSpeed
    from repro.experiments.builder import build_scenario
    from repro.experiments.runner import finalize_report

    gc.collect()
    perf = time.perf_counter
    # probes bracket the build, the warm-up ticks and the steady ticks with
    # the store write, so each part is normalised by the speed it ran at
    setup_speed, warm_speed, steady_speed = HostSpeed(), HostSpeed(), HostSpeed()
    setup_speed.sample()
    if tracer is not None:
        tracer.install()
    try:
        with tracer.span("build") if tracer is not None else nullcontext():
            start = perf()
            built = build_scenario(config)
            setup = perf() - start
        if tracer is not None:
            tracer.uninstall()
        setup_speed.sample()
        warm_speed.sample()
    except Exception as error:  # a cell that cannot be built is a failed op
        if tracer is not None:
            tracer.uninstall()
        ops.raised(f"{config.name}: build", error)
        return None
    world, sim = built.world, built.simulator
    dt = config.update_interval
    ticks = int(round(config.sim_time / dt))
    warmup = workload.warmup_ticks
    times: List[float] = []
    traced: List[bool] = []
    before = None
    try:
        for k in range(1, ticks + 1):
            due = k % workload.check_every == 0 or k == ticks
            trace_tick = (tracer is not None and k > warmup and
                          ((k - warmup - 1) // workload.trace_block + parity)
                          % 2 == 1)
            if tracer is not None:
                if trace_tick:
                    tracer.install()
                else:
                    tracer.uninstall()
            if due and workload.movement:
                before = world.positions().copy()
            root = tracer.open("tick.steady") if trace_tick else -1
            start = perf()
            sim.run(until=k * dt)
            times.append(perf() - start)
            if trace_tick:
                tracer.close(root)
            traced.append(trace_tick)
            if k < warmup:
                warm_speed.account(times[-1])
            elif k == warmup:
                warm_speed.sample()
                steady_speed.sample()
            else:
                steady_speed.account(times[-1])
            if due:
                with tracer.suspended() if tracer is not None else nullcontext():
                    _check_ticks(world, config, workload, before, ops)
        if tracer is not None:
            tracer.install()
        start = perf()
        report = finalize_report(built.stats, config)
        store.put(config, report)
        write = perf() - start
        if tracer is not None:
            tracer.uninstall()
        steady_speed.sample()
        if fresh is not None:
            fresh.append(json.dumps(report.as_dict(), sort_keys=True))
        _check_cell(built, workload, ticks, ops)
        counters = _counters(built)
    except Exception as error:  # the program raised: a failed operation
        if tracer is not None:
            tracer.uninstall()
        ops.raised(f"{config.name}: run", error)
        return None
    finally:
        world.stop()
    ops.check([])  # the cell itself ran to its end
    return Cell(setup, write, times, traced, counters, warmup,
                (setup_speed.slowdown(), warm_speed.slowdown(),
                 steady_speed.slowdown()))


def serve_pass(configs, store, fresh: List[str], ops: Ops, tracer=None) -> None:
    """Serve every cell from the store; no cell may be recomputed."""
    import checks
    from repro import api

    recomputed = 0
    original = api.run_scenario

    def counting(config):
        nonlocal recomputed
        recomputed += 1
        return original(config)

    api.run_scenario = counting
    if tracer is not None:
        tracer.install()
    try:
        served = [json.dumps(api.run(config, store=store).as_dict(),
                             sort_keys=True) for config in configs]
    finally:
        api.run_scenario = original
        if tracer is not None:
            tracer.uninstall()
    ops.check(checks.check_store(recomputed, fresh, served))


def late_delivery_pass(ops: Ops) -> None:
    """Run the fixed late-delivery cell, untimed; hold it to the exact TTL."""
    import checks
    from repro.experiments.builder import build_scenario

    config = _bus_cell(**LATE_DELIVERY_CELL)
    try:
        built = build_scenario(config)
        try:
            built.simulator.run(until=config.sim_time)
            latencies = built.stats.delivered_latencies()
        finally:
            built.world.stop()
    except Exception as error:
        ops.raised(f"{config.name} (late-delivery cell)", error)
        return
    ops.check(checks.check_ttl(latencies, config.message_ttl), known=True)


# ------------------------------------------------------------------- metrics
def _tail(samples: List[float]):
    """Highest ladder percentile with at least ten samples beyond it."""
    import numpy as np

    values = np.asarray(samples, dtype=float)
    for pct in TAIL_LADDER:
        beyond = int((values > np.percentile(values, pct)).sum())
        if beyond >= 10:
            return pct, float(np.percentile(values, pct)), beyond
    return 50.0, float(np.median(values)), int(len(values) // 2)


def build_only(configs) -> Tuple[float, float]:
    """Set every cell up once more; wall and host-normalised seconds."""
    from hostspeed import HostSpeed
    from repro.experiments.builder import build_scenario

    speed = HostSpeed()
    total = 0.0
    for config in configs:
        gc.collect()
        speed.sample()
        start = time.perf_counter()
        built = build_scenario(config)
        total += time.perf_counter() - start
        speed.sample()
        built.world.stop()
        del built
    gc.collect()
    return total, total / speed.slowdown()


def end_to_end(rounds: List[List[Cell]], setups: List[Tuple[float, float]],
               normalised: bool = True) -> Dict[str, dict]:
    """End-to-end metrics: medians over rounds of per-round totals.

    Every round repeats the same cells on the same inputs.  With
    *normalised*, each cell's wall times are divided by the host slowdown
    measured while it ran (see :meth:`Cell.seconds`); *setups* holds the
    wall and normalised set-up seconds of each set-up of every cell.
    """
    def per_round(part: int) -> float:
        return statistics.median(sum(cell.seconds(normalised)[part]
                                     for cell in cells) for cells in rounds)

    setup = statistics.median(pair[normalised] for pair in setups)
    warm, steady, write = per_round(1), per_round(2), per_round(3)
    steady_ticks = sum(len(cell.ticks) - cell.warmup for cell in rounds[0])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "cells_per_hour": {"value": 3600.0 * len(rounds[0])
                           / (setup + warm + steady + write),
                           "unit": "cells/h"},
        "setup_s": {"value": setup, "unit": "s"},
        "warmup_s": {"value": warm, "unit": "s"},
        "ticks_per_s": {"value": steady_ticks / steady, "unit": "ticks/s"},
        "peak_rss_mb": {"value": peak, "unit": "MiB"},
    }


def per_layer(rounds: List[List[Cell]], tracer) -> Dict[str, dict]:
    from spans import LAYERS

    cells = [cell for cells in rounds for cell in cells]
    n = len(rounds)
    summary = tracer.summarize("tick.steady")
    names = summary["per_name"]
    phases = summary["phase_s"]

    def total(name: str, key: str = "total_s") -> float:
        return names.get(name, {}).get(key, 0.0) / n

    def calls(name: str) -> float:
        return names.get(name, {}).get("calls", 0) / n

    def counter(key: str) -> float:
        return sum(cell.counters[key] for cell in cells) / n

    everywhere = tracer.arrays()
    span_names = tracer.names

    def span_total(name: str) -> float:
        if name not in span_names:
            return 0.0
        mask = everywhere["name"] == span_names.index(name)
        return float((everywhere["end"] - everywhere["start"])[mask].sum()) / n

    untraced: List[float] = []
    overheads: List[float] = []
    for round_cells in rounds:
        on_total = off_total = 0.0
        on_count = off_count = 0
        for cell in round_cells:
            for seconds, on in zip(cell.normalised_ticks()[cell.warmup:],
                                   cell.traced[cell.warmup:]):
                if on:
                    on_total, on_count = on_total + seconds, on_count + 1
                else:
                    off_total, off_count = off_total + seconds, off_count + 1
                    untraced.append(seconds)
        overheads.append((on_total / on_count) / (off_total / off_count) - 1)
    pct, tail, beyond = _tail(untraced)
    completed = counter("net.transfers_completed")
    aborted = counter("net.transfers_aborted")
    hits = counter("contacts.memd_hits")
    computes = counter("contacts.memd_computes")
    ticked, batched = counter("routing.ticked"), counter("routing.batched")
    values = {
        "experiments.build_s": (span_total("build"), "s"),
        "mobility.advance_s": (total("mobility.advance"), "s"),
        "mobility.loop_moves": (counter("mobility.loop_moves"), "count"),
        "mobility.fast_moves": (counter("mobility.fast_moves"), "count"),
        "world.detect_s": (total("world.detect"), "s"),
        "world.apply_s": (phases["connectivity"] / n - total("world.detect"),
                          "s"),
        "world.link_ups": (counter("world.link_ups"), "count"),
        "world.detector_rebuilds": (counter("world.detector_rebuilds"), "count"),
        "net.transfers_s": (phases["transfers"] / n, "s"),
        "net.transfers_completed": (completed, "count"),
        "net.transfers_aborted": (aborted, "count"),
        "net.transfer_completion_ratio": (
            completed / (completed + aborted) if completed + aborted else 0.0,
            "ratio"),
        "net.engine_rows_attached": (counter("net.engine_rows_attached"),
                                     "count"),
        "net.traffic_s": (summary["between_s"] / n, "s"),
        "net.messages_created": (counter("net.messages_created"), "count"),
        "net.node_ids_calls": (calls("net.node_ids"), "count"),
        "net.node_ids_s": (total("net.node_ids"), "s"),
        "routing.routers_s": (phases["routers"] / n, "s"),
        "routing.update_s": (total("routing.update", "self_s"), "s"),
        "routing.ticked": (ticked, "count"),
        "routing.skipped": (counter("routing.skipped"), "count"),
        "routing.batched": (batched, "count"),
        "routing.batched_ratio": (batched / (ticked + batched)
                                  if ticked + batched else 0.0, "ratio"),
        "contacts.memd_calls": (calls("contacts.memd"), "count"),
        "contacts.memd_s": (total("contacts.memd"), "s"),
        "contacts.memd_hit_ratio": (hits / (hits + computes)
                                    if hits + computes else 0.0, "ratio"),
        "contacts.dijkstra_calls": (calls("contacts.dijkstra"), "count"),
        "contacts.dijkstra_s": (total("contacts.dijkstra"), "s"),
        "core.eev_calls": (calls("core.eev"), "count"),
        "core.eev_s": (total("core.eev"), "s"),
        "core.community_prob_s": (total("core.community_prob"), "s"),
        "metrics.record_storage_mb": (max(cell.counters[
            "metrics.record_storage_mb"] for cell in cells), "MiB"),
        "metrics.late_deliveries": (counter("metrics.late_deliveries"),
                                    "count"),
        "store.put_s": (span_total("store.put"), "s"),
        "store.get_s": (span_total("store.get"), "s"),
        "tick.p50_ms": (1000 * statistics.median(untraced), "ms"),
        "tick.tail_ms": (1000 * tail, "ms"),
        "tick.tail_pct": (pct, "%"),
        "tick.tail_beyond": (beyond, "count"),
        "trace.steady_s": (summary["root_s"] / n, "s"),
        "trace.explained_ratio": (summary["explained_s"] / summary["root_s"]
                                  if summary["root_s"] else 0.0, "ratio"),
        "trace.unexplained_s": (summary["unexplained_s"] / n, "s"),
        "trace.overhead_ratio": (statistics.median(overheads), "ratio"),
    }
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = (
            summary["layer_self_s"][layer] / n, "s")
    # set-up and the store run outside the ticks: their spans are roots
    values["layer.experiments.self_s"] = values["experiments.build_s"]
    values["layer.store.self_s"] = (span_total("store.put")
                                    + span_total("store.get"), "s")
    # span seconds are wall seconds: normalise them with the run's median
    # slowdown, like the end-to-end figures (tick figures already are)
    slowdown = statistics.median(cell.slowdown for cell in cells)
    return {name: {"value": float(value / slowdown if unit == "s" else value),
                   "unit": unit}
            for name, (value, unit) in values.items()}


# ---------------------------------------------------------------------- main
def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    from repro import api

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    ops = Ops()
    configs = workload.cells(seed)
    rounds: List[List[Cell]] = []
    store_rows = store_mb = 0.0
    SCRATCH.mkdir(exist_ok=True)
    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=SCRATCH) as tmp:
        attempts = 0
        while True:
            round_start = time.perf_counter()
            path = os.path.join(tmp, f"round{attempts}.sqlite")
            fresh: List[str] = []
            with api.open_store(path) as store:
                cells = [run_cell(config, workload, store, ops, tracer, fresh,
                                  parity=attempts % 2)
                         for config in configs]
                if workload.serve:
                    serve_pass(configs, store, fresh, ops, tracer)
                store_rows = len(store)
            if workload.serve:
                late_delivery_pass(ops)
            store_mb = os.path.getsize(path) / 2**20
            attempts += 1
            if all(cell is not None for cell in cells):
                rounds.append(cells)
            last = time.perf_counter() - round_start
            if attempts >= workload.rounds and (
                    time.perf_counter() - began + last > seconds):
                break
    if not rounds:
        return {"correct": False, "attempted": max(1, ops.attempted),
                "failed": max(1, ops.failed), "metrics": {},
                "errors": ops.errors}
    if tracer is None:
        setups = [tuple(sum(cell.seconds(normalised)[0] for cell in cells)
                        for normalised in (False, True)) for cells in rounds]
        while len(setups) < SETUP_SAMPLES:
            setups.append(build_only(configs))
        metrics = end_to_end(rounds, setups)
        wall = end_to_end(rounds, setups, normalised=False)
        print("wall-clock figures (not host-normalised): " + " ".join(
            f"{name}={entry['value']:.6g}" for name, entry in wall.items()))
    else:
        metrics = per_layer(rounds, tracer)
        metrics["store.rows"] = {"value": float(store_rows), "unit": "count"}
        metrics["store.file_mb"] = {"value": store_mb, "unit": "MiB"}
        out = SCRATCH / "perfbench-traces"
        out.mkdir(exist_ok=True)
        tracer.write(str(out / f"{workload.name}-seed{seed}.json.gz"),
                     tracer.summarize("tick.steady"))
    slowdowns = [cell.slowdown for cells in rounds for cell in cells]
    print(f"host slowdown per cell: "
          + " ".join(f"{x:.3f}" for x in slowdowns))
    result = {"correct": ops.correct, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}
    if ops.errors:
        result["errors"] = ops.errors[:20]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    errors = result.pop("errors", [])
    for line in errors:
        print(f"check failed: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
