"""Correctness checks the benchmark computes apart from the program.

Every check takes plain values or arrays read from the program's outputs
and recomputes the expected result with its own code (its own k-d tree,
its own shortest-path solver, its own Theorem-1 count).  Each returns a
list of error strings; an empty list means the check passed.  The checks
know nothing about how the benchmark drives the program, so
``test_checks.py`` can feed each one a deliberately corrupted input.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np
from scipy.sparse.csgraph import csgraph_from_dense, dijkstra
from scipy.spatial import cKDTree

#: relative tolerance for floating-point results whose summation order the
#: benchmark does not reproduce (shortest-path sums, the EEV sum)
RTOL = 1e-9


def _examples(items, limit: int = 3) -> str:
    return ", ".join(str(item) for item in sorted(items)[:limit])


def pairs_in_range(positions: np.ndarray, transmit_range: float) -> np.ndarray:
    """Index pairs ``(i, j)``, ``i < j``, within *transmit_range* of each other.

    A k-d tree proposes candidates with a slightly widened radius; the exact
    predicate ``dx*dx + dy*dy <= r*r`` decides, so pairs on the boundary are
    judged by the definition rather than by the tree's own rounding.
    """
    positions = np.asarray(positions, dtype=float)
    if len(positions) < 2:
        return np.empty((0, 2), dtype=np.int64)
    tree = cKDTree(positions)
    pairs = tree.query_pairs(transmit_range * (1 + 1e-9), output_type="ndarray")
    if not len(pairs):
        return np.empty((0, 2), dtype=np.int64)
    delta = positions[pairs[:, 0]] - positions[pairs[:, 1]]
    keep = delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1] \
        <= transmit_range * transmit_range
    return np.sort(pairs[keep], axis=1)


def _codes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unordered node-id pairs packed into sorted unique int64 codes."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return np.unique((lo.astype(np.int64) << 32) | hi.astype(np.int64))


def _decode(codes: np.ndarray) -> List[Tuple[int, int]]:
    return [(int(c >> 32), int(c & 0xFFFFFFFF)) for c in codes[:3]]


def check_links(positions: np.ndarray, node_ids: Sequence[int],
                transmit_range: float,
                links: Iterable[Tuple[int, int]]) -> List[str]:
    """The live link set equals the node pairs within radio range."""
    ids = np.asarray(node_ids, dtype=np.int64)
    pairs = pairs_in_range(positions, transmit_range)
    expected = _codes(ids[pairs[:, 0]], ids[pairs[:, 1]])
    live_pairs = np.asarray(list(links), dtype=np.int64).reshape(-1, 2)
    live = _codes(live_pairs[:, 0], live_pairs[:, 1])
    errors = []
    missing = np.setdiff1d(expected, live, assume_unique=True)
    extra = np.setdiff1d(live, expected, assume_unique=True)
    if len(missing):
        errors.append(f"links: {len(missing)} in-range pairs have no link "
                      f"(e.g. {_decode(missing)})")
    if len(extra):
        errors.append(f"links: {len(extra)} links join out-of-range pairs "
                      f"(e.g. {_decode(extra)})")
    if len(live) != len(live_pairs):
        errors.append(f"links: {len(live_pairs) - len(live)} duplicate links")
    return errors


def shortest_delays(md: np.ndarray, source: int) -> np.ndarray:
    """Shortest-path delays from *source* over the delay matrix *md*.

    ``inf`` marks a missing edge; zero-weight edges are kept (a zero
    expected delay is a real edge), which is why the dense matrix is
    converted with ``null_value=None``.
    """
    graph = csgraph_from_dense(np.asarray(md, dtype=float), null_value=None,
                               infinity_null=True)
    return dijkstra(graph, directed=True, indices=source)


def check_memd(program: np.ndarray, md: np.ndarray, source: int) -> List[str]:
    """A MEMD delay vector equals an independent shortest-path solve."""
    program = np.asarray(program, dtype=float)
    expected = shortest_delays(md, source)
    if program.shape != expected.shape:
        return [f"memd: vector has shape {program.shape}, "
                f"expected {expected.shape}"]
    inf_program = np.isinf(program)
    inf_expected = np.isinf(expected)
    errors = []
    if not np.array_equal(inf_program, inf_expected):
        bad = np.flatnonzero(inf_program != inf_expected)
        errors.append(f"memd: source {source} reachability differs at "
                      f"{len(bad)} nodes (e.g. {_examples(bad.tolist())})")
    finite = ~inf_program & ~inf_expected
    close = np.isclose(program[finite], expected[finite], rtol=RTOL, atol=1e-9)
    if not close.all():
        bad = np.flatnonzero(finite)[~close]
        errors.append(f"memd: source {source} delays differ at {len(bad)} "
                      f"nodes (e.g. {_examples(bad.tolist())})")
    return errors


def theorem1_eev(intervals: Sequence[Sequence[float]],
                 elapsed: Sequence[float], horizon: float) -> float:
    """Expected encounter value by Theorem 1 with the REFRESH fallback.

    For each peer, ``m`` counts the recorded intervals longer than the
    elapsed time and ``m_tau`` those that also end within the horizon; the
    peer contributes ``m_tau / m``.  When no interval exceeds the elapsed
    time the overdue meeting is a fresh renewal: ``#(dt <= tau) / #R``.
    """
    total = 0.0
    for window, since in zip(intervals, elapsed):
        if not len(window):
            continue
        longer = [dt for dt in window if dt > since]
        if longer:
            total += sum(1 for dt in longer if dt <= since + horizon) / len(longer)
        else:
            total += sum(1 for dt in window if dt <= horizon) / len(window)
    return total


def check_eev(program: float, intervals: Sequence[Sequence[float]],
              elapsed: Sequence[float], horizon: float) -> List[str]:
    """The program's EEV equals the benchmark's own Theorem-1 count."""
    expected = theorem1_eev(intervals, elapsed, horizon)
    if not math.isclose(program, expected, rel_tol=RTOL, abs_tol=1e-9):
        return [f"eev: program {program!r} != Theorem-1 count {expected!r} "
                f"at horizon {horizon:g}"]
    return []


def check_transfers(bytes_delivered: int, transfers_completed: int,
                    relayed: int, message_size: int,
                    aborted_bytes_left: np.ndarray) -> List[str]:
    """Completed transfers, relays and delivered bytes agree; aborts are partial."""
    errors = []
    if bytes_delivered != transfers_completed * message_size:
        errors.append(f"transfers: bytes_delivered {bytes_delivered} != "
                      f"{transfers_completed} completed x {message_size} B")
    if relayed != transfers_completed:
        errors.append(f"transfers: relayed {relayed} != completed "
                      f"{transfers_completed}")
    left = np.asarray(aborted_bytes_left, dtype=float)
    bad = (left <= 0) | (left > message_size)
    if bad.any():
        errors.append(f"transfers: {int(bad.sum())} aborted records have "
                      f"bytes_left outside (0, {message_size}]")
    return errors


def check_router_accounting(ticked: int, skipped: int, batched: int,
                            nodes: int, ticks: int) -> List[str]:
    """Every router is accounted for exactly once per tick."""
    if ticked + skipped + batched != nodes * ticks:
        return [f"routers: ticked {ticked} + skipped {skipped} + batched "
                f"{batched} != {nodes} nodes x {ticks} ticks"]
    return []


def check_movement(before: np.ndarray, after: np.ndarray, width: float,
                   height: float, max_step: float) -> List[str]:
    """Nodes stay on the map and move at most *max_step* in one tick."""
    after = np.asarray(after, dtype=float)
    errors = []
    off = ((after[:, 0] < 0) | (after[:, 0] > width)
           | (after[:, 1] < 0) | (after[:, 1] > height))
    if off.any():
        errors.append(f"movement: {int(off.sum())} nodes off the "
                      f"{width:g} x {height:g} map")
    step = np.hypot(*(after - np.asarray(before, dtype=float)).T)
    fast = step > max_step * (1 + 1e-9)
    if fast.any():
        errors.append(f"movement: {int(fast.sum())} nodes moved more than "
                      f"{max_step:g} m in one tick (max {step.max():g} m)")
    return errors


def check_ttl(latencies: np.ndarray, ttl: float) -> List[str]:
    """Every delivery latency is at most *ttl* (float tolerance RTOL)."""
    latencies = np.asarray(latencies, dtype=float)
    late = latencies > ttl * (1 + RTOL)
    if late.any():
        return [f"reports: {int(late.sum())} deliveries later than the "
                f"{ttl:g} s TTL (max latency {latencies.max():.6g} s)"]
    return []


def check_reports(created: int, delivered: int, latencies: np.ndarray,
                  ttl: float, require_delivery: bool) -> List[str]:
    """Deliveries are bounded by creations; every latency is in [0, ttl]."""
    errors = []
    floor = 1 if require_delivery else 0
    if not floor <= delivered <= created or created < 1:
        errors.append(f"reports: delivered {delivered} out of "
                      f"[{floor}, created {created}]")
    latencies = np.asarray(latencies, dtype=float)
    if len(latencies) != delivered:
        errors.append(f"reports: {len(latencies)} latencies for "
                      f"{delivered} deliveries")
    negative = latencies < 0
    if negative.any():
        errors.append(f"reports: {int(negative.sum())} negative latencies")
    return errors + check_ttl(latencies, ttl)


def check_store(recomputed: int, fresh: Sequence[str],
                served: Sequence[str]) -> List[str]:
    """The store pass recomputes nothing and serves the fresh reports."""
    errors = []
    if recomputed:
        errors.append(f"store: read pass recomputed {recomputed} cells")
    if len(fresh) != len(served):
        errors.append(f"store: {len(served)} reports served for "
                      f"{len(fresh)} cells")
    differ = [i for i, (a, b) in enumerate(zip(fresh, served)) if a != b]
    if differ:
        errors.append(f"store: served reports differ from fresh ones at "
                      f"cells {differ}")
    return errors
