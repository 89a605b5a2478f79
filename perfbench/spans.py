"""Spans around the program's public calls, recorded from outside the program.

The benchmark's traced mode wraps a fixed list of public functions and
methods (see :func:`default_targets`) and records one span per call: name,
parent span, root span, start and end.  World tick phases are not wrapped:
the pipeline already reports each phase's wall time through the public
:meth:`StatsCollector.tick_phase` hook, and the tracer turns each report
into a phase interval ending at the moment of the report.  Spans live in
flat arrays in memory and are written out once, when the run ends.

Nothing here patches code inside ``src/repro``: wrappers are installed on
classes and modules at run time and removed again, so the benchmark can
alternate traced and untraced blocks of ticks inside one run and measure the
tracing overhead against the untraced blocks.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: span name -> layer that owns its self time
LAYER_OF = {
    "build": "experiments",
    "mobility.advance": "mobility",
    "world.detect": "world",
    "routing.update": "routing",
    "contacts.memd": "contacts",
    "contacts.dijkstra": "contacts",
    "core.eev": "core",
    "core.community_prob": "core",
    "net.create_message": "net",
    "net.node_ids": "net",
    "store.put": "store",
    "store.get": "store",
}

#: world tick phase -> layer that owns the phase's own (self) time
PHASE_LAYER = {
    "move": "mobility",
    "connectivity": "world",
    "transfers": "net",
    "routers": "routing",
}

#: layers with a self time; the metrics layer has none of its own (records
#: are kept inside the phases), so it reports only its storage size
LAYERS = ("experiments", "mobility", "world", "net", "routing", "contacts",
          "core", "store")


def default_targets() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped public call.

    An owner is a class (the method is wrapped for every instance) or the
    function object itself, which is then replaced in every ``repro``
    module that binds it.
    """
    from repro.contacts import memd
    from repro.contacts.memd import MemdCache
    from repro.core import expectation
    from repro.mobility.engine import MovementEngine
    from repro.routing.base import Router
    from repro.store.results import ResultsStore
    from repro.world import connectivity, sharded
    from repro.world.world import World

    targets: List[Tuple[object, str, str]] = [
        (MovementEngine, "advance", "mobility.advance"),
        (Router, "update", "routing.update"),
        (MemdCache, "delays", "contacts.memd"),
        (memd.dijkstra_delays, "", "contacts.dijkstra"),
        (expectation.expected_encounter_value, "", "core.eev"),
        (expectation.community_encounter_probability, "",
         "core.community_prob"),
        (World, "create_message", "net.create_message"),
        (World, "node_ids", "net.node_ids"),
        (ResultsStore, "put", "store.put"),
        (ResultsStore, "get", "store.get"),
    ]
    for cls in (connectivity.KDTreeConnectivity, connectivity.GridConnectivity,
                connectivity.BruteForceConnectivity,
                sharded.ShardedConnectivity):
        if "update" in vars(cls):
            targets.append((cls, "update", "world.detect"))
    return targets


class Tracer:
    """Records spans in flat arrays; wrappers are installed on demand."""

    def __init__(self) -> None:
        self._resolved: Optional[List[Tuple[object, str, str]]] = None
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        # phase intervals reported through StatsCollector.tick_phase
        self.phase_name = array("i")
        self.phase_start = array("d")
        self.phase_end = array("d")
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ---------------------------------------------------------------- spans
    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        index = len(self.start)
        stack = self._stack
        if stack:
            self.parent.append(stack[-1])
            self.root.append(self.root[stack[0]])
        else:
            self.parent.append(-1)
            self.root.append(index)
        self.name.append(self._id(name))
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _phase_hook(self, fn: Callable) -> Callable:
        tracer = self

        def tick_phase(collector, name, seconds):
            end = time.perf_counter()
            tracer.phase_name.append(tracer._id(name))
            tracer.phase_start.append(end - seconds)
            tracer.phase_end.append(end)
            return fn(collector, name, seconds)

        tick_phase.__wrapped__ = fn
        return tick_phase

    # ------------------------------------------------------------- patching
    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _patch(self, owner, attr: str, replacement) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, replacement)

    def _bindings(self) -> List[Tuple[object, str, str]]:
        """``(owner, attribute, span name)`` for every place to wrap.

        Functions are found, once, in every ``repro`` module that binds
        them, so callers that imported them by name are traced too.
        """
        if self._resolved is None:
            resolved = []
            for owner, attr, name in default_targets():
                if isinstance(owner, type):
                    resolved.append((owner, attr, name))
                    continue
                for module in list(sys.modules.values()):
                    module_name = getattr(module, "__name__", "") or ""
                    if not module_name.startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is owner:
                            resolved.append((module, key, name))
            self._resolved = resolved
        return self._resolved

    def install(self) -> None:
        """Wrap every target (idempotent)."""
        if self._patches:
            return
        from repro.metrics.collector import StatsCollector

        for owner, attr, name in self._bindings():
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        self._patch(StatsCollector, "tick_phase",
                    self._phase_hook(StatsCollector.tick_phase))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last patched first."""
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def suspended(self):
        """Run a block (e.g. a correctness check) with tracing removed."""
        was = self.installed
        self.uninstall()
        try:
            yield
        finally:
            if was:
                self.install()

    # -------------------------------------------------------------- summary
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "root": np.frombuffer(self.root, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "phase_name": np.frombuffer(self.phase_name, dtype=np.int32).copy(),
            "phase_start": np.frombuffer(self.phase_start, dtype=float).copy(),
            "phase_end": np.frombuffer(self.phase_end, dtype=float).copy(),
        }

    def summarize(self, root_name: str) -> Dict[str, object]:
        """Per-name totals and per-layer self time under *root_name* roots.

        Self time of a wrapped span is its duration minus its children's.
        A phase's self time is its duration minus the top-level wrapped
        spans that ran inside it.  Whatever the root span's own code did
        outside every phase and every wrapped call is the unexplained
        remainder.
        """
        a = self.arrays()
        n = len(a["start"])
        rid = self._name_ids.get(root_name)
        dur = a["end"] - a["start"]
        is_root = (a["parent"] < 0) & (a["name"] == rid) if n else np.zeros(0, bool)
        roots = np.flatnonzero(is_root)
        in_scope = is_root[a["root"]] & ~is_root if n else np.zeros(0, bool)
        child = np.zeros(n)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child

        per_name: Dict[str, Dict[str, float]] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for nid in np.unique(a["name"][in_scope]):
            mask = in_scope & (a["name"] == nid)
            name = self.names[nid]
            per_name[name] = {"calls": int(mask.sum()),
                              "total_s": float(dur[mask].sum()),
                              "self_s": float(self_time[mask].sum())}
            layer_self[LAYER_OF[name]] += float(self_time[mask].sum())

        # phase intervals inside the roots (disjoint; the detect sub-meter
        # is nested in connectivity and is accounted as world.detect spans)
        root_start = a["start"][roots]
        root_end = a["end"][roots]
        order = np.argsort(root_start)
        root_start, root_end = root_start[order], root_end[order]

        def inside_roots(t: np.ndarray) -> np.ndarray:
            k = np.searchsorted(root_start, t, side="right") - 1
            ok = k >= 0
            ok[ok] = t[ok] <= root_end[k[ok]]
            return ok

        phase_names = [self.names[i] for i in a["phase_name"]]
        top_phase = np.array([name in PHASE_LAYER for name in phase_names],
                             dtype=bool)
        p_start = a["phase_start"][top_phase]
        p_end = a["phase_end"][top_phase]
        p_name = np.array(phase_names, dtype=object)[top_phase] \
            if len(phase_names) else np.array([], dtype=object)
        mid = (p_start + p_end) / 2
        keep = inside_roots(mid) if len(mid) else np.zeros(0, bool)
        p_start, p_end, p_name = p_start[keep], p_end[keep], p_name[keep]
        p_dur = p_end - p_start
        p_order = np.argsort(p_start)
        p_start, p_end, p_name, p_dur = (p_start[p_order], p_end[p_order],
                                         p_name[p_order], p_dur[p_order])
        phase_total = {name: float(p_dur[p_name == name].sum())
                       for name in PHASE_LAYER}
        detect_sub = [i for i, name in enumerate(phase_names)
                      if name == "connectivity.detect"]
        phase_total["connectivity.detect"] = float(sum(
            a["phase_end"][i] - a["phase_start"][i] for i in detect_sub
            if inside_roots(np.array([a["phase_start"][i]]))[0]))

        # top-level wrapped spans: their parent is a root
        top = in_scope & is_root[np.maximum(a["parent"], 0)] & has_parent
        top_idx = np.flatnonzero(top)
        t_mid = (a["start"][top_idx] + a["end"][top_idx]) / 2
        k = np.searchsorted(p_start, t_mid, side="right") - 1
        in_phase = k >= 0
        in_phase[in_phase] = t_mid[in_phase] <= p_end[k[in_phase]]
        phase_child = np.zeros(len(p_start))
        np.add.at(phase_child, k[in_phase], dur[top_idx][in_phase])
        for name, layer in PHASE_LAYER.items():
            sel = p_name == name
            layer_self[layer] += float((p_dur[sel] - phase_child[sel]).sum())
        between_wrapped = float(dur[top_idx][~in_phase].sum())
        root_total = float(dur[roots].sum())
        unexplained = root_total - float(p_dur.sum()) - between_wrapped
        explained = root_total - unexplained
        return {
            "roots": int(len(roots)),
            "root_s": root_total,
            "per_name": per_name,
            "phase_s": phase_total,
            "between_s": root_total - float(p_dur.sum()),
            "layer_self_s": layer_self,
            "explained_s": explained,
            "unexplained_s": unexplained,
        }

    def write(self, path: str, summary: Dict[str, object]) -> None:
        """Write every span and the summary as one gzipped JSON document."""
        a = self.arrays()
        payload = {
            "names": self.names,
            "spans": {key: a[key].tolist() for key in
                      ("name", "parent", "root", "start", "end")},
            "phases": {key: a[key].tolist() for key in
                       ("phase_name", "phase_start", "phase_end")},
            "summary": summary,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)
