"""How fast the host runs the program's kind of code right now.

The benchmark's host is a shared virtual machine whose speed drifts: the
same cell has taken anywhere from 1x to 2x its best wall time, in spells
lasting from seconds to minutes.  Every timed step is therefore
accompanied by probes, five fixed kernels timed between ticks (never inside
a timed region): an integer loop, dict and tuple churn, small-array NumPy
sorts, a streaming NumPy pass over a few MiB and a pointer chase through a
ring of Python objects.  Together they slow down under contention much as
the simulator does.  A cell's slowdown is the geometric mean, over the
kernels, of the median probe time divided by that kernel's nominal time;
the benchmark divides the cell's wall times by it, so the reported figures
are seconds at the host's unloaded speed.

The probes run none of the program's code, but they share its process: a
collection started by a probe's allocations walks the program's objects,
and a probe that finds its data evicted by the program's last tick pays for
the misses.  Either would let a program that grows its heap slow the probes
too and have part of its slowdown divided out.  So every kernel runs once
untimed before its timed pass, with the garbage collector off throughout.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from typing import Dict, List

import numpy as np

_SMALL = np.random.default_rng(0).random(1_000)
_LARGE = np.random.default_rng(1).random(400_000)


class _Link:
    __slots__ = ("value", "next")


def _ring(size: int) -> "_Link":
    """A ring of *size* objects linked in a shuffled order (~5 MiB)."""
    links = [_Link() for _ in range(size)]
    order = list(range(size))
    random.Random(2).shuffle(order)
    for i, index in enumerate(order):
        links[index].value = i
        links[index].next = links[order[(i + 1) % size]]
    return links[0]


_RING = _ring(100_000)


def _integers() -> None:
    total = 0
    for i in range(10_000):
        total += i * i % 7


def _objects() -> None:
    table = {}
    for i in range(3_000):
        table[i] = [i, (i, str(i))]


def _small_arrays() -> None:
    values = _SMALL
    for _ in range(100):
        values = np.sort(values * 1.0001)


def _streaming() -> None:
    float((_LARGE * 1.0001 + 0.5).sum())


def _pointer_chase() -> None:
    link, total = _RING, 0
    for _ in range(20_000):
        total += link.value
        link = link.next


#: probe kernel -> its nominal seconds, about its time on an unloaded core of
#: the reference host (Xeon at 2.1 GHz, Python 3.11, NumPy 2.4); figures are
#: normalised to them, so changing one rescales every normalised figure
NOMINAL_S = {
    _integers: 0.00062,
    _objects: 0.00076,
    _small_arrays: 0.00048,
    _streaming: 0.00055,
    _pointer_chase: 0.00095,
}

#: seconds of measured work between two probes
PROBE_EVERY_S = 0.1


class HostSpeed:
    """Probe samples taken alongside one cell's timed steps."""

    def __init__(self) -> None:
        self.samples: Dict[object, List[float]] = {k: [] for k in NOMINAL_S}
        self._since = 0.0

    def sample(self) -> None:
        """Time every probe kernel once, after an untimed pass of it.

        The untimed pass loads the kernel's working set, so the cache lines
        the program left behind do not reach the timed pass, and the garbage
        collector is off meanwhile, so no collection walks the program's
        objects inside a probe.
        """
        perf = time.perf_counter
        enabled = gc.isenabled()
        gc.disable()
        try:
            for kernel, samples in self.samples.items():
                kernel()
                start = perf()
                kernel()
                samples.append(perf() - start)
        finally:
            if enabled:
                gc.enable()
        self._since = 0.0

    def account(self, seconds: float) -> None:
        """Record *seconds* of measured work; probe when enough has passed."""
        self._since += seconds
        if self._since >= PROBE_EVERY_S:
            self.sample()

    def slowdown(self) -> float:
        """Geometric mean of median over nominal probe time (1 = unloaded)."""
        logs = [math.log(statistics.median(samples) / NOMINAL_S[kernel])
                for kernel, samples in self.samples.items()]
        return math.exp(sum(logs) / len(logs))
