"""A fixed reference loop that samples the host's speed, and a step clock.

On a shared host the CPU's speed drifts by tens of percent over seconds and
minutes, because other tenants share its cores, caches and memory. A pass
timed on its own then measures the neighbours as much as the package.

So the benchmark times a pass step by step and runs a reference loop
between the steps. The loop never changes and calls no package code. It is
made of parts that do the kinds of work the workloads do:

* ``dispatch``: many NumPy calls on a 24-element permutation, as in
  torus building and orbit counting;
* ``bigint``: Fraction and big Python-int arithmetic, as in the exact
  routes and the series;
* ``stream``: an 8 MB int64 array through NumPy, as in the sieve and the
  table reads and writes.

Interpreter-bound work slows far more than streaming NumPy work when the
host is busy, so each workload samples the parts that match its own mix
(``MIX``). A step's normalized time is its time scaled by the mix's
nominal time over the mean of the reference samples just before and just
after it: the time the step would take on a host where the reference runs
at its nominal speed. Slow drift cancels in that ratio; the fast noise that
is left is what the medians over steps, passes and runs reduce.

A package change that makes a step 20% slower makes its normalized time
20% larger, because the reference runs no package code. The garbage
collector is off during a sample, so what the package leaves allocated
does not slow the reference.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from fractions import Fraction

import numpy as np

_PERM = np.random.default_rng(0).permutation(24)
_ARRAY = np.arange(1 << 20, dtype=np.int64)


def _dispatch_part() -> int:
    q = _PERM
    for _ in range(800):
        q = _PERM[q]
        np.argsort(q)
        np.unique(q % 7)
        np.concatenate((q[:5], q[5:]))
    return int(q[0])


def _bigint_part() -> int:
    total = Fraction(0)
    x = 1
    for k in range(1, 1500):
        total += Fraction(1, k * k)
        x = x * (k + 3) + math.comb(40, k % 40)
    return x % 1_000_003 + total.denominator % 7


def _stream_part() -> int:
    total = 0
    for _ in range(2):
        total += int((np.cumsum(_ARRAY) * 3 + _ARRAY)[-1])
    return total


PARTS = {"dispatch": _dispatch_part, "bigint": _bigint_part, "stream": _stream_part}

# Typical wall time of each part on a 2-vCPU Intel Xeon VM (2.0 GHz,
# Python 3.11, NumPy 2.4). Normalized times are in seconds on a host
# where the parts take this long.
NOMINAL_S = {"dispatch": 0.012, "bigint": 0.013, "stream": 0.011}

# The parts each workload samples. Census is small NumPy calls and slows
# like dispatch + bigint; tables and oracle also move large arrays and lists
# of big ints, and with the stream part the reference slows as they do
# (measured on recorded passes: the spread of normalized oracle passes was
# 8% with dispatch + bigint and 5% with all three parts).
MIX = {
    "tables": ("dispatch", "bigint", "stream"),
    "census": ("dispatch", "bigint"),
    "oracle": ("dispatch", "bigint", "stream"),
}


def nominal_s(mix) -> float:
    return sum(NOMINAL_S[p] for p in mix)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def sample(mix) -> tuple[float, float]:
    """One run of the reference parts in ``mix``: (wall seconds, CPU seconds)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        for part in mix:
            PARTS[part]()
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
    finally:
        if enabled:
            gc.enable()
    return wall, cpu


class StepClock:
    """Times the steps of one pass, with a reference sample between steps.

    ``start()`` takes the first reference sample; each ``lap()`` ends a step
    and takes the next sample; ``stop()`` ends the last step. Reference time
    is not part of any step. ``wall_s``/``cpu_s`` are the raw sums over the
    steps and ``norm_wall_s``/``norm_cpu_s`` the normalized ones.
    """

    def __init__(self, mix):
        self.mix = mix
        self.steps: list[tuple[float, float]] = []
        self.refs: list[tuple[float, float]] = []
        self._t = self._c = 0.0

    def _mark(self) -> None:
        self.refs.append(sample(self.mix))
        self._c = _cpu_s()
        self._t = time.perf_counter()

    def start(self) -> None:
        self._mark()

    def lap(self) -> None:
        wall = time.perf_counter() - self._t
        cpu = _cpu_s() - self._c
        self.steps.append((wall, cpu))
        self._mark()

    stop = lap

    @property
    def wall_s(self) -> float:
        return sum(w for w, _ in self.steps)

    @property
    def cpu_s(self) -> float:
        return sum(c for _, c in self.steps)

    def _normalized(self, k: int) -> float:
        nominal = nominal_s(self.mix)
        total = 0.0
        for i, step in enumerate(self.steps):
            ref = (self.refs[i][k] + self.refs[i + 1][k]) / 2
            total += step[k] * nominal / ref
        return total

    @property
    def norm_wall_s(self) -> float:
        return self._normalized(0)

    @property
    def norm_cpu_s(self) -> float:
        return self._normalized(1)
