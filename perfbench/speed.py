"""Host-speed probe used to put every time on one reference speed.

The host gives this machine a share of shared cores, and their speed drifts:
the same code runs up to 25% faster or slower for stretches of 10-60 s.  A
benchmark time is therefore reported at a fixed reference speed: the
measured time times ``Probes.factor()``.  A probe runs four fixed kernels
between the timed calls, with the clock of the calls stopped: a Python loop,
small numpy ops, ``gammaln`` on a mid-size array and ``exp`` over an array
larger than a core's cache, the kinds of work the library does.  The factor
is the geometric mean of ``REF / median(kernel time)`` over the four, raised
to ``ELASTICITY``.  The kernels use no chi2norm code, so a change to the
library cannot move them.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.special import gammaln

# kernel times that define the reference speed: about their medians on a
# 2-core x86-64 VM with CPython 3.11 and numpy.  They only set the scale.
REF_S = (0.0014, 0.0009, 0.0006, 0.0032)
# after each call the worker owes one probe per GAP_S since the last probe
# (at most MAX_BURST), so the probes spread over a pass in proportion to
# time, long calls included, and cost about a tenth of it
GAP_S = 0.07
MAX_BURST = 20
# library times move by about this power of the probe's speed.  Over sets of
# ten runs on a 2-core x86-64 VM, the power that gave the steadiest wall_s
# was 0.6 on session and 1.0 on constants and divergence; with 0.75 every
# workload's spread was at or below 0.08, with 1.0 session's was 0.14
ELASTICITY = 0.75

_SMALL = np.linspace(0.0, 1.0, 512)
_MID = np.linspace(1.0, 50.0, 50_000)
_BIG = np.linspace(1.0, 50.0, 400_000)


def _loop() -> float:
    acc = 0.0
    for i in range(1, 12000):
        acc += (i % 7) * 0.5 / i
    return acc


def _small_arrays() -> float:
    y = _SMALL
    for k in range(300):
        y = np.sqrt(y * y + 1e-3 * k)
    return float(y[0])


def _special() -> float:
    return float(gammaln(_MID)[-1])


def _big_array() -> float:
    return float(np.exp(-_BIG).sum())


KERNELS = (_loop, _small_arrays, _special, _big_array)


def probe() -> tuple[float, ...]:
    """Seconds each kernel takes now."""
    clock = time.perf_counter
    times = []
    for kernel in KERNELS:
        t0 = clock()
        kernel()
        times.append(clock() - t0)
    return tuple(times)


def factor(times: list[tuple[float, ...]]) -> float:
    """Multiply a time measured while ``times`` were probed by this to
    reach the reference speed."""
    return math.prod(ref / statistics.median(col) for ref, col
                     in zip(REF_S, zip(*times))) ** (ELASTICITY / len(REF_S))


class Probes:
    """Probe times of one pass."""

    def __init__(self) -> None:
        self.times = [probe()]
        self.last = time.perf_counter()

    def after_call(self) -> None:
        owed = int((time.perf_counter() - self.last) / GAP_S)
        for _ in range(min(owed, MAX_BURST)):
            self.times.append(probe())
        if owed:
            self.last = time.perf_counter()

    def factor(self) -> float:
        """The factor of this pass, after one last probe."""
        self.times.append(probe())
        return factor(self.times)
