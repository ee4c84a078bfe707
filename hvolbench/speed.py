"""Machine-speed probe: a fixed piece of pure-Python work that never calls hvol.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 1.8x over minutes: within three minutes on a 2-CPU Xeon VM one C^2/Z_3
minimize job took from 370 ms to 660 ms, while its time divided by this
kernel's time stayed within about 5%.  So run.py times the kernel right
before every job and every setup sample, and once at the end, and scales
measured times by REFERENCE_MS over the kernel's time.  A reported time is
the time on a machine where the kernel takes REFERENCE_MS; a change to hvol
moves it, a change in the host's load does not.

The host also flips between a fast and a slow state that last a few seconds
each (probe times of one run cluster near 5 and 9 ms).  A sum over a whole
run, such as jobs per second, which long jobs dominate, is scaled by the
kernel's mean time over all probes of the run (`scale`), the top and bottom
tenth left out against preemption spikes: that estimates the share of time
spent in each state.  A single job of half a second runs mostly in one state,
and the median job time jumps between the states' clusters as their shares
change, so each job time is scaled by the two probes around it
(`local_scale`) before the median is taken.

The kernel does the kinds of work hvol's hot code does, in the interpreter:
exact `Fraction` elimination (as in vertex enumeration and exact volumes) and
a float loop (as in quadrature).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The kernel's time, in ms, on the machine the reported times refer to: the
# 2-CPU Xeon VM the benchmark was calibrated on, at its fastest.
REFERENCE_MS = 5.0
# Share of probes left out at each end before taking the mean.
TRIM = 0.1


def kernel() -> Fraction:
    n = 9
    rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] + [Fraction(i + 1)] for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    s = 0.0
    for i in range(20000):
        x = i * 1e-4
        s += x * x / (1.0 + x)
    return rows[0][n] + Fraction(s).limit_denominator(1000)


def probe() -> float:
    """Milliseconds one kernel run takes now."""
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) * 1e3


def scale(probes: list[float]) -> float:
    """REFERENCE_MS over the trimmed mean of a run's probe times."""
    cut = int(len(probes) * TRIM)
    kept = sorted(probes)[cut: len(probes) - cut]
    return REFERENCE_MS / statistics.fmean(kept)


def local_scale(probes: list[float], index: int) -> float:
    """REFERENCE_MS over the mean of probe `index`, taken right before an
    item, and the probe right after it."""
    return REFERENCE_MS / statistics.fmean(probes[index: index + 2])
