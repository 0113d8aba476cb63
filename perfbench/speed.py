"""Machine-speed reference for timings taken on a shared host.

On a shared machine the speed of a core changes by half or more, for
seconds to minutes at a time, and CPU time changes with wall time, so no
statistic taken inside one run removes it.  ``SpeedProbe`` times a fixed
reference loop of pure-Python sparse rational arithmetic (the kind of work
ratdyn does) between queries, at most once per ``interval`` seconds.  A timing is
normalised by the reference-loop time around it:

    normalised = measured * REFERENCE_S / reference-loop time

that is, the time the same work takes on a core that runs the reference
loop in REFERENCE_S seconds.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# The reference loop's time on an unloaded core of the machine the benchmark
# was calibrated on (Intel Xeon, 2 vCPUs, Python 3.11.7); see README.md.
REFERENCE_S = 0.004
_REPEATS = 3


def reference_loop() -> int:
    """A sparse product of two polynomials with rational coefficients, in
    the dict-of-exponent-tuples form ratdyn uses, written out here so that
    a change to ratdyn cannot change the reference."""
    a = {(i, j, (i * j) % 5): Fraction(i + 1, j + 2)
         for i in range(6) for j in range(6)}
    b = {(i, (i + j) % 7, j): Fraction(j - 3, i + 1)
         for i in range(5) for j in range(5)}
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return len(out)


class SpeedProbe:
    """Reference-loop timings over a run, and the factors they imply."""

    def __init__(self, interval: float):
        self.interval = interval
        self.times = []      # perf_counter at each sample
        self.loop_s = []     # median of _REPEATS reference loops there

    def sample(self):
        runs = []
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            reference_loop()
            runs.append(time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.loop_s.append(statistics.median(runs))

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= self.interval:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean reference-loop time of the last sample
        taken before ``t0`` and the first taken after ``t1``."""
        before = bisect.bisect_right(self.times, t0) - 1
        after = bisect.bisect_left(self.times, t1)
        near = [self.loop_s[i] for i in (before, after)
                if 0 <= i < len(self.times)]
        return REFERENCE_S * len(near) / sum(near)
