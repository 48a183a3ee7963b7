"""Host-speed probe: a fixed pure-Python kernel, timed between CLI jobs.

The host gives this machine's vCPUs a speed that changes from moment to
moment (another tenant on the same core): a fixed loop runs at one of two
speeds about 1.45x apart, switching every few to a few hundred
milliseconds, and the share of slow time drifts over tens of seconds, so
20-s averages moved by 1.5x within five minutes.  Raw run times of the same
code then spread far wider than any regression worth catching.

The probe times ``kernel``, a sparse product of two polynomials with
``Fraction`` coefficients (the inner loop of ``LaurentPoly.__mul__``,
written out here so that no change to ``src/`` changes it), on the CPUs the
jobs run on, while the runner holds the job stopped (see ``run.py``).  Its
mean time per kernel over a round, against ``REF_KERNEL_S``, is the round's
slowdown; the runner divides the round's times by it.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

# Time of one ``kernel()`` call on the reference host speed: the round's
# times are reported as they would read on a host where it takes this long.
REF_KERNEL_S = 0.005

_A = {e: Fraction((7 * e) % 11 - 5, e % 5 + 1) for e in range(-6, 30)}
_B = {e: Fraction((3 * e) % 13 - 6, e % 7 + 2) for e in range(-3, 25)}


def kernel():
    d = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = ea + eb
            s = d.get(e, Fraction(0)) + ca * cb
            if s:
                d[e] = s
            elif e in d:
                del d[e]
    return d


class Probe:
    """Accumulates kernel timings on a fixed set of CPUs."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.seconds = 0.0
        self.kernels = 0

    def run(self, seconds):
        """Time kernels for about ``seconds`` in all, split over the CPUs,
        then give the process back all of them."""
        per_cpu = seconds / len(self.cpus)
        for cpu in self.cpus:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            kernel()  # untimed: refill the caches that the job or the move left cold
            start = time.perf_counter()
            n = 0
            while True:
                kernel()
                n += 1
                took = time.perf_counter() - start
                if took >= per_cpu:
                    break
            self.seconds += took
            self.kernels += n
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.cpus)

    def slowdown(self):
        """Mean kernel time so far against the reference; 1.0 at reference speed."""
        return self.seconds / self.kernels / REF_KERNEL_S
