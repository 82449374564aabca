"""Host speed calibration: a fixed pure-Python loop timed next to every job.

The program is single-threaded and CPU-bound, and on a shared host the
speed of one core drifts with the other tenants' load: one identical job
took 0.53 s to 1.05 s within a minute, with CPU time equal to wall time,
and whole half-minute runs fell into slow or fast phases.  The loop below
does the same kind of work as the program (exact rational arithmetic on
coefficient lists, dicts keyed by tuples, strings) and none of its code, so
a change to ``preproj`` cannot change it.  ``run.py`` times it before and
after every timed job and scales the job's time by the loop's nominal time
over the mean of those two: a job's time at the speed of a host on which
the loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The loop's time on the reference host (Python 3.11, one core of a 2-vCPU
# VM, Intel Xeon, shared), in its faster phases.
NOMINAL_S = 0.040


def _gcd(a: list, b: list) -> list:
    """Euclid's algorithm over Q on coefficient lists, highest degree first."""
    while b:
        a = list(a)
        while len(a) >= len(b):
            q = a[0] / b[0]
            a = [x - q * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
            while a and a[0] == 0:
                a.pop(0)
        a, b = b, a
    return a


def _loop() -> int:
    acc = 0
    for k in range(12):
        a = [Fraction(i * i + k, i + 2) for i in range(14)]
        b = [Fraction(3 * i + 1 + k, 2 * i + 1) for i in range(11)]
        acc += len(_gcd(a, b))
        table = {}
        for i in range(3000):
            table[(i, k)] = str(i * 7919 + k)
        acc += len(table)
    return acc


def loop_seconds() -> float:
    """Wall time of one run of the calibration loop."""
    start = perf_counter()
    _loop()
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at nominal host speed, given the loop's times around it."""
    return seconds * NOMINAL_S * 2 / (before + after)
