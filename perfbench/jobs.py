"""Job streams for the three workloads, generated from a seed.

A job is one CLI call: a command, its extra flags and the job document fed
to it on stdin.  Every workload is a fixed list of job *shapes* that the
loop in ``run.py`` repeats in order:

* pinned jobs, written out literally (the README job and the worked groups
  of ``tests/test_acceptance.py``);
* templates ``(n, m, a, b)`` standing for the automorphism with
  ``c_i = zeta(m)^a_i`` and ``t_i = zeta(m)^(b - a_i)``.

The 4-cycle group with ``c = t = (zeta(3),)*4`` fails at the seed.  It is
pinned as a known-defect job of ``molien`` and ``fixed-ring``
(``known_defect_jobs``): ``run.py`` runs and checks it once per run outside
the timed loop and counts it in ``ok_ratio``, so the timed stream holds
only jobs that answer.

The seed and the pass number turn each template into a random image of it
under the symmetries of the problem: a rotation of the cycle, a reflection that swaps the roles
of ``c`` and ``t``, and a Galois conjugation ``zeta(m) -> zeta(m)^k``.
Images of a template have the same cycle length, field and the same orders
of ``C = prod c_i`` and ``T = prod t_i``, and run-time at the seed depends
on those above all (the same cell of ``(n, m)`` spans 3 s to 38 s across
exponent patterns), though images of one template still differ by 10 to
20 %.  So different seeds and passes give different inputs, and about the
same amount of work, which is what keeps one run comparable with another.

Templates were drawn once from each stream's distribution.  A pass over a
workload's list takes about 6 to 10 s at the seed, so that a run repeats
every job several times; the heavier draws are named in comments and left
out of the pass.  Each template carries the job time it had at the seed
(Python 3.11, one core) so the choice can be revisited once jobs get
faster.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

HALFTURN = (["1", "1", "1"], ["-1", "-1", "-1"])
ORDER6 = (["1", "-1", "-1"], ["zeta(3)", "-zeta(3)", "-zeta(3)"])
ORDER3 = (["zeta(3)", "1", "zeta(3)^2"], ["1", "zeta(3)", "zeta(3)^2"])
ZETA3_4CYCLE = (["zeta(3)"] * 4, ["zeta(3)"] * 4)

# Pinned molien jobs: (id, n, (c, t), options, group order, scalar series).
# The scalar fixtures are criterion 3 of tests/test_acceptance.py.
MOLIEN_PINNED = [
    ("readme", 3, ORDER6, {"truncation": 40}, 6, "(3+t+t^2)/(1-t^3)^2"),
    ("halfturn", 3, HALFTURN, {}, 2, "3/((1-t)^2*(1+t))"),
    ("order6", 3, ORDER6, {}, 6, "(3+t+t^2)/(1-t^3)^2"),
    ("order3", 3, ORDER3, {}, 3, "(3+2*t+2*t^2+2*t^3)/(1-t^3)^2"),
]

# Pinned fixed-ring groups: (id, n, (c, t), verdict, P matrix, cofactor).
# Verdicts, P and the cofactor are criterion 5 of tests/test_acceptance.py.
FIXED_RING_PINNED = [
    ("halfturn", 3, HALFTURN, "FreeConsistent", None, "1+t"),
    ("order6", 3, ORDER6, "ProjectiveNotFreeConsistent",
     [["1+t^2", "t^2", "t+t^2+t^3"],
      ["t+t^3", "1", "t+t^2+t^3"],
      ["t+t^2", "t", "1+t^2+t^4"]], None),
    ("order3", 3, ORDER3, "NotProjective", None, None),
]

# Raises "matrix row sums disagree" at the seed (ROADMAP item 3) in
# molien, fixed-ring and diagnose.
KNOWN_DEFECT = ("zeta3-4cycle", 4, ZETA3_4CYCLE, 3)

# trace: the 7a mix, n uniform in 3..8 and conductor m in {1..10, 12},
# exponents uniform (so the order of g divides m).  One template per n.
# Last field: seconds per job at the seed.  Drawn from the same mix and
# left out of the pass, to keep it short: (4, 9, (6, 6, 0, 7), 4, 1.16),
# (6, 10, (5, 8, 5, 1, 7, 8), 1, 1.89), (7, 6, (4, 1, 3, 3, 4, 1, 2), 1, 1.21),
# (8, 8, (0, 4, 6, 2, 2, 3, 0, 3), 3, 2.82), (3, 1, (0, 0, 0), 0, 0.05),
# (5, 2, (0, 1, 0, 1, 1), 0, 0.18).
TRACE_TEMPLATES = [
    (3, 7, (0, 3, 0), 6, 0.58),
    (4, 5, (2, 4, 3, 4), 3, 0.51),
    (5, 12, (11, 3, 9, 1, 5), 0, 0.76),
    (6, 8, (0, 0, 0, 6, 3, 6), 0, 1.47),
    (7, 3, (0, 2, 1, 1, 1, 2, 0), 1, 0.99),
    (8, 4, (1, 3, 2, 0, 3, 0, 1, 2), 0, 0.76),
]

# molien: cyclic groups of exact order m, n in {3, 4}, m in {2, 3, 4, 6}.
# Left out of the pass, to keep it short: the GCD-bound tail, (4, 4,
# (1, 3, 0, 1), 3, 1.51), (3, 8, (6, 7, 1), 2, 3.44) and (4, 6, (3, 4, 1, 2),
# 1, 2.36).  The n = 4 order-8 cell was left out before that (3 s to 38 s),
# as were order-8 draws with C of order 8 (11 s to 14 s).
MOLIEN_TEMPLATES = [
    (3, 2, (0, 0, 1), 0, 0.14),
    (4, 2, (0, 1, 0, 0), 0, 0.42),
    (3, 3, (1, 1, 1), 2, 0.25),
    (4, 3, (2, 2, 0, 1), 2, 0.88),
    (3, 4, (3, 1, 0), 3, 0.79),
    (3, 6, (0, 3, 3), 4, 0.72),
]

# fixed-ring: cyclic groups of exact order m in {2, 3, 4, 6}, n in {3, 4}.
# Time is for the fixed-ring and diagnose jobs together.  Left out of the
# pass, to keep it short: n = 4, order 4 (2, 3, 2, 3), 2, 2.87, itself a
# lighter representative (C = T = -1; a draw with C and T of order 4 took
# 23 s).  The n = 4, order-6 cell is left out too (8 s to 21 s).
FIXED_RING_TEMPLATES = [
    (3, 4, (3, 1, 0), 3, 3.79),
    (4, 2, (0, 1, 1, 0), 0, 1.59),
]

WORKLOADS = ("trace", "molien", "fixed-ring")

# A run draws this many sets of images and cycles through them, pass after
# pass: enough to average over images, few enough that the answer checks of
# the later passes (half the job time on trace) are cached.
IMAGE_SETS = 3


def _zeta(m: int, k: int) -> str:
    k %= m
    return "1" if k == 0 else "zeta(%d)^%d" % (m, k)


def _image(rng: random.Random, n: int, m: int, a, b: int):
    """Scalars (c, t) of a random symmetric image of the template."""
    r = rng.randrange(n)
    a = [a[(i + r) % n] for i in range(n)]
    if rng.randrange(2):
        # reflect the cycle: c'_i = t_{n-1-i}, t'_i = c_{n-1-i}
        a = [b - a[n - 1 - i] for i in range(n)]
    k = rng.choice([k for k in range(1, m + 1) if math.gcd(k, m) == 1])
    return [_zeta(m, k * x) for x in a], [_zeta(m, k * (b - x)) for x in a]


def _doc(n: int, c, t, options=None) -> str:
    doc = {"quiver": {"family": "A_tilde", "n": n},
           "generators": [{"c": list(c), "t": list(t)}]}
    if options:
        doc["options"] = options
    return json.dumps(doc)


def _job(job_id, command, n, c, t, flags=(), options=None, **expect):
    return {"id": job_id, "command": command, "flags": list(flags), "n": n,
            "c": list(c), "t": list(t), "doc": _doc(n, c, t, options),
            "expect": expect}


def make_jobs(workload: str, seed: int, index: int = 0) -> list[dict]:
    """The workload's job list for pass `index` of this seed, in order.

    Passes cycle through IMAGE_SETS draws of images of the templates, so
    that a run's job times average over images and a pass does not repeat
    the inputs of the one before; the pinned jobs are the same in every
    pass.
    """
    rng = random.Random("%s/%d/%d" % (workload, seed, index % IMAGE_SETS))
    jobs = []
    if workload == "trace":
        for i, (n, m, a, b, _) in enumerate(TRACE_TEMPLATES):
            c, t = _image(rng, n, m, a, b)
            jobs.append(_job("t%d-n%d-m%d" % (i, n, m), "trace", n, c, t,
                             flags=["--degree", "40"]))
    elif workload == "molien":
        for job_id, n, (c, t), options, order, scalar in MOLIEN_PINNED:
            jobs.append(_job(job_id, "molien", n, c, t, options=options,
                             order=order, scalar=scalar))
        for i, (n, m, a, b, _) in enumerate(MOLIEN_TEMPLATES):
            c, t = _image(rng, n, m, a, b)
            jobs.append(_job("t%d-n%d-m%d" % (i, n, m), "molien", n, c, t,
                             order=m, scalar=None))
    elif workload == "fixed-ring":
        groups = [(job_id, n, c, t, dict(verdict=verdict, P=P, cofactor=cof))
                  for job_id, n, (c, t), verdict, P, cof in FIXED_RING_PINNED]
        for i, (n, m, a, b, _) in enumerate(FIXED_RING_TEMPLATES):
            c, t = _image(rng, n, m, a, b)
            groups.append(("t%d-n%d-m%d" % (i, n, m), n, c, t,
                           dict(verdict=None, P=None, cofactor=None)))
        for job_id, n, c, t, expect in groups:
            jobs.append(_job(job_id + "/fixed-ring", "fixed-ring", n, c, t))
            jobs.append(_job(job_id + "/diagnose", "diagnose", n, c, t, **expect))
    else:
        raise ValueError("unknown workload %r" % workload)
    return jobs


def known_defect_jobs(workload: str) -> list[dict]:
    """The workload's jobs that fail at the seed; run once per run, untimed."""
    job_id, n, (c, t), order = KNOWN_DEFECT
    if workload == "molien":
        return [_job(job_id, "molien", n, c, t, order=order, scalar=None)]
    if workload == "fixed-ring":
        nothing = dict(verdict=None, P=None, cofactor=None)
        return [_job(job_id + "/fixed-ring", "fixed-ring", n, c, t),
                _job(job_id + "/diagnose", "diagnose", n, c, t, **nothing)]
    return []


def warmup_jobs(workload: str) -> list[dict]:
    """Half-turn jobs of the workload's commands, run during set-up."""
    n, (c, t) = 3, HALFTURN
    if workload == "trace":
        return [_job("warmup", "trace", n, c, t, flags=["--degree", "40"])]
    if workload == "molien":
        return [_job("warmup", "molien", n, c, t, order=2, scalar=MOLIEN_PINNED[1][5])]
    return [_job("warmup/fixed-ring", "fixed-ring", n, c, t),
            _job("warmup/diagnose", "diagnose", n, c, t,
                 verdict="FreeConsistent", P=None, cofactor="1+t")]


def digest(jobs: list[dict]) -> str:
    """SHA-256 of the job list, to show a seed always gives the same jobs."""
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()).hexdigest()
