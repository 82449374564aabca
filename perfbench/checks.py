"""Answer checks, run on each job's JSON output outside the timed region.

Every series in an output is re-read with ``parse_ratfun``, so the checks
depend on the printed grammar only, not on the layout of the JSON schema
beyond the field names.  Identities between rational functions are tested
by cross-multiplying over the distinct denominators, which needs no gcd.
"""

from __future__ import annotations

import json

VERDICTS = ("FreeConsistent", "ProjectiveNotFreeConsistent", "NotProjective")


class WrongAnswer(Exception):
    """The program answered with exit code 0, and the answer is wrong."""


def _require(cond, message: str):
    if not cond:
        raise WrongAnswer(message)


def sums_to(terms, total) -> bool:
    """Exact test of sum(terms) == total, by cross-multiplication."""
    dens = []
    for f in list(terms) + [total]:
        if not any(f.den == d for d in dens):
            dens.append(f.den)

    def scaled(f):
        out = f.num
        for d in dens:
            if not d == f.den:
                out = out * d
        return out

    lhs = None
    for f in terms:
        lhs = scaled(f) if lhs is None else lhs + scaled(f)
    return lhs == scaled(total)


def _nonneg_integer_poly(f) -> bool:
    if f.den.degree != 0:
        return False
    p = f.as_polynomial()
    for c in p.coeffs:
        if not c.is_rational():
            return False
        q = c.as_rational()
        if q.denominator != 1 or q < 0:
            return False
    return True


def _check_trace(job, doc):
    from preproj.parsing import parse_ratfun
    from preproj.quiver import graded_basis, make_aut, path_eigenvalue
    from preproj.ratfun import series_expand

    n = job["n"]
    total = parse_ratfun(doc["total"])
    vector = [parse_ratfun(v) for v in doc["vector"]]
    _require(len(vector) == n, "vector has %d entries, expected %d" % (len(vector), n))
    _require(sums_to(vector, total), "vector does not sum to the total")
    raw = parse_ratfun(doc["raw_p"]).num * total.den
    _require(raw == parse_ratfun(doc["raw_q"]).num * total.num,
             "raw_p/raw_q differs from the total")
    _require(doc["pole_order_one"] <= 2, "pole order above 2 at t = 1")
    # brute force through degree 2n from the path basis
    g = make_aut(n, job["c"], job["t"])
    D = 2 * n
    brute_total = [0] * (D + 1)
    for j in range(1, n + 1):
        brute = []
        for s in range(D + 1):
            acc = 0
            for path in graded_basis(n, j, "any", s):
                acc = path_eigenvalue(g, path) + acc
            brute.append(acc)
            brute_total[s] = brute_total[s] + acc
        _require(series_expand(vector[j - 1], D) == brute,
                 "vertex %d series differs from the path-basis sum" % j)
    _require(series_expand(total, D) == brute_total,
             "total series differs from the path-basis sum")


def _check_molien(job, doc):
    from preproj.parsing import parse_ratfun
    from preproj.ratfun import series_expand

    n, expect = job["n"], job["expect"]
    _require(doc["group_order"] == expect["order"],
             "group order %s, expected %d" % (doc["group_order"], expect["order"]))
    scalar = parse_ratfun(doc["scalar"])
    for k, c in enumerate(series_expand(scalar, 50)):
        _require(c.is_rational() and c.as_rational().denominator == 1
                 and c.as_rational() >= 0,
                 "scalar coefficient of t^%d is %s" % (k, c))
    vector = [parse_ratfun(v) for v in doc["vector"]]
    _require(len(vector) == n, "vector has %d entries, expected %d" % (len(vector), n))
    _require(sums_to(vector, scalar), "vector does not sum to the scalar series")
    _require(doc["matrix_status"] == "ok", "matrix status %r" % doc["matrix_status"])
    matrix = [[parse_ratfun(e) for e in row] for row in doc["matrix"]]
    for i, row in enumerate(matrix):
        _require(sums_to(row, vector[i]), "matrix row %d does not sum to the vector" % (i + 1))
    if expect["scalar"] is not None:
        _require(sums_to([scalar], parse_ratfun(expect["scalar"])),
                 "scalar series differs from the fixture")


def _check_fixed_ring(job, doc):
    n = job["n"]
    _require(doc["generators_complete"], "generators incomplete")
    _require(doc["ambiguities_resolvable"], "unresolvable ambiguities")
    _require(doc["presentation_verified"], "presentation not verified")
    gens = doc["generators"]
    # criterion 7g: with the n idempotents, at least 3n generators
    _require(len(gens) + n >= 3 * n, "only %d generators" % len(gens))
    labels = {g["label"] for g in gens}
    for rel in doc["presentation"]["relations"]:
        _require(set(rel["lhs"]) | set(rel["rhs"]) <= labels,
                 "relation uses an unknown generator")


def _check_diagnose(job, doc):
    from preproj.parsing import parse_ratfun

    n, expect = job["n"], job["expect"]
    verdict = doc["verdict"]
    _require(verdict in VERDICTS, "verdict %r" % verdict)
    P = [[parse_ratfun(e) for e in row] for row in doc["P"]]
    _require(len(P) == n and all(len(row) == n for row in P), "P is not %dx%d" % (n, n))
    admissible = all(_nonneg_integer_poly(e) for row in P for e in row)
    _require(admissible == (verdict != "NotProjective"),
             "P entries do not match the verdict %s" % verdict)
    cofactor = doc["freeness_cofactor"]
    if verdict == "FreeConsistent":
        _require(_nonneg_integer_poly(parse_ratfun(cofactor)), "cofactor %r" % cofactor)
    if expect["verdict"] is not None:
        _require(verdict == expect["verdict"],
                 "verdict %s, expected %s" % (verdict, expect["verdict"]))
    if expect["P"] is not None:
        for i in range(n):
            for j in range(n):
                _require(P[i][j] == parse_ratfun(expect["P"][i][j]),
                         "P[%d][%d] differs from the fixture" % (i + 1, j + 1))
    if expect["cofactor"] is not None:
        _require(parse_ratfun(cofactor) == parse_ratfun(expect["cofactor"]),
                 "cofactor %s, expected %s" % (cofactor, expect["cofactor"]))


_CHECKS = {
    "trace": _check_trace,
    "molien": _check_molien,
    "fixed-ring": _check_fixed_ring,
    "diagnose": _check_diagnose,
}


def check(job, code, stdout: str, error: str | None):
    """Classify one job: ("ok" | "failed" | "wrong", reason).

    "failed" is a job that raised or exited non-zero, inconclusive exit 1
    included; "wrong" is an exit-0 answer that fails its check.  Both count
    as failed jobs; only "wrong" makes the run incorrect.
    """
    if error is not None:
        return "failed", error
    if code != 0:
        return "failed", "exit code %s" % code
    try:
        _CHECKS[job["command"]](job, json.loads(stdout))
    except WrongAnswer as exc:
        return "wrong", str(exc)
    except Exception as exc:  # a malformed output is a wrong answer too
        return "wrong", "%s: %s" % (type(exc).__name__, exc)
    return "ok", ""
