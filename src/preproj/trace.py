"""Trace generating functions of diagonal automorphisms.

Three independent computations of the same data:

* a brute-force oracle summing path eigenvalues degree by degree,
* a linear-system closed form: the vector of traces solves M(t) x = b(t)
  up to the global factor 1/(1 - t_1...t_n t^n),
* a second closed form D(t)^{-1} * (1,...,1)^T with a tridiagonal-plus-corners
  matrix.

The total trace also has an explicit (not necessarily reduced) fraction
raw_p/raw_q with raw_q = (1 - c_1...c_n t^n)(1 - t_1...t_n t^n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .cyclotomic import CycNum, order_as_root_of_unity
from .ratfun import (
    Poly,
    RatFun,
    pole_order_at_one,
    poly_div_exact,
    series_expand,
)
from .quiver import DiagonalAut, SimplePath


def _t_at(g: DiagonalAut, j: int) -> CycNum:
    """t_j with the 1-based subscript reduced into 1..n."""
    return g.t[(j - 1) % g.n]


def _c_at(g: DiagonalAut, j: int) -> CycNum:
    return g.c[(j - 1) % g.n]


def _prod_t(g: DiagonalAut, lo: int, hi: int) -> CycNum:
    """Product t_lo * t_{lo+1} * ... * t_hi (empty when lo > hi)."""
    acc = CycNum.one()
    for j in range(lo, hi + 1):
        acc = acc * _t_at(g, j)
    return acc


def _prod_c(g: DiagonalAut, lo: int, hi: int) -> CycNum:
    acc = CycNum.one()
    for j in range(lo, hi + 1):
        acc = acc * _c_at(g, j)
    return acc


def eigenvalue_table(g: DiagonalAut, D: int) -> dict:
    """Eigenvalues of all normal-form paths of degree <= D, one multiply each.

    Keyed by (start, m, k).  Adding a reverse arrow to (start, m, k-1)
    multiplies by t_{start+m-k}; adding a forward arrow to (start, m-1, 0)
    multiplies by c_{start+m-1}.
    """
    n = g.n
    table = {}
    for start in range(1, n + 1):
        table[(start, 0, 0)] = CycNum.one()
        for m in range(1, D + 1):
            table[(start, m, 0)] = table[(start, m - 1, 0)] * _c_at(g, start + m - 1)
        for m in range(0, D + 1):
            for k in range(1, D - m + 1):
                table[(start, m, k)] = table[(start, m, k - 1)] * _t_at(g, start + m - k)
    return table


def trace_oracle(g: DiagonalAut, D: int):
    """Truncated trace series by direct eigenvalue summation.

    Returns (vector, total): vector[j-1][s] is the trace on (e_j A)_s,
    total[s] the trace on the full degree-s component.
    """
    if D < 0:
        raise ValueError("truncation degree must be nonnegative")
    n = g.n
    table = eigenvalue_table(g, D)
    vector = []
    for start in range(1, n + 1):
        row = []
        for s in range(D + 1):
            acc = CycNum.zero()
            for m in range(s + 1):
                acc = acc + table[(start, m, s - m)]
            row.append(acc)
        vector.append(row)
    total = [sum((vector[j][s] for j in range(n)), CycNum.zero()) for s in range(D + 1)]
    return vector, total


def _b_poly(g: DiagonalAut, ell: int) -> Poly:
    """b_ell(t) = sum_{k=0}^{n-1} (prod_{j=n-k+ell}^{n+ell-1} t_j) t^k."""
    n = g.n
    return Poly([_prod_t(g, n - k + ell, n + ell - 1) for k in range(n)])


def b_vector(g: DiagonalAut) -> list[RatFun]:
    """The quotient traces b_ell(t)/(1 - t_1...t_n t^n)."""
    n = g.n
    den = Poly([1] + [0] * (n - 1) + [-_prod_t(g, 1, n)])
    return [RatFun(_b_poly(g, ell), den) for ell in range(1, n + 1)]


def closed_34_matrix(g: DiagonalAut) -> list[list[Poly]]:
    """The system matrix M(t): identity minus the weighted forward shift."""
    n = g.n
    rows = []
    for i in range(n):
        row = [Poly()] * n
        row[i] = Poly.constant(1)
        row[(i + 1) % n] = row[(i + 1) % n] + Poly([0, -g.c[i]])
        rows.append(row)
    return rows


def vector_trace_closed_34(g: DiagonalAut) -> list[RatFun]:
    """Vector trace via the unipotent system M(t) x = b(t).

    M = I - Xt with X the c-weighted forward shift; X^n = (c_1...c_n) I, so
    M^{-1} = (sum_{k<n} X^k t^k) / (1 - c_1...c_n t^n) explicitly.
    """
    n = g.n
    b = [_b_poly(g, ell) for ell in range(1, n + 1)]
    den = raw_denominator(g)
    out = []
    for ell in range(1, n + 1):
        # row ell of M^{-1}: entry at column ell+k is c_ell...c_{ell+k-1} t^k
        num = Poly()
        for k in range(n):
            weight = _prod_c(g, ell, ell + k - 1)
            num = num + Poly.t_power(k, weight) * b[(ell + k - 1) % n]
        out.append(RatFun(num, den))
    return out


def closed_35_matrix(g: DiagonalAut) -> list[list[Poly]]:
    """The matrix D(t): (1 + c_1t_1 t^2) on the diagonal, weighted shifts off it."""
    n = g.n
    diag = Poly([1, 0, g.c[0] * g.t[0]])
    rows = []
    for i in range(n):
        row = [Poly()] * n
        row[i] = diag
        row[(i + 1) % n] = row[(i + 1) % n] + Poly([0, -g.c[i]])
        row[(i - 1) % n] = row[(i - 1) % n] + Poly([0, -g.t[(i - 1) % n]])
        rows.append(row)
    return rows


def closed_35_determinant(g: DiagonalAut) -> Poly:
    """det D(t) by the cycle-matching expansion.

    Nonzero permutations of a periodic tridiagonal matrix are matchings of
    the n-cycle plus the two full cycles.  Every matched edge contributes
    the same factor c_i t_i t^2 here, so with a = 1 + c_1t_1 t^2 and
    q = c_1 t_1:

        det = sum_j (-1)^j m(n,j) q^j t^{2j} a^{n-2j} - (C + T) t^n,

    m(n,j) the number of j-edge matchings of the cycle, C and T the scalar
    products.
    """
    n = g.n
    q = g.c[0] * g.t[0]
    a = Poly([1, 0, q])
    det = Poly()
    for j in range(n // 2 + 1):
        count = n * comb(n - j, j) // (n - j)
        term = a ** (n - 2 * j) * Poly.t_power(2 * j, q ** j * count)
        det = det + term if j % 2 == 0 else det - term
    corner = _prod_c(g, 1, n) + _prod_t(g, 1, n)
    return det - Poly.t_power(n, corner)


def vector_trace_closed_35(g: DiagonalAut) -> list[RatFun]:
    """Vector trace via the tridiagonal-with-corners matrix D(t).

    The solution of D(t) x = (1,...,1)^T is found from the explicit
    determinant and the power-series recurrence the system imposes; the
    resulting rational functions are certified by exact re-expansion.
    """
    n = g.n
    q = g.c[0] * g.t[0]
    det = closed_35_determinant(g)
    K = 2 * det.degree + 1
    # series for x: D = I + A1 t + A2 t^2 gives x_s = -A1 x_{s-1} - A2 x_{s-2}
    series = [[CycNum.one()] * n]
    for s in range(1, K + 1):
        prev = series[s - 1]
        layer = []
        for i in range(n):
            val = g.c[i] * prev[(i + 1) % n] + g.t[(i - 1) % n] * prev[(i - 1) % n]
            if s >= 2:
                val = val - q * series[s - 2][i]
            layer.append(val)
        series.append(layer)
    out = []
    for i in range(n):
        coeffs = [layer[i] for layer in series]
        prod = []
        for k in range(K + 1):
            acc = CycNum.zero()
            for j in range(min(k, det.degree) + 1):
                acc = acc + det.coeff(j) * coeffs[k - j]
            prod.append(acc)
        assert all(c.is_zero() for c in prod[det.degree + 1:]), (
            "determinant does not clear the series tail"
        )
        f = RatFun(Poly(prod[:det.degree + 1]), det)
        assert series_expand(f, K) == coeffs
        out.append(f)
    return out


def raw_denominator(g: DiagonalAut) -> Poly:
    """raw_q = (1 - c_1...c_n t^n)(1 - t_1...t_n t^n), unreduced."""
    n = g.n
    factor_c = Poly([1] + [0] * (n - 1) + [-_prod_c(g, 1, n)])
    return factor_c * Poly([1] + [0] * (n - 1) + [-_prod_t(g, 1, n)])


def total_trace_closed(g: DiagonalAut):
    """Explicit fraction (raw_p, raw_q, reduced) for the total trace.

    raw_p and raw_q are kept unreduced; they need not be coprime.
    """
    n = g.n
    coeffs = [CycNum.zero()] * (2 * n - 1)
    for k in range(n):
        for s in range(n):
            for ell in range(1, n + 1):
                term = _prod_t(g, n - k + ell, n + ell - 1) * _prod_c(g, n - s + ell, n + ell - 1)
                coeffs[k + s] = coeffs[k + s] + term
    raw_p = Poly(coeffs)
    raw_q = raw_denominator(g)
    return raw_p, raw_q, RatFun(raw_p, raw_q)


def eq2_quotient_traces(g: DiagonalAut, vector=None) -> list[RatFun]:
    """vector[i] - c_i t vector[i+1] for each i (should match b_vector)."""
    if vector is None:
        vector = vector_trace_closed_34(g)
    t = RatFun(Poly.t_power(1))
    n = g.n
    return [
        vector[i] - RatFun.constant(g.c[i]) * t * vector[(i + 1) % n]
        for i in range(n)
    ]


def _q_roots_unity(g: DiagonalAut) -> bool:
    """Do all roots of raw_q lie on the unit circle at roots of unity?

    Each factor 1 - x t^n splits into roots of unity exactly when x does;
    checked by exact division of 1 - t^{n*ord(x)} by the factor.
    """
    n = g.n
    for x in (_prod_c(g, 1, n), _prod_t(g, 1, n)):
        order = order_as_root_of_unity(x)
        if order is None:
            return False
        factor = Poly([1] + [0] * (n - 1) + [-x])
        big = Poly([1] + [0] * (n * order - 1) + [-1])
        if poly_div_exact(big, factor) is None:
            return False
    return True


@dataclass
class TraceReport:
    total: RatFun
    vector: list
    raw_p: Poly
    raw_q: Poly
    pole_order_one: int
    q_roots_unity: bool


def trace_report(g: DiagonalAut, D: int | None = None, skip_oracle: bool = False) -> TraceReport:
    """Run all trace computations and cross-check them against each other.

    Any disagreement between the methods is an internal bug, reported as an
    AssertionError rather than a user-facing condition.
    """
    n = g.n
    if D is None:
        D = 2 * n
    if D < 2 * n:
        raise ValueError("cross-check window must cover degree 2n = %d" % (2 * n))
    v34 = vector_trace_closed_34(g)
    v35 = vector_trace_closed_35(g)
    assert all(a == b for a, b in zip(v34, v35)), "closed-form trace methods disagree"
    raw_p, raw_q, total = total_trace_closed(g)
    vec_sum = sum(v34, RatFun.constant(0))
    assert vec_sum == total, "vector entries do not sum to the total trace"
    if not skip_oracle:
        oracle_vec, oracle_total = trace_oracle(g, D)
        for j in range(n):
            assert series_expand(v34[j], D) == oracle_vec[j], (
                "closed form disagrees with the oracle at vertex %d" % (j + 1)
            )
        assert series_expand(total, D) == oracle_total
    pole = pole_order_at_one(total)
    assert pole <= 2, "trace has a pole of order > 2 at t = 1"
    return TraceReport(
        total=total,
        vector=v34,
        raw_p=raw_p,
        raw_q=raw_q,
        pole_order_one=pole,
        q_roots_unity=_q_roots_unity(g),
    )


@dataclass
class FactorizationRecord:
    p_at_one: CycNum
    c_product_applies: bool
    t_product_applies: bool
    c_side: CycNum | None
    t_side: CycNum | None

    @property
    def passed(self) -> bool:
        checks = []
        if self.c_product_applies:
            checks.append(self.p_at_one == self.c_side)
        if self.t_product_applies:
            checks.append(self.p_at_one == self.t_side)
        return bool(checks) and all(checks)


def p_at_one_factorization(g: DiagonalAut) -> FactorizationRecord:
    """Check the n=3 factorization of raw_p at t=1.

    When c1 c2 c3 = 1 the value p(1) factors as
    (3 + e1(c) + e2(c)) * (1 + c1 t1 + (c1 t1)^2), and symmetrically in the
    t-scalars when t1 t2 t3 = 1.
    """
    if g.n != 3:
        raise ValueError("factorization check is specific to 3 vertices")
    c1, c2, c3 = g.c
    t1, t2, t3 = g.t
    c_ok = (c1 * c2 * c3).is_one()
    t_ok = (t1 * t2 * t3).is_one()
    if not (c_ok or t_ok):
        raise ValueError("requires c1*c2*c3 = 1 or t1*t2*t3 = 1")
    raw_p, _, _ = total_trace_closed(g)
    p1 = raw_p.evaluate(1)
    ct = c1 * t1
    spectral = 1 + ct + ct * ct
    c_side = (3 + c1 + c2 + c3 + c1 * c2 + c2 * c3 + c1 * c3) * spectral if c_ok else None
    t_side = (3 + t1 + t2 + t3 + t1 * t2 + t2 * t3 + t1 * t3) * spectral if t_ok else None
    return FactorizationRecord(
        p_at_one=p1,
        c_product_applies=c_ok,
        t_product_applies=t_ok,
        c_side=c_side,
        t_side=t_side,
    )
