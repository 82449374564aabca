"""Hilbert series of the preprojective algebra and group-averaged versions.

Averaging the trace functions of a finite automorphism group gives the
Hilbert series of the fixed ring, in scalar, per-vertex (vector) and
per-vertex-pair (matrix) refinements.  The matrix refinement is a closed
form too: the total-trace numerator of each group element split by the end
vertex of each path, over the same denominator raw_q.  It is certified
against the exact path-sum series through a degree window.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CycNum
from .ratfun import (
    Poly,
    RatFun,
    RatMatrix,
    mat_inverse,
    poly_div_exact,
    poly_lcm_all,
    series_expand,
    sums_to,
)
from .quiver import AutGroup, DiagonalAut
from .trace import eigenvalue_table, raw_denominator, total_trace_closed, vector_trace_closed_34


def hilbert_A(n: int) -> RatFun:
    """n/(1-t)^2 — the preprojective algebra on the n-cycle."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    return RatFun(Poly.constant(n), Poly([1, -1]) ** 2)


def hilbert_eA(n: int) -> RatFun:
    """1/(1-t)^2 — one vertex component; the dimensions are 1, 2, 3, ..."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    return RatFun(Poly.constant(1), Poly([1, -1]) ** 2)


def matrix_hilbert_A(n: int) -> RatMatrix:
    """(I - Ct + It^2)^{-1} with C the double-quiver adjacency matrix."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    t = RatFun(Poly.t_power(1))
    t2 = RatFun(Poly.t_power(2))
    rows = []
    for i in range(n):
        row = [RatFun.constant(0)] * n
        row[i] = RatFun.constant(1) + t2
        row[(i + 1) % n] = row[(i + 1) % n] - t
        row[(i - 1) % n] = row[(i - 1) % n] - t
        rows.append(row)
    return mat_inverse(RatMatrix(rows))


def _mean(nums: list, q: Poly) -> RatFun:
    """The mean of the fractions num/q, normalised once.

    Summing over one denominator without reducing avoids a gcd of growing
    degree at every step of the sum.
    """
    return RatFun(sum(nums, Poly()).scale(CycNum.from_rational(1) / len(nums)), q)


def _average(fracs: list) -> RatFun:
    """The mean of the rational functions, over the lcm of their denominators."""
    q = poly_lcm_all(f.den for f in fracs)
    return _mean([f.num * poly_div_exact(q, f.den) for f in fracs], q)


def molien_scalar(G: AutGroup) -> RatFun:
    """Hilbert series of the fixed ring: the average of the total traces."""
    return _average([total_trace_closed(g)[2] for g in G])


def molien_vector(G: AutGroup) -> list[RatFun]:
    """Per-vertex Hilbert series of the fixed ring."""
    traces = [vector_trace_closed_34(g) for g in G]
    return [_average([v[i] for v in traces]) for i in range(G.n)]


def _matrix_series(G: AutGroup, D: int) -> list:
    """coeffs[i][j][s] = dim (e_{i+1} A^G e_{j+1})_s, exactly, by path sums."""
    n = G.n
    inv = CycNum.from_rational(1) / len(G)
    coeffs = [[[CycNum.zero() for _ in range(D + 1)] for _ in range(n)] for _ in range(n)]
    for g in G:
        table = eigenvalue_table(g, D)
        for i in range(1, n + 1):
            for s in range(D + 1):
                for m in range(s + 1):
                    k = s - m
                    j = (i - 1 + m - k) % n + 1
                    cell = coeffs[i - 1][j - 1]
                    cell[s] = cell[s] + table[(i, m, k)]
    for i in range(n):
        for j in range(n):
            coeffs[i][j] = [x * inv for x in coeffs[i][j]]
    return coeffs


def _end_vertex_numerators(g: DiagonalAut) -> list:
    """P[i][j] with Tr(g | e_{i+1} A e_{j+1}) = P[i][j] / raw_q, exactly.

    A normal-form path a^m b^k with m = a + n*alpha, k = b + n*beta and
    0 <= a, b < n has eigenvalue table[(i, a, b)] * C^alpha * T^beta, and
    its end vertex depends only on a - b mod n; summing the two geometric
    series gives the denominator raw_q = (1 - C t^n)(1 - T t^n).
    """
    n = g.n
    table = eigenvalue_table(g, 2 * n - 2)
    coeffs = [[[CycNum.zero()] * (2 * n - 1) for _ in range(n)] for _ in range(n)]
    for i in range(1, n + 1):
        for a in range(n):
            for b in range(n):
                cell = coeffs[i - 1][(i - 1 + a - b) % n]
                cell[a + b] = cell[a + b] + table[(i, a, b)]
    return [[Poly(c) for c in row] for row in coeffs]


@dataclass
class MatrixReconstruction:
    # ``status`` is always "ok".  It and the class name are kept for their
    # readers: perfbench/tracer.py reads ``status``, perfbench/checks.py reads
    # the CLI's ``matrix_status`` and acceptance criterion 4 reads ``rec.status``.
    matrix: RatMatrix
    status: str


def molien_matrix(G: AutGroup, D: int | None = None) -> MatrixReconstruction:
    """Per-vertex-pair Hilbert series of the fixed ring, in closed form.

    H(i, j) is the group average of P^g_ij / raw_q(g), summed over the
    common denominator lcm(raw_q) and normalised once per entry.  Every
    entry is certified against the path-sum series through degree D
    (default and minimum 4n).
    """
    n = G.n
    if D is None:
        D = 4 * n
    if D < 4 * n:
        raise ValueError("truncation %d too small; need at least 4n = %d" % (D, 4 * n))
    raws = [raw_denominator(g) for g in G]
    q = poly_lcm_all(raws)
    nums = []
    for g, raw_q in zip(G, raws):
        cofactor = poly_div_exact(q, raw_q)
        nums.append([[p * cofactor for p in row] for row in _end_vertex_numerators(g)])
    entries = [[_mean([P[i][j] for P in nums], q) for j in range(n)] for i in range(n)]
    series = _matrix_series(G, D)
    for i in range(n):
        for j in range(n):
            if series_expand(entries[i][j], D) != series[i][j]:
                raise ArithmeticError(
                    "matrix entry (%d, %d) disagrees with the path-sum series "
                    "through degree %d" % (i + 1, j + 1, D)
                )
    return MatrixReconstruction(RatMatrix(entries), "ok")


@dataclass
class MolienReport:
    scalar: RatFun
    vector: list
    matrix: MatrixReconstruction


def molien_report(G: AutGroup, D: int | None = None) -> MolienReport:
    """Scalar, vector and matrix series with internal consistency checks."""
    scalar = molien_scalar(G)
    vector = molien_vector(G)
    if not sums_to(vector, scalar):
        raise ArithmeticError("vector series do not sum to the scalar series")
    matrix = molien_matrix(G, D)
    if not all(sums_to(row, v) for row, v in zip(matrix.matrix.entries, vector)):
        raise ArithmeticError("matrix row sums disagree with the vector series")
    return MolienReport(scalar=scalar, vector=vector, matrix=matrix)
