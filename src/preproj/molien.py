"""Hilbert series of the preprojective algebra and group-averaged versions.

Averaging the trace functions of a finite automorphism group gives the
Hilbert series of the fixed ring, in scalar, per-vertex (vector) and
per-vertex-pair (matrix) refinements.  Every trace of g is an explicit
numerator over raw_q(g) = (1 - C t^n)(1 - T t^n): raw_p for the total, the
closed-form 3.4 numerators for the vertices, and the total-trace numerator
split by the end vertex of each path for the vertex pairs.  All three
averages go through _average: one denominator lcm(raw_q) per group, the
numerators summed over it unreduced, each mean normalised once.

molien_report builds all three numerator sets in one pass and checks them
per element, as polynomial identities over raw_q(g): the vertex numerators
sum to raw_p, and each row of the vertex-pair numerators sums to its vertex
numerator.  The matrix is certified against the exact path-sum series
through a degree window.  Every failed check raises ArithmeticError.
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
)
from .quiver import AutGroup, DiagonalAut
from .trace import closed_34_numerators, eigenvalue_table, raw_denominator, raw_numerator


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


def _average(G: AutGroup, numerators) -> list[RatFun]:
    """The group means of numerators(g)[k] / raw_q(g), one for each k.

    The numerators are scaled to the one denominator q = lcm(raw_q) and
    summed without reducing, so the only gcds are those building q and one
    per mean, to normalise it.
    """
    raws = [raw_denominator(g) for g in G]
    q = poly_lcm_all(raws)
    rows = []
    for g, raw_q in zip(G, raws):
        cofactor = poly_div_exact(q, raw_q)
        rows.append([p * cofactor for p in numerators(g)])
    inv = CycNum.from_rational(1) / len(G)
    return [RatFun(sum(col, Poly()).scale(inv), q) for col in zip(*rows)]


def molien_scalar(G: AutGroup) -> RatFun:
    """Hilbert series of the fixed ring: the average of the total traces."""
    return _average(G, lambda g: [raw_numerator(g)])[0]


def molien_vector(G: AutGroup) -> list[RatFun]:
    """Per-vertex Hilbert series of the fixed ring."""
    return _average(G, closed_34_numerators)


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


def _window(n: int, D: int | None) -> int:
    """The degree window of the matrix certificate: default and minimum 4n."""
    if D is None:
        return 4 * n
    if D < 4 * n:
        raise ValueError("truncation %d too small; need at least 4n = %d" % (D, 4 * n))
    return D


def _certified_matrix(G: AutGroup, entries: list, D: int) -> MatrixReconstruction:
    """The n x n matrix of the row-major entries, checked through degree D."""
    n = G.n
    rows = [entries[i * n:(i + 1) * n] for i in range(n)]
    series = _matrix_series(G, D)
    for i in range(n):
        for j in range(n):
            if series_expand(rows[i][j], D) != series[i][j]:
                raise ArithmeticError(
                    "matrix entry (%d, %d) disagrees with the path-sum series "
                    "through degree %d" % (i + 1, j + 1, D)
                )
    return MatrixReconstruction(RatMatrix(rows), "ok")


def molien_matrix(G: AutGroup, D: int | None = None) -> MatrixReconstruction:
    """Per-vertex-pair Hilbert series of the fixed ring, in closed form.

    H(i, j) is the group average of P^g_ij / raw_q(g), over lcm(raw_q).
    Every entry is certified against the path-sum series through degree D
    (default and minimum 4n).
    """
    D = _window(G.n, D)
    entries = _average(G, lambda g: [p for row in _end_vertex_numerators(g) for p in row])
    return _certified_matrix(G, entries, D)


@dataclass
class MolienReport:
    scalar: RatFun
    vector: list
    matrix: MatrixReconstruction


def molien_report(G: AutGroup, D: int | None = None) -> MolienReport:
    """Scalar, vector and matrix series with internal consistency checks.

    The numerators of each element are checked before they are averaged:
    sum(p34) == raw_p, and row i of the end-vertex numerators sums to p34[i].
    """
    n = G.n
    D = _window(n, D)

    def numerators(g: DiagonalAut) -> list:
        raw_p = raw_numerator(g)
        p34 = closed_34_numerators(g)
        P = _end_vertex_numerators(g)
        if sum(p34, Poly()) != raw_p:
            raise ArithmeticError("vector series do not sum to the scalar series")
        if any(sum(row, Poly()) != p for row, p in zip(P, p34)):
            raise ArithmeticError("matrix row sums disagree with the vector series")
        return [raw_p] + p34 + [p for row in P for p in row]

    means = _average(G, numerators)
    return MolienReport(scalar=means[0], vector=means[1:n + 1],
                        matrix=_certified_matrix(G, means[n + 1:], D))
