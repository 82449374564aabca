"""Linear algebra over rational functions, kept as reference paths for tests.

The package needs none of these: its closed forms have explicit inverses
and determinants.  The tests compare those closed forms with generic
Gaussian elimination, fraction-free elimination and cofactor expansion.
"""

from preproj.ratfun import (
    Poly,
    RatFun,
    RatMatrix,
    SingularMatrixError,
    _poly,
    _rat,
    poly_div_exact,
)


def mat_solve(m: RatMatrix, b: list) -> list:
    """Solve m * x = b by fraction-field Gaussian elimination."""
    if m.rows != m.cols:
        raise ValueError("matrix must be square, got %dx%d" % (m.rows, m.cols))
    n = m.rows
    if len(b) != n:
        raise ValueError("right-hand side has length %d, expected %d" % (len(b), n))
    a = [[m.entries[i][j] for j in range(n)] + [_rat(b[i])] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col].inverse()
        a[col] = [e * inv for e in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def poly_mat_solve(rows: list, b: list) -> list:
    """Solve a polynomial linear system, returning RatFun solutions.

    Uses fraction-free (Bareiss) forward elimination — every division along
    the way is exact in the polynomial ring — and a single rational
    back-substitution at the end.  Much faster than eliminating in the
    fraction field when the entries are small polynomials.
    """
    n = len(rows)
    aug = [[_poly(e) for e in row] + [_poly(b[i])] for i, row in enumerate(rows)]
    prev = Poly.constant(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if not aug[r][k].is_zero()), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                num = aug[k][k] * aug[i][j] - aug[i][k] * aug[k][j]
                quo = poly_div_exact(num, prev)
                if quo is None:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                aug[i][j] = quo
            aug[i][k] = Poly()
        prev = aug[k][k]
    x: list = [None] * n
    for i in range(n - 1, -1, -1):
        acc = RatFun(aug[i][n])
        for j in range(i + 1, n):
            acc = acc - RatFun(aug[i][j]) * x[j]
        x[i] = acc / RatFun(aug[i][i])
    return x


def mat_determinant(m: RatMatrix) -> RatFun:
    """Determinant by cofactor expansion; cross-check path for small n."""
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    n = m.rows
    if n == 0:
        return RatFun.constant(1)
    if n == 1:
        return m.entries[0][0]
    det = RatFun.constant(0)
    for j in range(n):
        if m.entries[0][j].is_zero():
            continue
        minor = RatMatrix(
            [[m.entries[i][k] for k in range(n) if k != j] for i in range(1, n)]
        )
        term = m.entries[0][j] * mat_determinant(minor)
        det = det + (term if j % 2 == 0 else -term)
    return det


def mat_inverse_adjugate(m: RatMatrix) -> RatMatrix:
    """Cramer-style inverse; intended as a cross-check for n <= 4."""
    n = m.rows
    det = mat_determinant(m)
    if det.is_zero():
        raise SingularMatrixError("matrix is singular")
    inv_det = det.inverse()
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = RatMatrix(
                [
                    [m.entries[r][c] for c in range(n) if c != i]
                    for r in range(n)
                    if r != j
                ]
            )
            cof = mat_determinant(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            row.append(cof * inv_det)
        out.append(row)
    return RatMatrix(out)
