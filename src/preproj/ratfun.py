"""Polynomials, normalized rational functions and exact linear algebra in t.

Coefficients are cyclotomic numbers (:class:`preproj.cyclotomic.CycNum`).
A rational function is kept with coprime numerator and denominator; the
denominator is anchored at den(0) = 1 whenever possible (matching printed
forms such as (3+t+t^2)/(1-t^3)^2) and made monic otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycNum


class SingularMatrixError(ArithmeticError):
    """Attempt to invert / solve with a singular matrix."""


class NotAPowerSeriesError(ArithmeticError):
    """Series expansion at 0 requested for a function with a pole at 0."""


def _cyc(c) -> CycNum:
    if isinstance(c, CycNum):
        return c
    return CycNum.from_rational(Fraction(c))


class Poly:
    """Dense univariate polynomial in t over the cyclotomic numbers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [_cyc(c) for c in coeffs]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([_cyc(c)])

    @staticmethod
    def t_power(k: int, c=1) -> "Poly":
        return Poly([0] * k + [c])

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> CycNum:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return CycNum.zero()

    def __add__(self, other):
        other = _poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_poly(other))

    def __rsub__(self, other):
        return _poly(other) + (-self)

    def __mul__(self, other):
        other = _poly(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [CycNum.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if not x.is_zero():
                for j, y in enumerate(other.coeffs):
                    if not y.is_zero():
                        out[i + j] = out[i + j] + x * y
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        result = Poly.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, c) -> "Poly":
        c = _cyc(c)
        return Poly([x * c for x in self.coeffs])

    def divmod(self, other: "Poly"):
        other = _poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quo = [CycNum.zero()] * (dq + 1)
        inv_lead = other.coeffs[-1].inverse()
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] * inv_lead
            quo[i] = c
            if not c.is_zero():
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * b
        return Poly(quo), Poly(rem)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.coeffs[-1].inverse())

    def evaluate(self, x) -> CycNum:
        x = _cyc(x)
        acc = CycNum.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        other = _poly(other)
        return self.coeffs == other.coeffs

    def __repr__(self):
        from .parsing import format_poly
        return "Poly(%r)" % format_poly(self)

    def __str__(self):
        from .parsing import format_poly
        return format_poly(self)


def _poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction, CycNum)):
        return Poly.constant(x)
    raise TypeError("cannot interpret %r as a polynomial" % (x,))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    q, r = (a * b).divmod(poly_gcd(a, b))
    if not r.is_zero():
        raise ArithmeticError("gcd does not divide the product")
    return q.monic()


def poly_lcm_all(polys) -> Poly:
    """Monic lcm of the polynomials.

    A polynomial that already divides the running lcm costs one exact
    division and no gcd.
    """
    q = Poly.constant(1)
    for p in polys:
        if poly_div_exact(q, p) is None:
            q = poly_lcm(q, p)
    return q


def poly_div_exact(a: Poly, b: Poly):
    """Quotient q with a = q*b, or None if b does not divide a."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    q, r = a.divmod(b)
    return q if r.is_zero() else None


class RatFun:
    """Normalized ratio of two polynomials in t."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _poly(num)
        den = _poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly.constant(1)
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = poly_div_exact(num, g)
            den = poly_div_exact(den, g)
        d0 = den.coeff(0)
        if not d0.is_zero():
            inv = d0.inverse()
            num, den = num.scale(inv), den.scale(inv)
        else:
            inv = den.coeffs[-1].inverse()
            num, den = num.scale(inv), den.scale(inv)
        self.num, self.den = num, den

    @staticmethod
    def constant(c) -> "RatFun":
        return RatFun(Poly.constant(c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_polynomial(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError("not a polynomial: %s" % self)
        return self.num.scale(self.den.coeff(0).inverse())

    def __add__(self, other):
        other = _rat(other)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RatFun)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        return self + (-_rat(other))

    def __rsub__(self, other):
        return _rat(other) + (-self)

    def __mul__(self, other):
        other = _rat(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFun":
        if self.is_zero():
            raise ZeroDivisionError("cannot invert the zero rational function")
        return RatFun(self.den, self.num)

    def __truediv__(self, other):
        return self * _rat(other).inverse()

    def __rtruediv__(self, other):
        return _rat(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = RatFun.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = _rat(other)
        return self.num == other.num and self.den == other.den

    def __bool__(self):
        return not self.is_zero()

    def series(self, trunc: int) -> list[CycNum]:
        """Taylor coefficients at 0 through degree ``trunc`` (inclusive)."""
        return series_expand(self, trunc)

    def __repr__(self):
        from .parsing import format_ratfun
        return "RatFun(%r)" % format_ratfun(self)

    def __str__(self):
        from .parsing import format_ratfun
        return format_ratfun(self)


def _rat(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    return RatFun(_poly(x))


def series_expand(f: RatFun, trunc: int) -> list[CycNum]:
    """Exact power-series coefficients of f at 0 through degree ``trunc``."""
    if trunc < 0:
        raise ValueError("truncation degree must be nonnegative")
    num, den = f.num, f.den
    b0 = den.coeff(0)
    if b0.is_zero():
        raise NotAPowerSeriesError("denominator vanishes at 0")
    inv_b0 = b0.inverse()
    out = []
    for k in range(trunc + 1):
        acc = num.coeff(k)
        for j in range(1, min(k, den.degree) + 1):
            bj = den.coeff(j)
            if not bj.is_zero():
                acc = acc - bj * out[k - j]
        out.append(acc * inv_b0)
    return out


def pole_order_at_one(f: RatFun) -> int:
    """Multiplicity of (1-t) in the reduced denominator."""
    one = Poly([1, -1])  # 1 - t
    den = f.den
    order = 0
    while not den.is_zero():
        q, r = den.divmod(one)
        if not r.is_zero():
            break
        den = q
        order += 1
    return order


@dataclass
class RatMatrix:
    """Rectangular matrix of normalized rational functions."""

    entries: list

    def __post_init__(self):
        self.entries = [[_rat(e) for e in row] for row in self.entries]
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(
            [[RatFun.constant(1 if i == j else 0) for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch: %dx%d times %dx%d"
                                 % (self.rows, self.cols, other.rows, other.cols))
            return RatMatrix(
                [
                    [
                        sum(
                            (self.entries[i][k] * other.entries[k][j] for k in range(self.cols)),
                            RatFun.constant(0),
                        )
                        for j in range(other.cols)
                    ]
                    for i in range(self.rows)
                ]
            )
        return RatMatrix([[e * other for e in row] for row in self.entries])

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def row_sums(self) -> list[RatFun]:
        return [sum(row, RatFun.constant(0)) for row in self.entries]

    def col_sums(self) -> list[RatFun]:
        return [
            sum((self.entries[i][j] for i in range(self.rows)), RatFun.constant(0))
            for j in range(self.cols)
        ]


def mat_inverse(m: RatMatrix) -> RatMatrix:
    """Inverse by Gaussian elimination with first-nonzero pivoting."""
    if m.rows != m.cols:
        raise ValueError("matrix must be square, got %dx%d" % (m.rows, m.cols))
    n = m.rows
    a = [
        [m.entries[i][j] for j in range(n)]
        + [RatFun.constant(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
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
    return RatMatrix([row[n:] for row in a])
