"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored on the power basis {zeta_N^k : 0 <= k < phi(N)} with
arbitrary-precision rational coordinates, reduced modulo the N-th cyclotomic
polynomial.  The conductor of a value is whatever it was constructed with;
equality always unifies conductors (lift to the lcm) before comparing, so a
value never has to be recognized as living in a subfield.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


class CycDivisionError(ZeroDivisionError):
    """Division by the zero element of a cyclotomic field."""


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            count += 1
    return count


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (Fraction(-1), Fraction(1))
    # (x^n - 1) / prod_{d | n, d < n} Phi_d, by exact division.
    num = [Fraction(0)] * (n + 1)
    num[0] = Fraction(-1)
    num[n] = Fraction(1)
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _polydiv_exact(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    # Exact division of polynomials with Fraction coefficients; b monic-led.
    a = a[:]
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    if any(a[:len(b) - 1]):
        raise ArithmeticError("polynomial division leaves a nonzero remainder")
    return q


def _reduce_mod_cyclotomic(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    coeffs = coeffs[:]
    if len(coeffs) < deg:
        coeffs += [Fraction(0)] * (deg - len(coeffs))
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(deg + 1):
                coeffs[i - deg + j] -= c * phi[j]
        coeffs[i] = Fraction(0)
    return tuple(coeffs[:deg])


class CycNum:
    """An exact element of Q(zeta_N) on the power basis of zeta_N."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != _phi(conductor):
            raise ValueError(
                "need %d coordinates for conductor %d, got %d"
                % (_phi(conductor), conductor, len(coeffs))
            )
        self.conductor = conductor
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycNum":
        return CycNum(1, (Fraction(q),))

    @staticmethod
    def zero() -> "CycNum":
        return CycNum.from_rational(0)

    @staticmethod
    def one() -> "CycNum":
        return CycNum.from_rational(1)

    # -- conductor handling ---------------------------------------------

    def lift(self, m: int) -> "CycNum":
        """Rewrite over Q(zeta_m) where conductor | m."""
        if m == self.conductor:
            return self
        if m % self.conductor != 0:
            raise ValueError("cannot lift conductor %d to %d" % (self.conductor, m))
        step = m // self.conductor
        raw = [Fraction(0)] * (len(self.coeffs) * step + 1)
        for k, c in enumerate(self.coeffs):
            raw[k * step] += c
        return CycNum(m, _reduce_mod_cyclotomic(raw, m))

    def _unified(self, other: "CycNum"):
        m = self.conductor * other.conductor // math.gcd(self.conductor, other.conductor)
        return self.lift(m), other.lift(m), m

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, m = self._unified(other)
        return CycNum(m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.conductor, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.conductor == 1:
            q = other.coeffs[0]
            return CycNum(self.conductor, tuple(x * q for x in self.coeffs))
        if self.conductor == 1:
            q = self.coeffs[0]
            return CycNum(other.conductor, tuple(x * q for x in other.coeffs))
        a, b, m = self._unified(other)
        raw = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        raw[i + j] += x * y
        return CycNum(m, _reduce_mod_cyclotomic(raw, m))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise CycDivisionError("cannot invert zero")
        if self.conductor == 1:
            return CycNum(1, (1 / self.coeffs[0],))
        # Extended Euclid against Phi_N over Q.
        phi = list(cyclotomic_polynomial(self.conductor))
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c for c in r1):
            q, r = _polydivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        # r0 = gcd (a nonzero constant since Phi_N is irreducible), s0*a = r0 mod Phi.
        lead = next(c for c in reversed(r0) if c)
        if any(c != 0 for c in r0[1:]) or r0[0] != lead:
            raise ArithmeticError("gcd with Phi_%d is not a constant" % self.conductor)
        inv = [c / lead for c in s0]
        return CycNum(self.conductor, _reduce_mod_cyclotomic(inv, self.conductor))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = CycNum.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self == CycNum.one()

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number: %s" % self)
        return self.coeffs[0]

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        a, b, _ = self._unified(other)
        return a.coeffs == b.coeffs

    def __bool__(self):
        return not self.is_zero()

    # -- misc --------------------------------------------------------------

    def __repr__(self):
        return "CycNum(%r)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


def _polydivmod(a, b):
    bd = max((i for i, c in enumerate(b) if c), default=-1)
    a = a[:]
    q = [Fraction(0)] * max(len(a) - bd, 1)
    inv = 1 / b[bd]
    for i in range(len(a) - 1, bd - 1, -1):
        c = a[i] * inv
        if c:
            q[i - bd] = c
            for j in range(bd + 1):
                a[i - bd + j] -= c * b[j]
    return q, a


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _polysub(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def root_of_unity(m: int, k: int = 1) -> CycNum:
    """zeta_m^k in canonical form."""
    if m < 1:
        raise ValueError("order must be a positive integer")
    k %= m
    if k == 0:
        return CycNum.one()
    raw = [Fraction(0)] * (k + 1)
    raw[k] = Fraction(1)
    return CycNum(m, _reduce_mod_cyclotomic(raw, m))


def order_as_root_of_unity(a: CycNum):
    """Smallest m with a^m = 1, or None if a is not a root of unity.

    The roots of unity in Q(zeta_N) are the +-zeta_N^k, whose orders divide
    2N, so the order is the smallest divisor d of 2N with a^d = 1, if any.
    """
    if a.is_zero():
        raise CycDivisionError("zero is not a root of unity")
    bound = 2 * a.conductor
    for d in range(1, bound + 1):
        if bound % d == 0 and (a ** d).is_one():
            return d
    return None


# -- printing -------------------------------------------------------------

def _fmt_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def format_scalar(a: CycNum) -> str:
    """Render on the power basis in the scalar grammar, e.g. '1/2 - zeta(3)^2'."""
    parts = []
    for k, c in enumerate(a.coeffs):
        if c == 0:
            continue
        if k == 0:
            body = _fmt_fraction(abs(c))
        else:
            zeta = "zeta(%d)" % a.conductor if k == 1 else "zeta(%d)^%d" % (a.conductor, k)
            body = zeta if abs(c) == 1 else "%s*%s" % (_fmt_fraction(abs(c)), zeta)
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out
