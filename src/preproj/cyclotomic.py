"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value stores integer coordinates ``nums`` on the power basis
{zeta_N^k : 0 <= k < phi(N)} and one positive denominator ``den``, in
lowest terms (gcd(den, *nums) == 1), so two equal values at one conductor
have equal fields.  Products are reduced modulo the N-th cyclotomic
polynomial, which is monic with integer coefficients, so integer vectors
stay integral and no rational arithmetic is needed outside ``inverse``.

The conductor of a value is whatever it was constructed with; a result has
the lcm of its operands' conductors, and equality unifies conductors (lifts
to the lcm) before comparing, so a value never has to be recognized as
living in a subfield.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, neg, sub


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
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    # (x^n - 1) / prod_{d | n, d < n} Phi_d, by exact division.
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def _reduction_rule(n: int):
    """(deg Phi_n, the nonzero (j, r_j) with zeta_n^deg = sum_j r_j zeta_n^j)."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    return deg, tuple((j, -c) for j, c in enumerate(phi[:deg]) if c)


def _polydiv_exact(a: list, b: list) -> list:
    # Exact division by a monic polynomial; integer input gives integer output.
    if b[-1] != 1:
        raise ValueError("divisor must be monic")
    a = a[:]
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    if any(a[:len(b) - 1]):
        raise ArithmeticError("polynomial division leaves a nonzero remainder")
    return q


def _reduce_mod_cyclotomic(coeffs: list, n: int) -> tuple:
    """Power-basis coordinates of sum_k coeffs[k] zeta_n^k."""
    deg, rule = _reduction_rule(n)
    if len(coeffs) <= deg:
        return tuple(coeffs) + (0,) * (deg - len(coeffs))
    coeffs = coeffs[:]
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            base = i - deg
            for j, r in rule:
                coeffs[base + j] += c * r
    return tuple(coeffs[:deg])


def _make(conductor: int, nums: tuple, den: int) -> "CycNum":
    """A value from coordinates already in lowest terms; no checks."""
    x = object.__new__(CycNum)
    x.conductor = conductor
    x.nums = nums
    x.den = den
    return x


def _lowest(conductor: int, nums: tuple, den: int) -> "CycNum":
    """The value nums/den (den > 0), divided through by gcd(den, *nums)."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple([x // g for x in nums])
            den //= g
    return _make(conductor, nums, den)


class CycNum:
    """An exact element of Q(zeta_N) on the power basis of zeta_N."""

    __slots__ = ("conductor", "nums", "den")

    def __init__(self, conductor: int, coeffs):
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if len(coeffs) != _phi(conductor):
            raise ValueError(
                "need %d coordinates for conductor %d, got %d"
                % (_phi(conductor), conductor, len(coeffs))
            )
        # With every coordinate in lowest terms, the lcm of their
        # denominators leaves gcd(den, *nums) == 1.
        den = math.lcm(*(c.denominator for c in coeffs))
        self.conductor = conductor
        self.nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions.

        Nothing in the package reads this; it stays for outside readers
        such as the benchmark's coefficient-size counter.
        """
        return tuple(Fraction(x, self.den) for x in self.nums)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycNum":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @staticmethod
    def zero() -> "CycNum":
        return _make(1, (0,), 1)

    @staticmethod
    def one() -> "CycNum":
        return _make(1, (1,), 1)

    # -- conductor handling ---------------------------------------------

    def lift(self, m: int) -> "CycNum":
        """Rewrite over Q(zeta_m) where conductor | m."""
        if m == self.conductor:
            return self
        if m % self.conductor != 0:
            raise ValueError("cannot lift conductor %d to %d" % (self.conductor, m))
        nums = self.nums
        step = m // self.conductor
        raw = [0] * ((len(nums) - 1) * step + 1)
        raw[::step] = nums
        # The power basis is an integral basis of Z[zeta_m], so lifting
        # keeps the coordinates in lowest terms.
        return _make(m, _reduce_mod_cyclotomic(raw, m), self.den)

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

    def _combine(self, other, op):
        """self op other for op in (add, sub)."""
        if not isinstance(other, CycNum):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.conductor == other.conductor:
            a, b, m = self, other, self.conductor
        else:
            a, b, m = self._unified(other)
        da, db = a.den, b.den
        if da == db:
            nums = tuple(map(op, a.nums, b.nums))
            return _lowest(m, nums, da)
        g = math.gcd(da, db)
        ka, kb = db // g, da // g
        nums = tuple([op(x * ka, y * kb) for x, y in zip(a.nums, b.nums)])
        return _lowest(m, nums, da * ka)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, tuple(map(neg, self.nums)), self.den)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, p: int, q: int) -> "CycNum":
        """self * p/q for a rational p/q in lowest terms, q > 0."""
        if p == q:
            return self
        if not p:
            return _make(self.conductor, (0,) * len(self.nums), 1)
        return _lowest(self.conductor, tuple([x * p for x in self.nums]), self.den * q)

    def __mul__(self, other):
        if not isinstance(other, CycNum):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if other.conductor == 1:
            return self._scaled(other.nums[0], other.den)
        if self.conductor == 1:
            return other._scaled(self.nums[0], self.den)
        if self.conductor == other.conductor:
            a, b, m = self, other, self.conductor
        else:
            a, b, m = self._unified(other)
        bn = b.nums
        raw = [0] * (len(a.nums) + len(bn) - 1)
        for i, x in enumerate(a.nums):
            if x:
                for j, y in enumerate(bn):
                    if y:
                        raw[i + j] += x * y
        return _lowest(m, _reduce_mod_cyclotomic(raw, m), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise CycDivisionError("cannot invert zero")
        if len(self.nums) == 1:
            p, q = self.nums[0], self.den
            return _make(self.conductor, (-q,), -p) if p < 0 else _make(self.conductor, (q,), p)
        # Extended Euclid against Phi_N over Q, on the integer coordinates.
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        r0, r1 = phi, [Fraction(x) for x in self.nums]
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c for c in r1):
            q, r = _polydivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        # r0 = gcd, a nonzero constant since Phi_N is irreducible, and
        # s0 * nums = r0 mod Phi_N, so 1 / (nums/den) = s0 * den / r0.
        lead = next(c for c in reversed(r0) if c)
        if any(c != 0 for c in r0[1:]) or r0[0] != lead:
            raise ArithmeticError("gcd with Phi_%d is not a constant" % self.conductor)
        inv = [c * self.den / lead for c in s0]
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
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number: %s" % self)
        return Fraction(self.nums[0], self.den)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == other.conductor:
            a, b = self, other
        else:
            a, b, _ = self._unified(other)
        return a.den == b.den and a.nums == b.nums

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
    raw = [0] * (k + 1)
    raw[k] = 1
    return _make(m, _reduce_mod_cyclotomic(raw, m), 1)


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

def _fmt_ratio(p: int, q: int) -> str:
    # Render p/q, for p >= 0 and q > 0, in lowest terms.
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if q == 1:
        return str(p)
    return "%d/%d" % (p, q)


def format_scalar(a: CycNum) -> str:
    """Render on the power basis in the scalar grammar, e.g. '1/2 - zeta(3)^2'."""
    den = a.den
    parts = []
    for k, x in enumerate(a.nums):
        if x == 0:
            continue
        if k == 0:
            body = _fmt_ratio(abs(x), den)
        else:
            zeta = "zeta(%d)" % a.conductor if k == 1 else "zeta(%d)^%d" % (a.conductor, k)
            body = zeta if abs(x) == den else "%s*%s" % (_fmt_ratio(abs(x), den), zeta)
        sign = "-" if x < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out
