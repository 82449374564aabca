from fractions import Fraction
from math import gcd

import pytest

from preproj.cyclotomic import (
    CycDivisionError,
    CycNum,
    _polydiv_exact,
    cyclotomic_polynomial,
    format_scalar,
    order_as_root_of_unity,
    root_of_unity,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_polydiv_exact_rejects_a_remainder():
    one = Fraction(1)
    with pytest.raises(ArithmeticError):
        _polydiv_exact([one, 0 * one, one], [-one, one])  # (x^2 + 1) / (x - 1)
    assert _polydiv_exact([-one, 0 * one, one], [-one, one]) == [one, one]


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_up_to_60():
    # Phi_n is the monic integer polynomial of degree phi(n) with
    # prod_{d | n} Phi_d = x^n - 1; that fixes every Phi_n in turn.
    cyclotomic_polynomial.cache_clear()
    for n in range(1, 61):
        phi = cyclotomic_polynomial(n)
        assert len(phi) - 1 == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert all(c.denominator == 1 for c in phi)
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _polymul(prod, list(cyclotomic_polynomial(d)))
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_primitive_root_relations():
    z3 = root_of_unity(3)
    assert (z3 ** 3).is_one()
    assert (1 + z3 + z3 ** 2).is_zero()
    z5 = root_of_unity(5)
    assert (sum((z5 ** k for k in range(1, 5)), CycNum.one())).is_zero()


def test_arithmetic_across_conductors():
    z3 = root_of_unity(3)
    z4 = root_of_unity(4)
    x = z3 + z4
    assert x.conductor == 12
    assert x - z4 == z3
    assert (z3 * z4) ** 12 == CycNum.one()
    # zeta(6) = -zeta(3)^2 inside Q(zeta(3))
    assert root_of_unity(6) == -(z3 ** 2)


def test_inverse_and_division():
    z3 = root_of_unity(3)
    a = 2 * z3 + Fraction(1, 2)
    assert (a * a.inverse()).is_one()
    assert (a / a).is_one()
    with pytest.raises(CycDivisionError):
        CycNum.zero().inverse()


def test_rational_detection():
    z3 = root_of_unity(3)
    val = z3 + z3 ** 2  # equals -1
    assert val.is_rational()
    assert val.as_rational() == -1
    assert not z3.is_rational()


def test_order_as_root_of_unity():
    assert order_as_root_of_unity(CycNum.one()) == 1
    assert order_as_root_of_unity(CycNum.from_rational(-1)) == 2
    assert order_as_root_of_unity(root_of_unity(3)) == 3
    assert order_as_root_of_unity(-root_of_unity(3)) == 6
    assert order_as_root_of_unity(root_of_unity(12, 5)) == 12
    assert order_as_root_of_unity(CycNum.from_rational(2)) is None
    # 1 + zeta(3) is a primitive 6th root of unity
    assert order_as_root_of_unity(1 + root_of_unity(3)) == 6
    # modulus 1 but not a root of unity: (3+4i)/5
    almost = (3 + 4 * root_of_unity(4)) / 5
    assert order_as_root_of_unity(almost) is None
    # roots of unity stored at a conductor larger than their own
    z3_at_12 = root_of_unity(3).lift(12)
    assert z3_at_12.conductor == 12
    assert order_as_root_of_unity(z3_at_12) == 3
    minus_one_at_8 = CycNum.from_rational(-1).lift(8)
    assert minus_one_at_8.conductor == 8
    assert order_as_root_of_unity(minus_one_at_8) == 2


def test_negative_powers():
    z5 = root_of_unity(5)
    assert z5 ** -1 == z5 ** 4
    assert z5 ** -7 == z5 ** 3


def test_format_scalar():
    z3 = root_of_unity(3)
    assert format_scalar(CycNum.zero()) == "0"
    assert format_scalar(CycNum.from_rational(Fraction(-3, 2))) == "-3/2"
    assert format_scalar(z3 - z3 ** 2) == "1+2*zeta(3)"
    assert format_scalar(-z3) == "-zeta(3)"
