from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from preproj import cyclotomic
from preproj.cyclotomic import (
    CycDivisionError,
    CycNum,
    _polydiv_exact,
    _polymul as _frac_polymul,
    _reduce_mod_cyclotomic,
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


# -- the integer representation against the Fraction formulas ---------------

CONDUCTORS = (1, 3, 4, 5, 8, 12, 24)


def _degree(N):
    return len(cyclotomic_polynomial(N)) - 1


@st.composite
def cycnums(draw):
    N = draw(st.sampled_from(CONDUCTORS))
    coeffs = draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=_degree(N), max_size=_degree(N)))
    return CycNum(N, coeffs)


def _lifted(x, m):
    """Fraction coordinates of x over Q(zeta_m), by the textbook formula."""
    step = m // x.conductor
    raw = [Fraction(0)] * ((len(x.coeffs) - 1) * step + 1)
    for k, c in enumerate(x.coeffs):
        raw[k * step] = c
    return tuple(_reduce_mod_cyclotomic(raw, m))


def _check_invariants(x):
    assert x.den > 0
    assert gcd(x.den, *x.nums) == 1
    assert all(type(v) is int for v in x.nums)
    again = CycNum(x.conductor, x.coeffs)
    assert again == x
    assert (again.nums, again.den) == (x.nums, x.den)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cycnums(), cycnums())
def test_integer_arithmetic_matches_fraction_formulas(x, y):
    m = x.conductor * y.conductor // gcd(x.conductor, y.conductor)
    lx, ly = _lifted(x, m), _lifted(y, m)
    total, diff, prod = x + y, x - y, x * y
    for r in (total, diff, prod):
        assert r.conductor == m
        _check_invariants(r)
    assert total.coeffs == tuple(a + b for a, b in zip(lx, ly))
    assert diff.coeffs == tuple(a - b for a, b in zip(lx, ly))
    assert prod.coeffs == tuple(_reduce_mod_cyclotomic(_frac_polymul(list(lx), list(ly)), m))
    assert (x == y) == (lx == ly)
    lift = x.lift(m)
    assert lift.conductor == m
    assert lift.coeffs == lx
    assert lift == x
    _check_invariants(lift)
    _check_invariants(x)
    if not x.is_zero():
        inv = x.inverse()
        assert inv.conductor == x.conductor
        _check_invariants(inv)
        one = _reduce_mod_cyclotomic(_frac_polymul(list(x.coeffs), list(inv.coeffs)), x.conductor)
        assert tuple(one) == (1,) + (0,) * (_degree(x.conductor) - 1)


def test_field_operations_need_no_fraction(monkeypatch):
    z3, z4 = root_of_unity(3), root_of_unity(4)
    values = [
        2 * z3 + Fraction(1, 2),
        z4 / 3 - Fraction(2, 5),
        root_of_unity(12, 5) * Fraction(3, 7) + z3,
        CycNum.from_rational(Fraction(-3, 4)),
    ]
    expected = [(a + b, a - b, a * b) for a in values for b in values]
    expected_coeffs = [tuple(r.coeffs for r in triple) for triple in expected]

    def no_fraction(*args, **kwargs):
        raise AssertionError("Fraction used in field arithmetic")

    monkeypatch.setattr(cyclotomic, "Fraction", no_fraction)
    got = [(a + b, a - b, a * b) for a in values for b in values]
    assert all(g[k] == e[k] for g, e in zip(got, expected) for k in range(3))
    assert all(a == a.lift(12) for a in values)
    assert (z3 + z4).conductor == 12
    assert (z3 * z4) ** 12 == 1
    assert (-(z3 ** 2)).lift(12) == root_of_unity(6)
    assert (z4 ** 4).is_one() and (z3 ** 3).lift(12).is_one()
    assert not values[0].is_one()
    assert values[0] + 1 - 1 == values[0] and values[1] * 2 == values[1] + values[1]
    monkeypatch.undo()
    assert [tuple(r.coeffs for r in triple) for triple in got] == expected_coeffs
