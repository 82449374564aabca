from fractions import Fraction

import pytest

from preproj.cyclotomic import CycNum, root_of_unity
from preproj.parsing import parse_ratfun
from preproj.ratfun import (
    Poly,
    RatFun,
    RatMatrix,
    SingularMatrixError,
    mat_inverse,
    pole_order_at_one,
    poly_div_exact,
    poly_gcd,
    series_expand,
)

from linalg_reference import mat_inverse_adjugate, mat_solve


def test_poly_arithmetic():
    p = Poly([1, 2, 1])  # (1+t)^2
    q = Poly([1, 1])
    assert q * q == p
    assert p - q * q == Poly()
    assert q ** 3 == Poly([1, 3, 3, 1])
    assert p.coeff(5).is_zero()
    assert p.evaluate(1) == CycNum.from_rational(4)


def test_poly_divmod_and_gcd():
    num = Poly([1, 0, 0, -1]) * Poly([1, -1])  # (1-t^3)(1-t) up to signs
    quo, rem = num.divmod(Poly([1, -1]))
    assert rem.is_zero()
    assert quo == Poly([1, 0, 0, -1])
    g = poly_gcd(Poly([1, 0, -1]), Poly([1, 1]))  # gcd(1-t^2, 1+t) = 1+t (monic)
    assert g == Poly([1, 1])
    assert poly_div_exact(Poly([1, 0, -1]), Poly([1, 1])) == Poly([1, -1])
    assert poly_div_exact(Poly([1, 0, -1]), Poly([1, 2])) is None


def test_ratfun_normalization():
    f = RatFun(Poly([1, 0, -1]), Poly([1, 1]))  # (1-t^2)/(1+t) = 1-t
    assert f.is_polynomial()
    assert f.as_polynomial() == Poly([1, -1])
    # denominator anchored at constant term 1
    g = RatFun(Poly([3]), Poly([2, -2]))
    assert g.den.coeff(0) == CycNum.one()
    assert g.num == Poly([Fraction(3, 2)])


def test_ratfun_field_ops():
    t = RatFun(Poly.t_power(1))
    f = 1 / (1 - t)
    assert f + f == 2 / (1 - t)
    assert f * (1 - t) == RatFun.constant(1)
    assert (f - f).is_zero()
    assert f ** -2 == (1 - t) * (1 - t)
    with pytest.raises(ZeroDivisionError):
        RatFun.constant(0).inverse()


def test_series_expand():
    f = parse_ratfun("1/(1-t)^2")
    assert [c.as_rational() for c in series_expand(f, 5)] == [1, 2, 3, 4, 5, 6]
    g = parse_ratfun("(3+t+t^2)/(1-t^3)^2")
    assert [c.as_rational() for c in series_expand(g, 6)] == [3, 1, 1, 6, 2, 2, 9]


def test_pole_order_at_one():
    assert pole_order_at_one(parse_ratfun("3/(1-t)^2")) == 2
    assert pole_order_at_one(parse_ratfun("3/(1-t^2)")) == 1
    assert pole_order_at_one(parse_ratfun("1/(1+t)")) == 0
    assert pole_order_at_one(parse_ratfun("(1-t)/(1-t^2)")) == 0


def test_matrix_inverse_and_solve():
    t = RatFun(Poly.t_power(1))
    one = RatFun.constant(1)
    zero = RatFun.constant(0)
    m = RatMatrix([[one, t, zero], [t * t, one, zero], [zero, zero, one]])
    inv = mat_inverse(m)
    assert m * inv == RatMatrix.identity(3)
    assert inv == mat_inverse_adjugate(m)
    x = mat_solve(m, [one, one, one])
    for i in range(3):
        acc = sum((m[i, j] * x[j] for j in range(3)), zero)
        assert acc == one


def test_singular_matrix_detected():
    one = RatFun.constant(1)
    m = RatMatrix([[one, one], [one, one]])
    with pytest.raises(SingularMatrixError):
        mat_inverse(m)


def test_matrix_with_cyclotomic_coefficients():
    z3 = RatFun.constant(root_of_unity(3))
    t = RatFun(Poly.t_power(1))
    m = RatMatrix([[1 + z3 * t, t], [t, 1 - t]])
    assert m * mat_inverse(m) == RatMatrix.identity(2)


def test_row_and_col_sums():
    t = RatFun(Poly.t_power(1))
    m = RatMatrix([[t, t * t], [RatFun.constant(1), t]])
    assert m.row_sums() == [t + t * t, 1 + t]
    assert m.col_sums() == [1 + t, t + t * t]
