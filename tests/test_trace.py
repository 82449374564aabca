import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from preproj import ratfun, trace

from preproj.cyclotomic import CycNum, root_of_unity
from preproj.parsing import parse_ratfun
from preproj.quiver import DiagonalAut, make_aut
from preproj.ratfun import Poly, RatFun, series_expand
from preproj.trace import (
    b_vector,
    closed_34_numerators,
    closed_35_numerators,
    eq2_quotient_traces,
    p_at_one_factorization,
    raw_denominator,
    total_trace_closed,
    trace_oracle,
    trace_report,
    vector_trace_closed_34,
    vector_trace_closed_35,
)


def random_aut(rng, n):
    """Random valid automorphism whose scalars are powers of one root of unity."""
    m = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12])
    z = root_of_unity(m)
    c = [z ** rng.randrange(m) for _ in range(n)]
    ct = z ** rng.randrange(m)  # the common value of c_i * t_i
    t = [ct / ci for ci in c]
    return make_aut(n, c, t)


def test_oracle_identity():
    vector, total = trace_oracle(DiagonalAut.identity(3), 3)
    for row in vector:
        assert [c.as_rational() for c in row] == [1, 2, 3, 4]
    assert [c.as_rational() for c in total] == [3, 6, 9, 12]


def test_oracle_halfturn(g_halfturn):
    _, total = trace_oracle(g_halfturn, 4)
    assert [c.as_rational() for c in total] == [3, 0, 3, 0, 3]


def test_oracle_matches_closed_form(g_order3):
    _, total = trace_oracle(g_order3, 20)
    _, _, reduced = total_trace_closed(g_order3)
    assert series_expand(reduced, 20) == total


def test_closed_forms_identity():
    e = DiagonalAut.identity(4)
    expected = parse_ratfun("1/(1-t)^2")
    assert vector_trace_closed_34(e) == [expected] * 4
    assert vector_trace_closed_35(e) == [expected] * 4


def test_closed_form_halfturn(g_halfturn):
    expected = parse_ratfun("1/(1-t^2)")
    assert vector_trace_closed_34(g_halfturn) == [expected] * 3
    assert vector_trace_closed_35(g_halfturn) == [expected] * 3


def test_total_trace_values(g_halfturn):
    raw_p, raw_q, reduced = total_trace_closed(g_halfturn)
    assert reduced == parse_ratfun("3/(1-t^2)")
    # unreduced forms retained as built
    assert str(raw_q) == "1 - t^6"
    g = make_aut(3, [1, -1, -1], [1, -1, -1])
    assert total_trace_closed(g)[2] == parse_ratfun("(3-5*t+3*t^2)/((1-t)*(1-t^3))")


def test_n3_raw_numerator_opening_form():
    # for n=3 the raw numerator is
    # 3 + (e1(c)+e1(t))t + (e2(c)+e2(t)+3c1t1)t^2 + c1t1(e1(c)+e1(t))t^3 + 3(c1t1)^2 t^4
    rng = random.Random(7)
    for _ in range(10):
        g = random_aut(rng, 3)
        c1, c2, c3 = g.c
        t1, t2, t3 = g.t
        raw_p, _, _ = total_trace_closed(g)
        e1 = c1 + c2 + c3 + t1 + t2 + t3
        e2 = c1 * c2 + c2 * c3 + c1 * c3 + t1 * t2 + t2 * t3 + t1 * t3
        ct = c1 * t1
        assert raw_p.coeff(0) == CycNum.from_rational(3)
        assert raw_p.coeff(1) == e1
        assert raw_p.coeff(2) == e2 + 3 * ct
        assert raw_p.coeff(3) == ct * e1
        assert raw_p.coeff(4) == 3 * ct * ct


def test_trace_report_cross_checks(g_order6):
    report = trace_report(g_order6, 40)
    assert report.pole_order_one == 1
    assert report.q_roots_unity
    assert sum(report.vector, RatFun.constant(0)) == report.total
    assert trace_report(DiagonalAut.identity(3)).pole_order_one == 2


def test_trace_report_window_validation(g_order6):
    with pytest.raises(ValueError):
        trace_report(g_order6, 3)


def test_eq2_quotient_identity(g_order6, g_order3):
    for g in (g_order6, g_order3):
        assert eq2_quotient_traces(g) == b_vector(g)


def test_p_at_one_identity():
    rec = p_at_one_factorization(DiagonalAut.identity(3))
    assert rec.passed
    assert rec.p_at_one == CycNum.from_rational(27)


def test_p_at_one_both_versions():
    g = make_aut(3, [1, -1, -1], [1, -1, -1])
    rec = p_at_one_factorization(g)
    assert rec.c_product_applies and rec.t_product_applies
    assert rec.passed


def test_p_at_one_requires_unit_product(g_halfturn):
    # c-product is 1 here, t-product is (-1)^3 = -1
    rec = p_at_one_factorization(g_halfturn)
    assert rec.c_product_applies and not rec.t_product_applies
    assert rec.passed
    z5 = root_of_unity(5)
    g = make_aut(3, [z5, 1, 1], [1, z5, z5])  # neither product is 1
    with pytest.raises(ValueError):
        p_at_one_factorization(g)


def test_determinant_formula_matches_brute_force():
    # the matching-expansion determinant equals a cofactor expansion of the
    # displayed matrix, for several sizes and scalar orders
    from linalg_reference import mat_determinant
    from preproj.ratfun import RatFun, RatMatrix
    from preproj.trace import closed_35_determinant, closed_35_matrix

    rng = random.Random(3)
    for n in (3, 4, 5):
        g = random_aut(rng, n)
        rows = closed_35_matrix(g)
        brute = mat_determinant(RatMatrix([[RatFun(p) for p in row] for row in rows]))
        assert brute == RatFun(closed_35_determinant(g))


def test_explicit_shift_inverse_matches_generic_solve():
    from linalg_reference import poly_mat_solve
    from preproj.ratfun import Poly, RatFun
    from preproj.trace import _b_poly, _prod_t, closed_34_matrix

    rng = random.Random(4)
    for n in (3, 4, 5):
        g = random_aut(rng, n)
        b = [_b_poly(g, ell) for ell in range(1, n + 1)]
        x = poly_mat_solve(closed_34_matrix(g), b)
        scale = RatFun(Poly.constant(1), Poly([1] + [0] * (n - 1) + [-_prod_t(g, 1, n)]))
        assert [entry * scale for entry in x] == vector_trace_closed_34(g)


def test_random_methods_agree():
    rng = random.Random(20260823)
    for _ in range(10):
        n = rng.randrange(3, 9)
        g = random_aut(rng, n)
        v34 = vector_trace_closed_34(g)
        assert v34 == vector_trace_closed_35(g)
        oracle_vec, _ = trace_oracle(g, 15)
        for j in range(n):
            assert series_expand(v34[j], 15) == oracle_vec[j]


def test_numerator_identities_over_shared_denominators():
    # sum_j P34_j = raw_p and P34_j * det = P35_j * raw_q, exactly as polynomials
    rng = random.Random(20261018)
    for _ in range(12):
        n = rng.randrange(3, 9)
        g = random_aut(rng, n)
        raw_p, raw_q, _ = total_trace_closed(g)
        p34 = closed_34_numerators(g)
        p35, det = closed_35_numerators(g)
        assert raw_q == raw_denominator(g)
        assert sum(p34, Poly()) == raw_p
        assert det.coeff(0).is_one()
        assert all(a * det == b * raw_q for a, b in zip(p34, p35))


def test_trace_report_perturbed_35_numerator_raises(g_order6, monkeypatch):
    real = trace.closed_35_numerators

    def perturbed(g):
        nums, det = real(g)
        return [nums[0] + Poly.t_power(1)] + nums[1:], det

    monkeypatch.setattr(trace, "closed_35_numerators", perturbed)
    with pytest.raises(ArithmeticError, match="3.4 and 3.5 disagree at vertex 1"):
        trace_report(g_order6, 40)


def test_trace_report_perturbed_total_raises(g_order6, monkeypatch):
    real = trace.total_trace_closed

    def perturbed(g):
        raw_p, raw_q, total = real(g)
        return raw_p + 1, raw_q, total

    monkeypatch.setattr(trace, "total_trace_closed", perturbed)
    with pytest.raises(ArithmeticError, match="do not sum to the total"):
        trace_report(g_order6, 40)


def test_trace_report_perturbed_oracle_raises(g_order6, monkeypatch):
    real = trace.trace_oracle

    def perturbed(g, D):
        vector, total = real(g, D)
        vector[1][D] = vector[1][D] + 1
        return vector, total

    monkeypatch.setattr(trace, "trace_oracle", perturbed)
    with pytest.raises(ArithmeticError, match="oracle at vertex 2 through degree 40"):
        trace_report(g_order6, 40)


def test_closed_35_wrong_determinant_raises(g_order6, monkeypatch):
    real = trace.closed_35_determinant
    monkeypatch.setattr(trace, "closed_35_determinant",
                        lambda g: real(g) + Poly.t_power(2))
    with pytest.raises(ArithmeticError, match="does not clear the series tail"):
        closed_35_numerators(g_order6)


def test_trace_checks_survive_python_O():
    script = """
from preproj import trace
from preproj.quiver import make_aut
real = trace.trace_oracle
def perturbed(g, D):
    vector, total = real(g, D)
    total[D] = total[D] + 1
    return vector, total
trace.trace_oracle = perturbed
g = make_aut(3, ["1", "-1", "-1"], ["zeta(3)", "-zeta(3)", "-zeta(3)"])
try:
    trace.trace_report(g, 12)
except ArithmeticError as exc:
    print("raised:", exc)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "raised: total trace disagrees with the oracle" in out.stdout


def test_trace_report_normalises_only_printed_series(g_order6, monkeypatch):
    # one gcd for each of the n vector entries and one for the total
    calls = []
    real = ratfun.poly_gcd

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(ratfun, "poly_gcd", counted)
    rng = random.Random(11)
    for g in (g_order6, random_aut(rng, 6)):
        calls.clear()
        trace_report(g, 40)
        assert len(calls) <= g.n + 1
