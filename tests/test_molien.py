import random

import pytest

from preproj import molien
from preproj.molien import (
    _matrix_series,
    hilbert_A,
    hilbert_eA,
    matrix_hilbert_A,
    molien_matrix,
    molien_report,
    molien_scalar,
    molien_vector,
)
from preproj.parsing import parse_ratfun
from preproj.quiver import AutGroup, generate_group, make_aut
from preproj.ratfun import RatFun, series_expand
from preproj.cyclotomic import root_of_unity


def test_hilbert_series():
    assert hilbert_A(3) == parse_ratfun("3/(1-t)^2")
    assert hilbert_eA(4) == parse_ratfun("1/(1-t)^2")
    assert [c.as_rational() for c in series_expand(hilbert_A(5), 2)] == [5, 10, 15]
    with pytest.raises(ValueError):
        hilbert_A(2)


def test_matrix_hilbert_small_cycle():
    m = matrix_hilbert_A(3)
    den = parse_ratfun("1/(1-t^3)^2")
    assert m[0, 0] == parse_ratfun("1+t^2+t^4") * den
    assert m[0, 1] == parse_ratfun("t+t^2+t^3") * den
    assert m[0, 2] == parse_ratfun("t+t^2+t^3") * den
    assert m.row_sums() == [hilbert_eA(3)] * 3
    assert [c.as_rational() for c in series_expand(m[0, 0], 3)] == [1, 0, 1, 2]


def test_matrix_hilbert_row_sums_larger():
    for n in (4, 5):
        assert matrix_hilbert_A(n).row_sums() == [hilbert_eA(n)] * n


def test_molien_scalar_fixtures(group_halfturn, group_order6, group_order3):
    assert molien_scalar(group_halfturn) == parse_ratfun("3/((1-t)^2*(1+t))")
    assert molien_scalar(group_order6) == parse_ratfun("(3+t+t^2)/(1-t^3)^2")
    assert molien_scalar(group_order3) == parse_ratfun("(3+2*t+2*t^2+2*t^3)/(1-t^3)^2")
    assert molien_scalar(AutGroup.trivial(3)) == hilbert_A(3)


def test_molien_vector(group_halfturn):
    assert molien_vector(AutGroup.trivial(3)) == [hilbert_eA(3)] * 3
    assert molien_vector(group_halfturn) == [parse_ratfun("1/((1-t)^2*(1+t))")] * 3


def test_molien_vector_sums_to_scalar(group_order6, group_order3):
    for G in (group_order6, group_order3):
        assert sum(molien_vector(G), RatFun.constant(0)) == molien_scalar(G)


def test_molien_matrix_order6(group_order6):
    rec = molien_matrix(group_order6)
    assert rec.status == "ok"
    den = parse_ratfun("1/(1-t^3)^2")
    zero = RatFun.constant(0)
    expected = [
        [den, parse_ratfun("t") * den, zero],
        [parse_ratfun("t^2") * den, den, zero],
        [zero, zero, den],
    ]
    for i in range(3):
        for j in range(3):
            assert rec.matrix[i, j] == expected[i][j]


def test_molien_matrix_trivial_group():
    rec = molien_matrix(AutGroup.trivial(3), 12)
    assert rec.status == "ok"
    assert rec.matrix == matrix_hilbert_A(3)


def test_molien_matrix_window_validation(group_order6):
    with pytest.raises(ValueError):
        molien_matrix(group_order6, 5)


ZETA3_4CYCLE = (["zeta(3)"] * 4, ["zeta(3)"] * 4)
# deg lcm(raw_q) = 60 here, far above the default window D = 4n = 20.
N5_ORDER8 = (["-zeta(8)", "1", "-zeta(8)^3", "zeta(8)^3", "1"],
             ["-zeta(8)", "zeta(8)^2", "zeta(8)^3", "-zeta(8)^3", "zeta(8)^2"])


def test_molien_matrix_zeta3_4cycle():
    G = generate_group([make_aut(4, *ZETA3_4CYCLE)])
    rec = molien_matrix(G)
    assert rec.matrix.row_sums() == molien_vector(G)
    # D = 30 lies above deg lcm(raw_q) = 24
    series = _matrix_series(G, 30)
    for i in range(4):
        for j in range(4):
            assert series_expand(rec.matrix[i, j], 30) == series[i][j]


def test_molien_matrix_n5_order8():
    G = generate_group([make_aut(5, *N5_ORDER8)])
    assert len(G) == 8
    assert molien_matrix(G).matrix.row_sums() == molien_vector(G)


def test_molien_matrix_disagreement_raises(group_order3, monkeypatch):
    real = molien._matrix_series

    def perturbed(G, D):
        series = real(G, D)
        series[1][2][D] = series[1][2][D] + 1
        return series

    monkeypatch.setattr(molien, "_matrix_series", perturbed)
    with pytest.raises(ArithmeticError, match=r"entry \(2, 3\)"):
        molien_matrix(group_order3)


def test_molien_report_consistency(group_order3):
    rep = molien_report(group_order3)
    assert sum(rep.vector, RatFun.constant(0)) == rep.scalar
    assert rep.matrix.status == "ok"
    assert rep.matrix.matrix.row_sums() == rep.vector


def test_molien_coefficients_nonnegative_integers():
    rng = random.Random(5)
    for _ in range(3):
        n = rng.randrange(3, 6)
        m = rng.choice([2, 3, 4, 6])
        z = root_of_unity(m)
        c = [z ** rng.randrange(m) for _ in range(n)]
        ct = z ** rng.randrange(m)
        t = [ct / ci for ci in c]
        G = generate_group([make_aut(n, c, t)])
        for coeff in series_expand(molien_scalar(G), 30):
            q = coeff.as_rational()
            assert q.denominator == 1 and q >= 0
