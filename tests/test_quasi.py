from fractions import Fraction

import pytest
from mpmath import mp, mpf, workprec

from meroforms import (
    POINT_I,
    POINT_RHO,
    assemble_coefficient,
    quasi_expansion,
    simple_pole_quasi_coeff,
)
import meroforms.quasi as quasi
from meroforms.qseries import oracle_coeffs
from meroforms.quasi import f_combination_coeff

from conftest import rel_err


def oracle_value(text, m):
    c = oracle_coeffs(text, m)[m]
    with workprec(400):
        return mpf(c.numerator) / c.denominator


def test_coefficient_tables_exact():
    assert f_combination_coeff(13, 1, 0) == 1
    assert f_combination_coeff(13, 1, 1) == Fraction(-1, 24)
    assert f_combination_coeff(6, 2, 1) == Fraction(-2, 8)
    assert f_combination_coeff(6, 2, 2) == Fraction(1, 8 * 9)


def test_simple_route_matches_oracle(prec):
    rep = quasi_expansion("1/E10", 0, prec).f_rep
    with workprec(prec):
        for n in (1, 2):
            for m in range(5):
                got = simple_pole_quasi_coeff(rep, n, m, 1500, prec)
                want = oracle_value(f"E2^{n} * (1/E10)", m)
                assert rel_err(got.value, want) < mpf(10) ** -8, (n, m)


def test_power_zero_equals_assembly(prec):
    rep = quasi_expansion("1/E10", 0, prec).f_rep
    a = simple_pole_quasi_coeff(rep, 0, 2, 800, prec)
    b = assemble_coefficient(rep, 2, 800, prec)
    assert a.value == b.value


@pytest.mark.parametrize(
    "form, n, norm_bound, route",
    [("1/E10", 2, 900, "simple"), ("1/E6^4", 1, 1200, "recursion"), ("1/E10", 0, 800, "assembly")],
)
def test_coefficient_picks_route(prec, form, n, norm_bound, route):
    qe = quasi_expansion(form, n, prec)
    for m in (0, 1, 3):
        got = qe.coefficient(m, norm_bound)
        if route == "simple":
            want = simple_pole_quasi_coeff(qe.f_rep, n, m, norm_bound, prec)
        elif route == "recursion":
            want = qe.coefficient_of_power(n, m, norm_bound)
        else:
            want = assemble_coefficient(qe.f_rep, m, norm_bound, prec)
        assert (got.value, got.tail_bound) == (want.value, want.tail_bound), m


@pytest.mark.parametrize("form, n", [("1/E10", 2), ("1/E6^4", 1)], ids=["simple", "recursion"])
def test_coefficients_of_a_range_match_each_m(prec, form, n):
    # one pass over the ideals for m = 0..10 steps Z^m from m - 1; each
    # coefficient stays within its tail plus 2^-P of the machine's own
    # single-m coefficient
    qe = quasi_expansion(form, n, prec)
    together = qe.coefficients(range(11), 400)
    assert len(together) == 11
    for m, got in enumerate(together):
        alone = qe.coefficient(m, 400)
        assert got.tail_bound == alone.tail_bound, m
        with workprec(prec + 64):
            assert abs(got.value - alone.value) <= alone.tail_bound + mpf(2) ** -prec * abs(alone.value), m


def test_quasi_expansion_multiplies_each_e2_power_once(prec, monkeypatch):
    # F_1..F_n read E_2^d f for d = j - l, so each d needs one product per pole
    products = []
    inner = quasi._mul

    def counting(a, b):
        products.append(a.point)
        return inner(a, b)

    monkeypatch.setattr(quasi, "_mul", counting)
    quasi.quasi_expansion("1/E10^3", 6, prec)
    for point in (POINT_I, POINT_RHO):
        assert 1 <= products.count(point) <= 6


def test_simple_route_validity_window(prec):
    rep = quasi_expansion("1/E10", 0, prec).f_rep
    with pytest.raises(ValueError, match="validity"):
        simple_pole_quasi_coeff(rep, 5, 0, 800, prec)  # k = 6 allows j <= 4
    rep6 = quasi_expansion("1/E6^4", 0, prec).f_rep
    with pytest.raises(ValueError, match="simple"):
        simple_pole_quasi_coeff(rep6, 1, 0, 800, prec)


def test_general_route_aux_structure(prec):
    qe = quasi_expansion("1/E6^4", 1, prec)
    orders = sorted(t.n for t in qe.aux_reps[1].terms)
    assert orders == [0, 2, 4]
    assert all(t.point.tag == "i" for t in qe.aux_reps[1].terms)


def test_general_route_aux_closed_forms(prec, e4i):
    qe = quasi_expansion("1/E6^4", 1, prec)
    with workprec(prec):
        pi = mp.pi
        alpha = 1 / (pi**4 * e4i**8)
        want = {
            4: pi * alpha / 1152,
            2: -5 * pi**3 * e4i * alpha / 1296,
            0: -47 * pi**5 * e4i**2 * alpha / 1944,
        }
        for t in qe.aux_reps[1].terms:
            assert rel_err(t.a, want[t.n]) < mpf(10) ** -20


def test_aux_oracle_identity(prec):
    # coefficientwise: (3/pi) F_1 = E2/E6^4 + (m/2) / E6^4
    qe = quasi_expansion("1/E6^4", 1, prec)
    with workprec(prec):
        for m in range(4):
            f1 = assemble_coefficient(qe.aux_reps[1], m, 1200, prec)
            lhs = 3 / mp.pi * f1.value
            want = oracle_value("E2 * (1/E6^4)", m) + mpf(m) / 2 * oracle_value("1/E6^4", m)
            denom = abs(want) if want != 0 else mpf(1)
            assert abs(lhs - want) / denom < mpf(10) ** -12, m


def test_general_route_matches_oracle(prec):
    qe = quasi_expansion("1/E6^4", 1, prec)
    with workprec(prec):
        for m in range(5):
            got = qe.coefficient(m, 1200)
            want = oracle_value("E2 * (1/E6^4)", m)
            assert rel_err(got.value, want) < mpf(10) ** -10, m


def test_routes_cross_validate(prec):
    rep = quasi_expansion("1/E10", 0, prec).f_rep
    qe = quasi_expansion("1/E10", 2, prec)
    with workprec(prec):
        for n in (1, 2):
            for m in (0, 1, 3):
                gen = qe.coefficient_of_power(n, m, 900)
                simple = simple_pole_quasi_coeff(rep, n, m, 900, prec)
                slack = gen.tail_bound + simple.tail_bound + mpf(2) ** (-(prec // 2))
                assert abs(gen.value - simple.value) <= slack, (n, m)


def test_weight_window_enforced(prec):
    with pytest.raises(ValueError, match="negative"):
        quasi_expansion("1/E10", 5, prec)  # 2 - 12 + 10 = 0
    with pytest.raises(ValueError, match="weight"):
        quasi_expansion("E4", 1, prec)


def test_no_poles_rejected(prec):
    with pytest.raises(ValueError, match="no poles"):
        quasi_expansion("1/E2", 0, prec)


def test_one_shot_wrapper(prec):
    got = quasi_expansion("1/E10", 1, prec).coefficient(1, 900)
    want = oracle_value("E2 * (1/E10)", 1)
    assert rel_err(got.value, want) < mpf(10) ** -8
