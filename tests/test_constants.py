from math import factorial

import mpmath
import pytest
from mpmath import mp, mpc, mpf, workprec

from meroforms import (
    POINT_I,
    POINT_RHO,
    closed_value,
    derivative_jet,
    e10_jet,
    generic_point,
    qseries_eval,
)

from meroforms.constants import eisenstein_derivatives, series_bits
from meroforms.qseries import eisenstein_qseries

from conftest import rel_err


def test_closed_value_exact_zeros(prec):
    assert closed_value(6, POINT_I, prec) == 0
    assert closed_value(4, POINT_RHO, prec) == 0


@pytest.mark.parametrize("point", [POINT_I, POINT_RHO], ids=["i", "rho"])
def test_eisenstein_series_vanishes_where_the_point_rule_says(point):
    # E_w(tau0) from its q-series, not from the rule: an exact 0 (below
    # 2^-120) exactly where 2 omega does not divide w, else about 2 or 3
    for w in range(4, 62, 2):
        bits = series_bits(w, 0, point.v0(128), 128)
        value = eisenstein_derivatives(w, point.tau(bits), 0, bits)[0]
        assert (abs(value) < mpf(2) ** -120) == point.vanishes(w), w


def test_vanishes_refuses_an_odd_weight_and_never_holds_at_a_generic_point():
    for point in (POINT_I, POINT_RHO, generic_point(mpc(0.3, 1.1))):
        with pytest.raises(ValueError, match="weight must be even, got 5"):
            point.vanishes(5)
    assert not any(generic_point(mpc(0.3, 1.1)).vanishes(w) for w in range(2, 62, 2))


def test_closed_value_examples(prec):
    v = closed_value(2, POINT_I, prec)
    assert abs(v - 0.954929658551372) < 1e-14
    with workprec(prec):
        assert rel_err(v, 3 / mp.pi) < mpf(2) ** (-prec + 8)
        assert rel_err(closed_value(2, POINT_RHO, prec), 2 * mpmath.sqrt(3) / mp.pi) < mpf(2) ** (-prec + 8)


def test_closed_value_errors(prec):
    with pytest.raises(ValueError):
        closed_value(10, POINT_I, prec)
    with pytest.raises(ValueError):
        closed_value(4, generic_point(mpc(0, 2)), prec)


def test_closed_vs_series_agreement(prec):
    tol = mpf(2) ** (-prec + 16)
    for w, pt in ((4, POINT_I), (6, POINT_RHO), (2, POINT_I), (2, POINT_RHO)):
        cv = closed_value(w, pt, prec)
        sv = qseries_eval(w, pt.tau(prec), prec)
        assert rel_err(sv, cv) < tol, (w, pt.tag)


def test_series_vanishing_at_elliptic_points(prec):
    tol = mpf(2) ** (-prec + 16)
    assert abs(qseries_eval(6, mpc(0, 1), prec)) < tol
    assert abs(qseries_eval(4, POINT_RHO.tau(prec), prec)) < tol


def test_qseries_eval_low_point_rejected(prec):
    with pytest.raises(ValueError, match="too low"):
        qseries_eval(4, mpc(0, 0.4), prec)
    with pytest.raises(ValueError, match="weight"):
        qseries_eval(8, mpc(0, 2), prec)


def test_jet_special_values(prec, e4i):
    jet = derivative_jet(POINT_I, 3, prec)
    with workprec(prec + 16):
        pi = mp.pi
        expected = {
            (2, 0): mpc(3 / pi),
            (2, 1): 3j / (2 * pi) - 1j * pi / 6 * e4i,
            (2, 2): mpc(-3 / (2 * pi) + pi / 2 * e4i),
            (2, 3): -9j / (4 * pi) + 3j * pi / 2 * e4i + 1j * pi**3 / 12 * e4i**2,
            (4, 1): 2j * e4i,
            (4, 2): mpc(-5 * e4i - 5 * pi**2 / 9 * e4i**2),
            (6, 1): -1j * pi * e4i**2,
            (6, 2): mpc(7 * pi * e4i**2),
            (6, 3): 7j * pi**3 / 9 * e4i**3 + 42j * pi * e4i**2,
        }
        tol = mpf(2) ** (-240)
        for key, want in expected.items():
            assert rel_err(jet.value(*key), want) < tol, key


def test_jet_generic_point_satisfies_system(prec):
    point = generic_point(mpc(mpf(1) / 5, mpf(9) / 8))
    jet = derivative_jet(point, 2, prec)
    with workprec(prec):
        pi_i = mpc(0, mp.pi)
        e2, e4, e6 = (jet.value(w, 0) for w in (2, 4, 6))
        tol = mpf(2) ** (-prec + 24)
        assert rel_err(jet.value(2, 1), pi_i / 6 * (e2**2 - e4)) < tol
        assert rel_err(jet.value(4, 1), 2 * pi_i / 3 * (e2 * e4 - e6)) < tol
        assert rel_err(jet.value(6, 1), pi_i * (e2 * e6 - e4**2)) < tol
        for w in (2, 4, 6):
            sv = qseries_eval(w, point.tau(prec), prec)
            assert rel_err(jet.value(w, 0), sv) < tol


def test_e10_jet(prec, e4i, e6rho):
    with workprec(prec + 16):
        pi = mp.pi
        tol = mpf(2) ** (-prec + 16)
        ji = e10_jet(POINT_I, 1, prec)
        assert abs(ji.value(10, 0)) < tol
        assert rel_err(ji.value(10, 1), -1j * pi * e4i**3) < tol
        jr = e10_jet(POINT_RHO, 1, prec)
        assert rel_err(jr.value(10, 1), -2j * pi / 3 * e6rho**2) < tol


def test_precision_doubling_doubles_agreement():
    # number of agreeing bits between closed form and series at least
    # doubles; agreement is capped at the representation width
    def agree_bits(p):
        cv = closed_value(4, POINT_I, p)
        sv = qseries_eval(4, mpc(0, 1), p)
        err = rel_err(sv, cv)
        if err == 0:
            return p
        return min(int(-mpmath.log(err, 2)), p)

    b128 = agree_bits(128)
    b256 = agree_bits(256)
    assert b128 >= 112
    assert b256 >= 2 * b128 - 8


def test_eisenstein_jet_against_qseries(prec):
    # value and z-derivatives d^r/dz^r sum a_n q^n = sum a_n (2 pi i n)^r q^n;
    # weights 2, 4, 6 come from derivative_jet and weight 10 through the
    # production entry point e10_jet; the q-series loop of the m = 0 closed
    # forms must meet the same sums.  The values are read at the ambient
    # precision: value() must keep the jet's own working bits
    for point in (POINT_I, POINT_RHO):
        jet = derivative_jet(point, 12, prec)
        jets = {2: jet, 4: jet, 6: jet, 10: e10_jet(point, 12, prec)}
        # derivative_jet's own E10 series is the same Cauchy product, bit for bit
        assert jet.table[10] == jets[10].table[10]
        got = {(w, r): source.value(w, r) for w, source in jets.items() for r in range(13)}
        series = {}
        for w in jets:
            bits = series_bits(w, 12, point.v0(prec), prec)
            series[w] = eisenstein_derivatives(w, point.tau(bits), 12, bits)
        with workprec(prec + 32):
            q = mpmath.exp(2j * mp.pi * point.tau(prec))
            for w in jets:
                coeffs = eisenstein_qseries(w, 100).coeffs
                for r in range(13):
                    want = sum(mpf(c.numerator) / c.denominator * (2j * mp.pi * n) ** r * q**n for n, c in enumerate(coeffs))
                    tol = mpf(2) ** (-prec + 24) * max(abs(want), 1)
                    assert abs(got[(w, r)] - want) < tol, (point.tag, w, r)
                    assert abs(series[w][r] - want) < tol, (point.tag, w, r)


@pytest.mark.parametrize("precision", (64, 128, 256))
def test_jet_keeps_guard_bits(precision):
    # the base values carry the guard bits, so a jet of depth 40 matches a
    # 400-bit-wider one far below 2^-P; derivatives that nearly vanish are
    # measured against r!/1000, the size of their neighbours
    for point in (POINT_I, POINT_RHO, generic_point(mpc("0.3", "1.1"))):
        got = derivative_jet(point, 40, precision)
        want = derivative_jet(point, 40, precision + 400)
        with workprec(precision + 450):
            for w in (2, 4, 6):
                for r in range(41):
                    v = want.value(w, r)
                    scale = max(abs(v), mpf(factorial(r)) / 1000)
                    assert abs(got.value(w, r) - v) <= mpf(2) ** -(precision + 16) * scale, (point.tag, w, r)
