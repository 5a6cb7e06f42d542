from fractions import Fraction
from math import ceil, factorial, log

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

from meroforms.constants import GUARD_BITS, _jet_series, eisenstein_derivatives, series_bits
from meroforms.qseries import bernoulli, eisenstein_qseries, sigma

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


def _gamma_series(s: Fraction, bits: int) -> mpf:
    """Gamma(s), 0 < s < 1, from the incomplete gamma function: Gamma(s) =
    X^s e^-X sum_k X^k / (s)_(k+1) + Gamma(s, X), every term positive and
    the tail Gamma(s, X) < X^(s-1) e^-X below 2^-(bits+8) for the X below.
    The sum peaks near e^X, so it is summed in fixed point with 2X more
    bits.  mpmath's own gamma first builds Taylor coefficients at each new
    precision, about 40 s at 16384 bits, so the references above 256 bits
    come from this series."""
    X = ceil((bits + 8) * log(2)) + 1
    a, b = s.numerator, s.denominator
    W = bits + 2 * X + 64
    one = 1 << W
    term, total, k = one * b // a, 0, 0
    while term:  # term k is X^k / (s)_(k+1) in units of 2^-W
        total += term
        k += 1
        term = term * X * b // (a + k * b)
    with workprec(bits):
        return mpf(total) / one * mpf(X) ** (mpf(a) / b) * mpmath.exp(-X)


def _gamma_quotient(weight: int, bits: int) -> mpf:
    """E_4(i) or E_6(rho) as the Gamma quotient it was once computed by."""
    low, high = (Fraction(1, 4), Fraction(3, 4)) if weight == 4 else (Fraction(1, 3), Fraction(2, 3))
    with workprec(bits):
        ratio = _gamma_series(low, bits) / _gamma_series(high, bits)
        if weight == 4:
            return 12 / (8 * mp.pi) ** 2 * ratio**4
        return 24 * mpmath.sqrt(3) / (6 * mp.pi) ** 3 * ratio**9


def test_gamma_series_matches_mpmath_gamma():
    # the reference's Gamma values against mpmath's where its gamma is cheap
    for bits in (64, 256):
        with workprec(bits + 32):
            for s in map(Fraction, ("1/4", "3/4", "1/3", "2/3")):
                want = mpmath.gamma(mpf(s.numerator) / s.denominator)
                assert abs(_gamma_series(s, bits + 32) - want) <= mpf(2) ** -(bits + 16) * want, (bits, s)


@pytest.mark.parametrize("precision", (64, 256, 4096, 16384))
def test_closed_value_agm_matches_gamma_quotient(precision):
    for weight, point in ((4, POINT_I), (6, POINT_RHO)):
        want = _gamma_quotient(weight, precision + 32)
        with workprec(precision + 32):
            assert abs(closed_value(weight, point, precision) - want) <= mpf(2) ** -precision * want, weight


@pytest.mark.parametrize("point", [POINT_I, POINT_RHO, generic_point(mpc("0.3", "1.1"))], ids=str)
def test_derivative_jet_reuse_is_bit_for_bit(point):
    # a later request at the same point and precision reads or deepens the
    # kept jet; a fresh computation of either depth gives the same numbers
    def fresh(depth):
        _jet_series.cache_clear()
        return derivative_jet(point, depth, 128).table

    deep = fresh(12)
    shallow = derivative_jet(point, 5, 128).table  # read from the kept jet
    assert _jet_series.cache_info().hits == 1
    assert shallow == fresh(5) == {w: series[:6] for w, series in deep.items()}
    assert derivative_jet(point, 12, 128).table == deep  # deepened from order 5
    assert _jet_series.cache_info().hits == 1


def _complex_step_derivatives(weight, tau, depth, bits):
    """``eisenstein_derivatives`` as it was: every step by the complex
    2 pi i n, on the complex q = exp(2 pi i tau) at every point."""
    c = -2 * weight / bernoulli(weight)
    with workprec(bits):
        tau = mpc(tau)
        q = mpmath.exp(2j * mp.pi * tau)
        c_w = mpf(c.numerator) / c.denominator
        peak = (weight + depth) / (2 * mp.pi * tau.imag)
        cutoff = mpf(2) ** -bits
        totals = [mpc(1)] + [mpc(0)] * depth
        qn = mpc(1)
        small_streak = 0
        n = 0
        while small_streak < 3:
            n += 1
            qn *= q
            term = c_w * sigma(n, weight - 1) * qn
            step = mpc(0, 2 * mp.pi * n)
            small = n > peak
            for r in range(depth + 1):
                totals[r] += term
                small = small and abs(term) < cutoff * max(1, abs(totals[r]))
                term *= step
            small_streak = small_streak + 1 if small else 0
    return totals


@pytest.mark.parametrize("point", [POINT_I, POINT_RHO, generic_point(mpc("0.3", "1.1"))], ids=str)
def test_real_step_tables_match_complex_step_reference(point):
    # both sums round N terms at ``series_bits``, whose margin above
    # P + GUARD_BITS covers that rounding; at rho the two differ by up to
    # about 2^25 of 2^-bits (q there was complex with a rounded imaginary
    # part), so they are held to the guard bits, not to 2^-bits
    precision, depth = 256, 12
    for weight in (2, 4, 6, 10, 12):
        bits = series_bits(weight, depth, point.v0(precision), precision)
        tau = point.tau(bits)
        got = eisenstein_derivatives(weight, tau, depth, bits)
        want = _complex_step_derivatives(weight, tau, depth, bits)
        with workprec(bits + 64):
            for r in range(depth + 1):
                scale = max(1, abs(want[r]))
                assert abs(got[r] - want[r]) <= mpf(2) ** -(precision + GUARD_BITS) * scale, (weight, r)
                if point.tag != "generic":  # a real sum times i^r
                    assert (got[r] * (1, -1j, -1, 1j)[r % 4]).imag == 0, (weight, r)
