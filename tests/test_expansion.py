import random

import pytest
from mpmath import mp, mpc, mpf, workprec

from meroforms import POINT_I, POINT_RHO, laurent_at, principal_part, taylor_at, valuation
from meroforms.cli import MAX_POLE_ORDER
from meroforms.expansion import ExpansionError, _mul, congruence_defect
from meroforms.qseries import parse_form

from conftest import rel_err


def _highest_order(s):
    """Order of the last coefficient in a Laurent window."""
    return s.lowest_order + len(s) - 1


def test_taylor_e6_at_i(prec, e4i):
    t = taylor_at("E6", POINT_I, 2, prec)
    with workprec(prec):
        pi = mp.pi
        tol = mpf(2) ** (-prec + 24)
        assert abs(t.coefficient(0)) < tol
        assert rel_err(t.coefficient(1), -1j * pi * e4i**2) < tol
        assert rel_err(t.coefficient(2), mpf(7) / 2 * pi * e4i**2) < tol


def test_taylor_constants(prec):
    t = taylor_at("E2", POINT_I, 0, prec)
    with workprec(prec):
        assert rel_err(t.coefficient(0), 3 / mp.pi) < mpf(2) ** (-prec + 16)
    t4 = taylor_at("E4", POINT_RHO, 0, prec)
    assert abs(t4.coefficient(0)) < mpf(2) ** (-prec + 16)


def test_taylor_rejects_reciprocal(prec):
    with pytest.raises(ExpansionError, match="laurent_at"):
        taylor_at("1/E4", POINT_I, 2, prec)


def test_laurent_quartic_pole(prec, e4i):
    s = laurent_at("1/E6^4", POINT_I, prec)
    assert s.lowest_order == -4
    with workprec(prec):
        pi = mp.pi
        alpha = 1 / (pi**4 * e4i**8)
        beta = -14j * alpha
        gamma = 14 * pi**2 / 27 * e4i * alpha - mpf(189) / 2 * alpha
        delta = -13j * gamma - 819j * alpha
        tol = mpf(2) ** (-200)
        assert rel_err(s.coefficient(-4), alpha) < tol
        assert rel_err(s.coefficient(-3), beta) < tol
        assert rel_err(s.coefficient(-2), gamma) < tol
        assert rel_err(s.coefficient(-1), delta) < tol


def test_laurent_residues(prec, e4i, e6rho):
    with workprec(prec):
        pi = mp.pi
        tol = mpf(2) ** (-200)
        r1 = laurent_at("1/E10", POINT_I, prec)
        assert r1.lowest_order == -1
        assert rel_err(r1.coefficient(-1), 1j / (pi * e4i**3)) < tol
        r2 = laurent_at("1/E10", POINT_RHO, prec)
        assert rel_err(r2.coefficient(-1), 3j / (2 * pi * e6rho**2)) < tol


def test_laurent_zero_detection(prec):
    s = laurent_at("E6^2", POINT_I, prec)
    assert s.lowest_order == 2
    with pytest.raises(ExpansionError, match="vanishing order"):
        laurent_at("D(1)", POINT_I, prec)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_pole_orders_are_exact(bits):
    # The pole order is the exact valuation at every precision: a threshold
    # on coefficient sizes misread 1/E10^5 at 64 bits, 1/E6^17 at 128 and
    # 1/E6^34 at 256, whose Taylor coefficients grow by orders of magnitude.
    for name, point in (("E6", POINT_I), ("E4", POINT_RHO), ("E10", POINT_I), ("E10", POINT_RHO)):
        for n in range(1, MAX_POLE_ORDER + 1):
            form = f"1/{name}^{n}"
            assert valuation(parse_form(form), point) == -n
            s = laurent_at(form, point, bits, depth=1)
            assert (s.lowest_order, _highest_order(s), len(s)) == (-n, 1, n + 2), (form, point)


def test_window_reaches_depth():
    # E10 vanishes at rho, so the window starts at order 1 and must still
    # reach the requested depth
    s = laurent_at("E10/E6^4", POINT_RHO, 128, depth=4)
    assert (s.lowest_order, _highest_order(s)) == (1, 4)
    s = laurent_at("E6^2", POINT_I, 128, depth=4)
    assert (s.lowest_order, _highest_order(s)) == (2, 4)
    # D drops the exact-zero derivative of the constant term and keeps depth
    s = laurent_at("D(E2)", POINT_I, 128, depth=3)
    assert (s.lowest_order, _highest_order(s)) == (0, 3)
    # a valuation above the depth leaves the leading term alone
    s = laurent_at("E6^3", POINT_I, 128, depth=1)
    assert (s.lowest_order, _highest_order(s)) == (3, 3)


def test_principal_part_keeps_leading_order():
    # the lowest coefficient of 1/E10^7 at rho is about 2^-33 of the largest
    # in its window, below the zero threshold at 64 bits, yet it is the
    # nonzero lead at the exact valuation
    pp = principal_part("1/E10^7", POINT_RHO, 64)
    assert pp.max_order == 7
    assert 7 not in pp.flagged_zero_orders


def test_principal_part_no_pole(prec):
    pp = principal_part("1/E4", POINT_I, prec)
    assert pp.is_empty()
    assert pp.coeffs == {}


def test_principal_part_flags(prec):
    pp = principal_part("1/E6^4", POINT_I, prec)
    assert set(pp.coeffs) == {1, 2, 3, 4}
    assert pp.flagged_zero_orders == frozenset()
    assert pp.max_order == 4


def test_congruence_structure(prec):
    # quartic-pole reciprocal: weight -24, admissible orders are even
    pp = principal_part("1/E6^4", POINT_I, prec)
    assert congruence_defect(pp, 13, prec) < mpf(2) ** (-(prec // 2) + 16)
    # cubic pole at i: weight -14 (k = 8), admissible orders odd
    pp2 = principal_part("E10/E6^4", POINT_I, prec)
    assert pp2.max_order == 3
    assert congruence_defect(pp2, 8, prec) < mpf(2) ** (-(prec // 2) + 16)


def test_laurent_multiplicativity(prec):
    rng = random.Random(77)
    atoms = ["E2", "E4", "E6", "E10", "1/E4", "1/E6", "1/E10", "E6^2", "1/E6^2"]
    pairs = [
        ("1/E6^4", "E4", POINT_I),
        ("1/E4", "E2 * E6", POINT_RHO),
    ]
    for _ in range(10):
        pairs.append((rng.choice(atoms), rng.choice(atoms), rng.choice([POINT_I, POINT_RHO])))
    with workprec(prec):
        tol = mpf(2) ** (-(prec // 2))
        for f_text, g_text, point in pairs:
            f = laurent_at(f_text, point, prec, depth=4)
            g = laurent_at(g_text, point, prec, depth=4)
            fg = laurent_at(f"({f_text}) * ({g_text})", point, prec, depth=4)
            prod = _mul(f, g)
            scale = max(abs(c) for c in fg.coeffs)
            for order in range(fg.lowest_order, min(_highest_order(fg), _highest_order(prod)) + 1):
                assert abs(prod.coefficient(order) - fg.coefficient(order)) < tol * scale


def test_string_and_parsed_inputs_agree(prec):
    a = laurent_at("1/E10", POINT_I, prec)
    b = laurent_at(parse_form("1/E10"), POINT_I, prec)
    assert a.lowest_order == b.lowest_order
    assert all(x == y for x, y in zip(a.coeffs, b.coeffs))
