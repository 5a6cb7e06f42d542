import random

import pytest
from mpmath import mp, mpc, mpf, workprec

from meroforms import (
    POINT_I,
    POINT_RHO,
    basis_principal_part,
    epsilon_tilde,
    principal_part,
    solve_basis,
)
from meroforms.expansion import PrincipalPart
from meroforms.solver import (
    BasisCongruenceError,
    BasisRepresentation,
    BasisResidualError,
    BasisTerm,
)

from conftest import rel_err


def test_epsilon_values(prec):
    with workprec(prec):
        tol = mpf(2) ** (-prec + 8)
        assert rel_err(epsilon_tilde(12, POINT_I, prec), 1j / mp.pi) < tol
        assert epsilon_tilde(14, POINT_I, prec) == 0
        assert rel_err(epsilon_tilde(6, POINT_RHO, prec), 3j / (2 * mp.pi)) < tol
        assert epsilon_tilde(8, POINT_RHO, prec) == 0


def test_basis_principal_part_simple(prec):
    for k, point in ((6, POINT_I), (6, POINT_RHO), (8, POINT_I)):
        pp = basis_principal_part(k, 0, point, prec)
        assert set(pp.coeffs) == {1}
        eps = epsilon_tilde(2 * k, point, prec)
        assert pp.coefficient(1) == eps


def test_basis_principal_part_vanishing(prec):
    assert basis_principal_part(13, 2, POINT_I, prec).is_empty()
    assert basis_principal_part(13, 0, POINT_I, prec).is_empty()


def test_basis_principal_part_top_coefficient(prec):
    # order-4 coefficient of the triple raise is 48/pi at i, independent of k
    with workprec(prec):
        for k in (13, 15):
            pp = basis_principal_part(k, 3, POINT_I, prec)
            assert rel_err(pp.coefficient(4), 48 / mp.pi) < mpf(2) ** (-prec + 16)


def test_quartic_pole_solution_closed_form(prec):
    # alpha/(z-i)^4 + beta/(z-i)^3 + gamma/(z-i)^2 + delta/(z-i) with the
    # congruence-forced beta and delta resolves to coefficients
    # alpha pi/48 on the triple raise and -(pi/2)(gamma + (2k+1)(k+1)alpha/4)
    # on the single raise, for any odd k.
    rng = random.Random(17)
    with workprec(prec):
        pi = mp.pi
        tol = mpf(2) ** (-prec + 48)
        for k in (13, 7, 11):
            alpha = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            gamma = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            beta = -(k + 1) * 1j * alpha
            delta = -k * 1j * gamma - 1j * k * (k + 1) * (2 * k + 1) / mpf(6) * alpha
            pp = PrincipalPart(POINT_I, {4: alpha, 3: beta, 2: gamma, 1: delta}, frozenset(), prec)
            rep = solve_basis([pp], k, prec)
            by_n = {t.n: t.a for t in rep.terms}
            assert set(by_n) == {3, 1}
            assert rel_err(by_n[3], alpha * pi / 48) < tol
            want1 = -(pi / 2) * (gamma + (2 * k + 1) * (k + 1) * alpha / 4)
            assert rel_err(by_n[1], want1) < tol


def test_solve_quartic_reciprocal(prec, e4i):
    pp = principal_part("1/E6^4", POINT_I, prec)
    rep = solve_basis([pp], 13, prec)
    with workprec(prec):
        pi = mp.pi
        by_n = {t.n: t.a for t in rep.terms}
        assert rel_err(by_n[3], 1 / (48 * pi**3 * e4i**8)) < mpf(10) ** -20
        assert rel_err(by_n[1], -7 / (27 * pi * e4i**7)) < mpf(10) ** -20


def test_solve_simple_poles(prec, e4i, e6rho):
    pps = [principal_part("1/E10", pt, prec) for pt in (POINT_I, POINT_RHO)]
    rep = solve_basis(pps, 6, prec)
    with workprec(prec):
        tol = mpf(2) ** (-prec + 48)
        for t in rep.terms:
            want = 1 / e4i**3 if t.point.tag == "i" else 1 / e6rho**2
            assert t.n == 0
            assert rel_err(t.a, want) < tol


def test_simple_pole_rep(prec, e6rho):
    # 1/E4 (k = 3) is holomorphic at i: its empty principal part there adds no term
    rep = solve_basis([principal_part("1/E4", pt, prec) for pt in (POINT_I, POINT_RHO)], 3, prec)
    assert len(rep.terms) == 1
    t = rep.terms[0]
    assert t.point.tag == "rho" and t.n == 0
    with workprec(prec):
        assert rel_err(t.a, 1 / e6rho) < mpf(2) ** (-prec + 48)


def test_congruence_gate(prec):
    # simple pole at i needs even k; at rho it needs 3 | k
    pp = PrincipalPart(POINT_I, {1: mpc(1)}, frozenset(), prec)
    with pytest.raises(BasisCongruenceError, match="no such meromorphic cusp form"):
        solve_basis([pp], 7, prec)
    pp2 = PrincipalPart(POINT_RHO, {1: mpc(1)}, frozenset(), prec)
    with pytest.raises(BasisCongruenceError):
        solve_basis([pp2], 7, prec)


def test_inconsistent_tails_rejected(prec):
    # beta must equal -(k+1) i alpha; anything else cannot be absorbed
    k = 13
    alpha = mpc(1)
    pp = PrincipalPart(
        POINT_I,
        {4: alpha, 3: -(k + 2) * 1j * alpha, 2: mpc(0), 1: mpc(0)},
        frozenset(),
        prec,
    )
    with pytest.raises(BasisResidualError, match="inconsistent"):
        solve_basis([pp], k, prec)


def test_round_trip_random(prec):
    rng = random.Random(101)
    with workprec(prec + 32):
        tol = mpf(2) ** (-prec + 32)
        for _ in range(30):
            point = rng.choice([POINT_I, POINT_RHO])
            k = rng.randint(2, 15)
            ns = [n for n in range(5) if (k + n) % point.omega == 0]
            if not ns:
                continue
            chosen = rng.sample(ns, rng.randint(1, len(ns)))
            terms = {
                n: mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)) for n in chosen
            }
            total = {}
            for n, a in terms.items():
                bpp = basis_principal_part(k, n, point, prec)
                for order, c in bpp.coeffs.items():
                    total[order] = total.get(order, mpc(0)) + a * c
            pp = PrincipalPart(point, total, frozenset(), prec)
            rep = solve_basis([pp], k, prec)
            got = {t.n: t.a for t in rep.terms}
            assert set(got) == set(terms)
            for n, a in terms.items():
                assert rel_err(got[n], a) < tol


def test_small_top_order_is_kept(prec):
    # the top order is the exact pole order, however small its coefficient
    # next to the lower ones: a 1e-40 multiple of R^2[H_12] on top of H_12
    k, small = 6, mpf(10) ** -40
    with workprec(prec + 32):
        total = {order: small * c for order, c in basis_principal_part(k, 2, POINT_I, prec).coeffs.items()}
        total[1] += basis_principal_part(k, 0, POINT_I, prec).coefficient(1)
    rep = solve_basis([PrincipalPart(POINT_I, total, frozenset(), prec)], k, prec)
    got = {t.n: t.a for t in rep.terms}
    assert set(got) == {0, 2}
    assert rel_err(got[2], small) < mpf(2) ** (-prec + 32)
    assert rel_err(got[0], 1) < mpf(2) ** (-prec + 32)


def test_inadmissible_representation_rejected():
    with pytest.raises(ValueError, match="inadmissible"):
        BasisRepresentation(7, (BasisTerm(POINT_I, 0, mpc(1)),))
