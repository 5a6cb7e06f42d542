from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf, workprec

from meroforms import (
    POINT_I,
    POINT_RHO,
    assemble_coefficient,
    coefficients,
    quasi_expansion,
    simple_pole_quasi_coeff,
)
import meroforms.engine as engine
import meroforms.quasi as quasi
from meroforms.constants import GUARD_BITS, generic_point
from meroforms.expansion import _add, _dz, _mul, _pow, _scale, laurent_at, principal_part_from_laurent, taylor_at, valuation
from meroforms.qseries import Generator, oracle_coeffs, parse_form
from meroforms.quasi import f_combination_coeff
from meroforms.solver import BasisRepresentation, BasisTerm, solve_basis

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
    # step j takes E_2^j f from E_2^(j-1) f and one more derivative of each
    # E_2^d f, d < j: n products and n(n+1)/2 derivatives per pole
    calls = {"_mul": [], "_dz": []}
    for name, log in calls.items():
        inner = getattr(quasi, name)

        def counting(a, *rest, inner=inner, log=log):
            log.append(a.point)
            return inner(a, *rest)

        monkeypatch.setattr(quasi, name, counting)
    quasi.quasi_expansion("1/E10^3", 6, prec).aux_reps  # the first read builds F_1..F_6
    for point in (POINT_I, POINT_RHO):
        assert calls["_mul"].count(point) == 6
        assert calls["_dz"].count(point) == 21


def _aux_reps_from_scratch(form, n, precision):
    """F_1..F_n as the auxiliary forms were first built: E_2^(j-l) f by
    ``_pow`` for every (j, l), differentiated l times from scratch."""
    expr = parse_form(form)
    k = (2 - expr.weight) // 2
    laurents = {p: laurent_at(expr, p, precision, depth=n + 6) for p in (POINT_I, POINT_RHO) if valuation(expr, p) < 0}
    e2s = {p: taylor_at(Generator("E2"), p, -lf.lowest_order + n + 6, precision) for p, lf in laurents.items()}
    reps = {}
    with workprec(precision + GUARD_BITS):
        for j in range(1, n + 1):
            pps = []
            for point, lf in laurents.items():
                combo = None
                for l in range(j + 1):
                    coeff = f_combination_coeff(k, j, l)
                    factor = mpf(coeff.numerator) / coeff.denominator * (mp.pi / 3) ** (j - l) * mpc(0, 2) ** l
                    term = _mul(_pow(e2s[point], j - l), lf)
                    for _ in range(l):
                        term = _dz(term)
                    combo = _scale(term, factor) if combo is None else _add(combo, _scale(term, factor))
                pps.append(principal_part_from_laurent(combo))
            reps[j] = solve_basis(pps, k - j, precision)
    return reps


@pytest.mark.parametrize("precision", [128, 256])
@pytest.mark.parametrize("form, n", [("1/E10^3", 6), ("1/E6^4", 3), ("1/E10", 4)])
def test_aux_reps_match_construction_from_scratch(form, n, precision):
    # the running product changes only E_2^d f for d >= 2, in trailing bits
    got = quasi_expansion(form, n, precision).aux_reps
    want = _aux_reps_from_scratch(form, n, precision)
    assert got[1] == want[1]
    for j in range(1, n + 1):
        assert [(t.point, t.n) for t in got[j].terms] == [(t.point, t.n) for t in want[j].terms], j
        with workprec(precision + 64):
            largest = max(abs(t.a) for t in want[j].terms)
            for g, w in zip(got[j].terms, want[j].terms):
                assert abs(g.a - w.a) <= mpf(2) ** -(precision + 8) * largest, (j, w.point, w.n)


def test_simple_route_validity_window(prec):
    rep = quasi_expansion("1/E10", 0, prec).f_rep
    with pytest.raises(ValueError, match="validity"):
        simple_pole_quasi_coeff(rep, 5, 0, 800, prec)  # k = 6 allows j <= 4
    rep6 = quasi_expansion("1/E6^4", 0, prec).f_rep
    with pytest.raises(ValueError, match="simple"):
        simple_pole_quasi_coeff(rep6, 1, 0, 800, prec)


def test_simple_route_refuses_a_generic_pole(prec):
    # ideal sums exist only at i and rho: a simple pole elsewhere has no
    # simple route and no ideal-sum family
    rep = BasisRepresentation(6, (BasisTerm(generic_point(mpc(0.3, 1.1)), 0, mpc(1)),))
    message = "simple-pole route needs poles at i or rho"
    assert quasi.simple_route_error(rep, 0) == message
    with pytest.raises(ValueError, match=message):
        simple_pole_quasi_coeff(rep, 0, 0, 800, prec)
    assert engine.block_families([rep], (0, 1)) == {}


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


@pytest.mark.parametrize(
    "form, message",
    [("E2 * (1/E6^4)", "pass its power as n"), ("D(1/E6)", r"D\(\.\.\.\) is not modular"), ("E2 * D(1/E10)", "not modular")],
)
def test_quasi_forms_rejected(prec, form, message, monkeypatch):
    # refused as input before any expansion, not as a failed solve
    def expand(*args, **kwargs):
        raise AssertionError("expanded a form it should refuse")

    monkeypatch.setattr(quasi, "laurent_at", expand)
    with pytest.raises(ValueError, match=message):
        quasi_expansion(form, 0, prec)


def test_no_poles_rejected(prec):
    with pytest.raises(ValueError, match="no poles"):
        quasi_expansion("1/E2", 0, prec)


def test_one_shot_wrapper(prec):
    got = quasi_expansion("1/E10", 1, prec).coefficient(1, 900)
    want = oracle_value("E2 * (1/E10)", 1)
    assert rel_err(got.value, want) < mpf(10) ** -8


@pytest.mark.parametrize(
    "form, f, n, norm_bound",
    [("E2^4 * (1/E10)", "1/E10", 4, 800), ("E2 * (1/E6^4)", "1/E6^4", 1, 400)],
)
def test_coefficients_match_quasi_expansion(prec, form, f, n, norm_bound):
    # the simple route, then the general one
    ms = [0, 1, 2, 3]
    got = coefficients(form, ms, norm_bound=norm_bound, precision=prec)
    want = quasi_expansion(f, n, prec).coefficients(ms, norm_bound)
    assert [(r.value, r.tail_bound) for r in got] == [(r.value, r.tail_bound) for r in want]


def test_coefficients_read_ms_once(prec):
    # a one-shot iterator was consumed by the type check, and the call ended
    # in "max() arg is an empty sequence"
    want = coefficients("1/E6", [0, 1], norm_bound=200, precision=prec)
    got = coefficients("1/E6", (m for m in [0, 1]), norm_bound=200, precision=prec)
    assert [(r.value, r.tail_bound) for r in got] == [(r.value, r.tail_bound) for r in want]


def test_coefficients_check_the_floor_at_the_form_poles(prec):
    # 1/E4 has its one pole at rho, where m = 10 needs a norm bound of 109;
    # at i it needs 126
    assert len(coefficients("1/E4", [10], norm_bound=120, precision=prec)) == 1
    with pytest.raises(ValueError, match="^norm_bound 120 below required 126$"):
        coefficients("1/E6", [10], norm_bound=120, precision=prec)


@pytest.mark.parametrize(
    "form, ms, message",
    [
        ("1/E6^41", [0], "^pole order plus E2 power must be <= 40, got 41$"),
        ("E2^30 * (1/E6^11)", [0], "^pole order plus E2 power must be <= 40, got 41$"),
        ("D(1/E6)", [0], r"^D\(\.\.\.\) is not modular"),
        ("0/E6", [0], "has a factor 0"),
        ("E4", [0], "^expression weight 4 is not a negative even integer$"),
        ("(E2 * E6) / E10^2", [0], "only as a top-level factor"),
        ("1/E6", [], "m >= 0"),
        ("1/E6", [-1], "m >= 0"),
        ("1/E6", [10], "^norm_bound 120 below required 126$"),
    ],
)
def test_coefficients_refuse_before_expanding(form, ms, message, monkeypatch):
    def expand(*args, **kwargs):
        raise AssertionError("expanded a form it should refuse")

    monkeypatch.setattr(quasi, "laurent_at", expand)
    with pytest.raises(ValueError, match=message):
        coefficients(form, ms, norm_bound=120)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        # each failed deep inside: ring_power's float-int TypeError, a
        # str < int comparison, an AttributeError on float.bit_length, and a
        # -5-bit run that returned a(0) = 0.99999999255 with tail 0
        ({"ms": [0.5]}, r"^ms: need one or more ints m >= 0, got \[0\.5\]$"),
        ({"ms": [1.0]}, r"^ms: need one or more ints m >= 0, got \[1\.0\]$"),
        ({"ms": ["1"]}, r"^ms: need one or more ints m >= 0, got \['1'\]$"),
        ({"norm_bound": 100.5}, r"^norm_bound must be an int, got 100\.5$"),
        ({"precision": -5}, r"^precision must be a positive int, got -5$"),
        # a bool is an int to Python: True ran the formula at 1 bit (1/E6 at
        # m = 1 came back as 504.000000059605), read as m = 1, and met the
        # norm-bound floor as 1
        ({"precision": True}, r"^precision must be a positive int, got True$"),
        ({"ms": [True]}, r"^ms: need one or more ints m >= 0, got \[True\]$"),
        ({"ms": [0, False]}, r"^ms: need one or more ints m >= 0, got \[0, False\]$"),
        ({"norm_bound": True}, r"^norm_bound must be an int, got True$"),
    ],
)
def test_coefficients_refuse_argument_types_before_parsing(kwargs, message, monkeypatch):
    def fail(*args, **kw):
        raise AssertionError("parsed or expanded despite a bad argument")

    monkeypatch.setattr(quasi, "parse_form", fail)
    monkeypatch.setattr(quasi, "laurent_at", fail)
    call = {"ms": [0], "norm_bound": 120, **kwargs}
    with pytest.raises(ValueError, match=message):
        coefficients("1/E6", **call)


def test_simple_route_solves_f_alone(prec, monkeypatch):
    # supp's form E_2^4 / E_10 takes the simple-pole route, which reads f's
    # own representation only: one basis solve, no E_2 expansion, no F_j
    calls = {"solve_basis": 0, "taylor_at": 0}
    for name in calls:
        inner = getattr(quasi, name)

        def counting(*args, name=name, inner=inner):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(quasi, name, counting)
    qe = quasi.quasi_expansion("1/E10", 4, prec)
    qe.coefficients((0, 1), 400)
    assert calls == {"solve_basis": 1, "taylor_at": 0}
    assert "aux_reps" not in vars(qe)


def test_aux_reps_are_built_on_first_read(prec):
    # the machine that took the simple route builds F_1..F_4 when the
    # recursion first asks, the same numbers as a machine that reads them
    # at once (which the construction from scratch checks above)
    qe = quasi_expansion("1/E10", 4, prec)
    qe.coefficients((0, 1), 400)
    assert "aux_reps" not in vars(qe)
    got = qe.coefficient_of_power(2, 1, 400)
    assert "aux_reps" in vars(qe)
    at_once = quasi_expansion("1/E10", 4, prec)
    assert at_once.aux_reps == qe.aux_reps
    want = at_once.coefficient_of_power(2, 1, 400)
    assert (got.value, got.tail_bound) == (want.value, want.tail_bound)
