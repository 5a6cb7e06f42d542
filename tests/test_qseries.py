import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from conftest import reference_mul, reference_reciprocal
from meroforms.qseries import (
    Constant,
    Dee,
    FormParseError,
    Generator,
    Power,
    Product,
    Reciprocal,
    EISENSTEIN_COEFF,
    RationalQSeries,
    bernoulli,
    eisenstein_qseries,
    exact_str,
    make_eisenstein,
    oracle_coeffs,
    parse_form,
    sigma,
    split_e2_power,
)


def F(*xs):
    return tuple(Fraction(x) for x in xs)


def test_sigma_values():
    assert sigma(1, 3) == 1
    assert sigma(2, 3) == 9
    assert sigma(3, 1) == 4
    assert sigma(2, 5) == 33
    assert sigma(12, 1) == 28


def test_eisenstein_expansions():
    assert make_eisenstein(4, 2).coeffs == F(1, 240, 2160)
    assert make_eisenstein(2, 3).coeffs == F(1, -24, -72, -96)
    assert make_eisenstein(6, 2).coeffs == F(1, -504, -16632)


def test_eisenstein_errors():
    with pytest.raises(ValueError, match="weight not in"):
        make_eisenstein(8, 4)
    with pytest.raises(ValueError):
        make_eisenstein(4, -1)


def test_bernoulli_and_eisenstein_qseries():
    assert [bernoulli(n) for n in (0, 1, 2, 4, 12)] == [1, Fraction(-1, 2), Fraction(1, 6), Fraction(-1, 30), Fraction(-691, 2730)]
    assert all(bernoulli(n) == 0 for n in (3, 5, 7, 9))
    assert EISENSTEIN_COEFF == {2: -24, 4: 240, 6: -504, 10: -264}
    # E_8 = E_4^2 and E_14 = E_4^2 E_6 (one-dimensional spaces); E_12 = 1 + (65520/691) sum sigma_11(n) q^n
    e4, e6 = make_eisenstein(4, 30), make_eisenstein(6, 30)
    assert eisenstein_qseries(8, 30) == e4 * e4
    assert eisenstein_qseries(14, 30) == e4 * e4 * e6
    assert eisenstein_qseries(12, 2).coeffs == (1, Fraction(65520, 691), Fraction(65520 * 2049, 691))
    with pytest.raises(ValueError):
        eisenstein_qseries(3, 5)
    with pytest.raises(ValueError):
        eisenstein_qseries(12, -1)


def test_multiply_identities():
    e4 = make_eisenstein(4, 64)
    e6 = make_eisenstein(6, 64)
    assert e4 * e6 == make_eisenstein(10, 64)
    one = RationalQSeries.one(64)
    assert one * e4 == e4
    q = RationalQSeries([0, 1])
    assert (q * q).coeffs == F(0, 0)  # truncated to min order 1
    q2 = RationalQSeries([0, 1, 0])
    assert (q2 * q2).coeffs == F(0, 0, 1)


def test_truncation_is_min_of_operands():
    a = make_eisenstein(4, 10)
    b = make_eisenstein(6, 5)
    assert (a * b).truncation_order == 5
    assert (a + b).truncation_order == 5


def test_reciprocal():
    e4 = make_eisenstein(4, 8)
    inv = e4.reciprocal()
    assert inv.coeffs[:3] == F(1, -240, 55440)
    assert (e4 * inv) == RationalQSeries.one(8)
    e6inv4 = make_eisenstein(6, 4).reciprocal() ** 4
    assert e6inv4.coeffs[:2] == F(1, 2016)
    assert RationalQSeries.one(5).reciprocal() == RationalQSeries.one(5)
    with pytest.raises(ZeroDivisionError, match="not invertible"):
        RationalQSeries([0, 1, 2]).reciprocal()


def test_dee():
    e2 = make_eisenstein(2, 32)
    e4 = make_eisenstein(4, 32)
    assert e2.dee() * 12 == e2 * e2 - e4
    assert RationalQSeries.one(6).dee() == RationalQSeries.constant(0, 6)
    q = RationalQSeries([0, 1, 0])
    assert q.dee() == q


def test_ramanujan_system_exact_order_64():
    e2, e4, e6, e10 = (make_eisenstein(w, 64) for w in (2, 4, 6, 10))
    assert e4 * e6 == e10
    assert e2.dee() * 12 == e2 * e2 - e4
    assert e4.dee() * 3 == e2 * e4 - e6
    assert e6.dee() * 2 == e2 * e6 - e4 * e4


def test_oracle_examples():
    assert oracle_coeffs("1/E10", 1) == F(1, 264)
    assert oracle_coeffs("E2^0/E10", 1) == F(1, 264)
    assert oracle_coeffs("1/E6^4", 1) == F(1, 2016)


def test_oracle_dee():
    # D multiplies the m-th coefficient by m
    plain = oracle_coeffs("1/E10", 4)
    deed = oracle_coeffs("D(1/E10)", 4)
    assert deed == tuple(m * c for m, c in enumerate(plain))


def test_oracle_refuses_non_invertible_form():
    # D(E4) has constant term 0, so its reciprocal has no q-series
    with pytest.raises(ValueError, match="constant term 0"):
        oracle_coeffs("1/D(E4)", 3)


def test_parser_weights():
    assert parse_form("E2").weight == 2
    assert parse_form("E2^3 * E4/E6^2").weight == 3 * 2 + 4 - 12
    assert parse_form("D(1/E10)").weight == -8
    assert parse_form("1/E6^4").weight == -24
    assert parse_form("E6^-2").weight == -12
    assert parse_form("E4^0").weight == 0


def test_parser_errors():
    for bad in (
        "E3", "E4 +", "E4 * ", "(E4", "E4^x", "E4 E6",
        "-E4", "E4^2^3", "E4^1.5", "True", "'E4'", "E4.real", "E4[0]", "E4 + E6", "D(E4, E6)", "D(x=E4)",
        "__import__('os')", "lambda: E4", "E5", "E4\x00",
        "(" * 400 + "E4" + ")" * 400, "D(" * 400 + "E4" + ")" * 400, " * ".join(["E4"] * 5000),
    ):
        with pytest.raises(FormParseError):
            parse_form(bad)


# repr(parse_form(text)) for every form string in tests/, README.md and
# bench/workloads.py and some edge cases, recorded from the recursive-descent
# parser that the ast walker replaced
PARSED_TREES = {
    "(E2 * E6) / E10^2": "Product(factors=(Product(factors=(Generator(name='E2'), Generator(name='E6'))), Reciprocal(operand=Power(base=Generator(name='E10'), exponent=2))))",
    "0*(1/E6)": "Product(factors=(Constant(value=Fraction(0, 1)), Reciprocal(operand=Generator(name='E6'))))",
    "0/E6": "Product(factors=(Constant(value=Fraction(0, 1)), Reciprocal(operand=Generator(name='E6'))))",
    "1/(0*E6)": "Reciprocal(operand=Product(factors=(Constant(value=Fraction(0, 1)), Generator(name='E6'))))",
    "1/(2*E4)": "Reciprocal(operand=Product(factors=(Constant(value=Fraction(2, 1)), Generator(name='E4'))))",
    "1/(E2 * E10)": "Reciprocal(operand=Product(factors=(Generator(name='E2'), Generator(name='E10'))))",
    "1/(E4*E6)": "Reciprocal(operand=Product(factors=(Generator(name='E4'), Generator(name='E6'))))",
    "1/D(E4)": "Reciprocal(operand=Dee(operand=Generator(name='E4')))",
    "1/E10": "Reciprocal(operand=Generator(name='E10'))",
    "1/E10^10": "Reciprocal(operand=Power(base=Generator(name='E10'), exponent=10))",
    "1/E10^3": "Reciprocal(operand=Power(base=Generator(name='E10'), exponent=3))",
    "1/E10^40": "Reciprocal(operand=Power(base=Generator(name='E10'), exponent=40))",
    "1/E10^5": "Reciprocal(operand=Power(base=Generator(name='E10'), exponent=5))",
    "1/E10^7": "Reciprocal(operand=Power(base=Generator(name='E10'), exponent=7))",
    "1/E2": "Reciprocal(operand=Generator(name='E2'))",
    "1/E4": "Reciprocal(operand=Generator(name='E4'))",
    "1/E6": "Reciprocal(operand=Generator(name='E6'))",
    "1/E6^2": "Reciprocal(operand=Power(base=Generator(name='E6'), exponent=2))",
    "1/E6^4": "Reciprocal(operand=Power(base=Generator(name='E6'), exponent=4))",
    "1/E6^41": "Reciprocal(operand=Power(base=Generator(name='E6'), exponent=41))",
    "2 * E4": "Product(factors=(Constant(value=Fraction(2, 1)), Generator(name='E4')))",
    "D(1)": 'Dee(operand=Constant(value=Fraction(1, 1)))',
    "D(1/E10)": "Dee(operand=Reciprocal(operand=Generator(name='E10')))",
    "D(1/E6)": "Dee(operand=Reciprocal(operand=Generator(name='E6')))",
    "D(E2)": "Dee(operand=Generator(name='E2'))",
    "E10": "Generator(name='E10')",
    "E10/E6^4": "Product(factors=(Generator(name='E10'), Reciprocal(operand=Power(base=Generator(name='E6'), exponent=4))))",
    "E2": "Generator(name='E2')",
    "E2 * (1/E10)": "Product(factors=(Generator(name='E2'), Reciprocal(operand=Generator(name='E10'))))",
    "E2 * (1/E6^4)": "Product(factors=(Generator(name='E2'), Reciprocal(operand=Power(base=Generator(name='E6'), exponent=4))))",
    "E2 * D(1/E10)": "Product(factors=(Generator(name='E2'), Dee(operand=Reciprocal(operand=Generator(name='E10')))))",
    "E2 * E2 * (1/E10)": "Product(factors=(Generator(name='E2'), Generator(name='E2'), Reciprocal(operand=Generator(name='E10'))))",
    "E2 * E6": "Product(factors=(Generator(name='E2'), Generator(name='E6')))",
    "E2/E6^4": "Product(factors=(Generator(name='E2'), Reciprocal(operand=Power(base=Generator(name='E6'), exponent=4))))",
    "E2^0/E10": "Reciprocal(operand=Generator(name='E10'))",
    "E2^1 * (1/E10)": "Product(factors=(Generator(name='E2'), Reciprocal(operand=Generator(name='E10'))))",
    "E2^2 * (1/E10)": "Product(factors=(Power(base=Generator(name='E2'), exponent=2), Reciprocal(operand=Generator(name='E10'))))",
    "E2^2 * (E10/E6^4)": "Product(factors=(Power(base=Generator(name='E2'), exponent=2), Product(factors=(Generator(name='E10'), Reciprocal(operand=Power(base=Generator(name='E6'), exponent=4))))))",
    "E2^20 * (1/E10^20)": "Product(factors=(Power(base=Generator(name='E2'), exponent=20), Reciprocal(operand=Power(base=Generator(name='E10'), exponent=20))))",
    "E2^3 * E4/E6^2": "Product(factors=(Power(base=Generator(name='E2'), exponent=3), Generator(name='E4'), Reciprocal(operand=Power(base=Generator(name='E6'), exponent=2))))",
    "E2^30 * (1/E6^11)": "Product(factors=(Power(base=Generator(name='E2'), exponent=30), Reciprocal(operand=Power(base=Generator(name='E6'), exponent=11))))",
    "E2^4 * (1/E10)": "Product(factors=(Power(base=Generator(name='E2'), exponent=4), Reciprocal(operand=Generator(name='E10'))))",
    "E2^4 * (1/E6^4)": "Product(factors=(Power(base=Generator(name='E2'), exponent=4), Reciprocal(operand=Power(base=Generator(name='E6'), exponent=4))))",
    "E4": "Generator(name='E4')",
    "E4/3": "Product(factors=(Generator(name='E4'), Reciprocal(operand=Constant(value=Fraction(3, 1)))))",
    "E4/D(E6)": "Product(factors=(Generator(name='E4'), Reciprocal(operand=Dee(operand=Generator(name='E6')))))",
    "E4/E6^2": "Product(factors=(Generator(name='E4'), Reciprocal(operand=Power(base=Generator(name='E6'), exponent=2))))",
    "E4^0": 'Constant(value=Fraction(1, 1))',
    "E6": "Generator(name='E6')",
    "E6/E4^2": "Product(factors=(Generator(name='E6'), Reciprocal(operand=Power(base=Generator(name='E4'), exponent=2))))",
    "E6^-2": "Reciprocal(operand=Power(base=Generator(name='E6'), exponent=2))",
    "E6^2": "Power(base=Generator(name='E6'), exponent=2)",
    "E6^3": "Power(base=Generator(name='E6'), exponent=3)",
    "0": 'Constant(value=Fraction(0, 1))',
    "1": 'Constant(value=Fraction(1, 1))',
    "E2*E4/E6*E10": "Product(factors=(Generator(name='E2'), Generator(name='E4'), Reciprocal(operand=Generator(name='E6')), Generator(name='E10')))",
    "1/E6/E4": "Product(factors=(Reciprocal(operand=Generator(name='E6')), Reciprocal(operand=Generator(name='E4'))))",
    "E6^-1": "Reciprocal(operand=Generator(name='E6'))",
    "2^3": 'Power(base=Constant(value=Fraction(2, 1)), exponent=3)',
    "D(D(1/E6^2))": "Dee(operand=Dee(operand=Reciprocal(operand=Power(base=Generator(name='E6'), exponent=2))))",
}


@pytest.mark.parametrize("text", PARSED_TREES)
def test_parser_trees(text):
    assert repr(parse_form(text)) == PARSED_TREES[text]


def test_parser_fuzz():
    # Python's parser reads far more than forms: every string of form tokens
    # and other Python punctuation parses or raises FormParseError, nothing else
    rng = random.Random(20)
    tokens = "E2 E4 E6 E10 D ( ) * / ^ - + 0 1 2 7 . ,".split() + [" "]
    parsed = 0
    for _ in range(3000):
        text = "".join(rng.choice(tokens) for _ in range(rng.randint(1, 30)))
        try:
            expr = parse_form(text)
        except FormParseError:
            continue
        assert type(expr.weight) is int, text
        parsed += 1
    assert parsed > 0


def test_power_exponent_is_at_least_two():
    # the parser writes ^0, ^1 and negative powers as other nodes
    for exponent in (1, 0, -2):
        with pytest.raises(ValueError, match="exponent must be >= 2"):
            Power(Generator("E4"), exponent)


def test_split_e2_power():
    n, rest = split_e2_power(parse_form("E2^2 * (1/E10)"))
    assert n == 2 and rest.weight == -10
    n, rest = split_e2_power(parse_form("1/E6^4"))
    assert n == 0 and rest.weight == -24
    n, rest = split_e2_power(parse_form("E2 * E2 * (1/E10)"))
    assert n == 2
    with pytest.raises(FormParseError):
        split_e2_power(parse_form("1/(E2 * E10)"))


def test_exact_str_beyond_int_str_limit():
    # str() of an int refuses more than 4300 digits by default
    s = RationalQSeries([1, Fraction(10**4300 + 1, 3)])
    digits = "1" + "0" * 4299 + "1/3"
    assert [exact_str(c) for c in s.coeffs] == ["1", digits]
    assert exact_str(Fraction(-(10**4300))) == "-1" + "0" * 4300
    assert digits in repr(s)


def test_power_and_constants():
    e4 = make_eisenstein(4, 6)
    assert e4**0 == RationalQSeries.one(6)
    assert e4**-1 == e4.reciprocal()
    assert parse_form("2 * E4").qseries(2).coeffs == F(2, 480, 4320)
    assert isinstance(parse_form("1"), Constant)


def _random_coeffs(rng, length):
    """Mixed integer and non-integer coefficients, about a third of them 0."""
    return [
        Fraction(rng.randint(-50, 50), rng.choice((1, 1, 2, 3, 7, 691))) if rng.random() < 0.7 else Fraction(0)
        for _ in range(length)
    ]


def _property_series(seed):
    rng = random.Random(seed)
    fixed = [
        [Fraction(2), Fraction(3), Fraction(1, 5)],  # non-unit constant term
        [Fraction(-3, 4), Fraction(1), Fraction(0), Fraction(5, 6), Fraction(-2)],
        [Fraction(0), Fraction(0), Fraction(3), Fraction(1, 2)],  # zero leading coefficients
        [Fraction(0)] * 4,
        [Fraction(1)],
    ]
    drawn = [_random_coeffs(rng, rng.randint(1, 9)) for _ in range(12)]
    return fixed + drawn


def _assert_matches(series, reference):
    """The series equals the Fraction reference in every public view, and
    its numerators over one positive denominator are reduced."""
    reference = tuple(Fraction(c) for c in reference)
    assert series.coeffs == reference
    assert all(type(c) is Fraction for c in series.coeffs)
    assert series == RationalQSeries(reference)
    assert hash(series) == hash(reference)
    assert [exact_str(c) for c in series.coeffs] == [str(c) for c in reference]
    assert all(type(x) is int for x in series.numerators)
    assert series.denominator > 0 and gcd(series.denominator, *series.numerators) == 1


def _reference_power(a, e):
    if e < 0:
        return _reference_power(reference_reciprocal(a), -e)
    return reduce(reference_mul, [a] * e, (Fraction(1),) + (Fraction(0),) * (len(a) - 1))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_operations_match_fraction_reference(seed):
    rng = random.Random(100 + seed)
    pool = _property_series(seed)
    for a in pool:
        sa = RationalQSeries(a)
        _assert_matches(sa, a)
        _assert_matches(-sa, [-x for x in a])
        _assert_matches(sa.dee(), [n * x for n, x in enumerate(a)])
        for scalar in (3, Fraction(-5, 7), 0):
            _assert_matches(sa * scalar, [x * scalar for x in a])
            _assert_matches(scalar * sa, [x * scalar for x in a])
        for e in (0, 1, 2, 3):
            _assert_matches(sa**e, _reference_power(a, e))
        if a[0] != 0:
            _assert_matches(sa.reciprocal(), reference_reciprocal(a))
            _assert_matches(sa**-2, _reference_power(a, -2))
        else:
            with pytest.raises(ZeroDivisionError, match="not invertible"):
                sa.reciprocal()
        # a second operand of another truncation order
        b = rng.choice(pool)
        sb = RationalQSeries(b)
        n = min(len(a), len(b))
        _assert_matches(sa * sb, reference_mul(a, b))
        _assert_matches(sa + sb, [x + y for x, y in zip(a[:n], b[:n])])
        _assert_matches(sa - sb, [x - y for x, y in zip(a[:n], b[:n])])
        _assert_matches(sa + Fraction(1, 3), [a[0] + Fraction(1, 3)] + a[1:])
        _assert_matches(2 - sa, [2 - a[0]] + [-x for x in a[1:]])


def _reference_oracle(expr, order):
    """Coefficients of an expression tree from the Fraction reference loops."""
    if isinstance(expr, Generator):
        c = -2 * expr.weight / bernoulli(expr.weight)
        return (Fraction(1),) + tuple(c * sigma(n, expr.weight - 1) for n in range(1, order + 1))
    if isinstance(expr, Constant):
        return (Fraction(expr.value),) + (Fraction(0),) * order
    if isinstance(expr, Product):
        return reduce(reference_mul, (_reference_oracle(f, order) for f in expr.factors))
    if isinstance(expr, Power):
        return _reference_power(_reference_oracle(expr.base, order), expr.exponent)
    if isinstance(expr, Reciprocal):
        return reference_reciprocal(_reference_oracle(expr.operand, order))
    if isinstance(expr, Dee):
        return tuple(n * c for n, c in enumerate(_reference_oracle(expr.operand, order)))
    raise TypeError(expr)


@pytest.mark.parametrize(
    "form",
    [
        "E4/3", "1/(2*E4)", "D(1/E10)", "E2^4 * (1/E6^4)",
        "(1/E6)^4", "(E4/E6)^2 * E10", "D(E4/E6^2)", "D(D(1/E6^2))", "E4 * D(1/E10) / E6", "1/(2*E4)^3",
    ],
)
def test_oracle_matches_fraction_reference(form):
    got = oracle_coeffs(form, 60)
    assert got == _reference_oracle(parse_form(form), 60)
    assert all(type(c) is Fraction for c in got)


def test_eisenstein_691_denominators():
    e12 = eisenstein_qseries(12, 30)
    want = [Fraction(1)] + [Fraction(65520, 691) * sigma(n, 11) for n in range(1, 31)]
    _assert_matches(e12, want)
    assert e12.denominator == 691


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_truediv_matches_fraction_reference(seed):
    # the pool has non-unit constant terms, 691 denominators and series of
    # every length from 1 to 9, so most pairs divide at unequal orders
    pool = _property_series(seed) + [
        [Fraction(65520, 691) * x for x in range(1, 7)],  # non-unit constant term over 691
        [Fraction(-691), Fraction(1, 691), Fraction(0), Fraction(5, 3)],
    ]
    for a in pool:
        for b in pool:
            sa, sb = RationalQSeries(a), RationalQSeries(b)
            if b[0] == 0:
                with pytest.raises(ZeroDivisionError, match="not invertible"):
                    sa / sb
                continue
            _assert_matches(sa / sb, reference_mul(a, reference_reciprocal(b)))
        if a[0] != 0:
            _assert_matches(RationalQSeries(a).reciprocal(), reference_reciprocal(a))
            _assert_matches(1 - RationalQSeries(a) / Fraction(3, 691), [1 - a[0] * Fraction(691, 3)] + [-x * Fraction(691, 3) for x in a[1:]])


BIG = 10**4300


@pytest.mark.parametrize(
    "a, b",
    [
        ([BIG + 1, -(BIG - 7), 3, -(BIG // 10)], [-BIG, 1, BIG - 1, 5]),  # signed, near 10^4300
        ([-BIG, BIG, -BIG], [BIG, BIG, BIG]),
        ([0] * 5, [3, -1, 4, 1, -5]),  # all zero
        ([0] * 3, [0] * 3),
        ([7], [-3]),  # order 0
        ([-BIG], [BIG]),
        ([1, 1, 0, 0], [1, -1, 0, 0]),  # (1 + q)(1 - q): slots 1 and 3 cancel to 0
        ([BIG, BIG, 0], [BIG, -BIG, 0]),
        ([1, 1], [1, -5]),  # a negative top slot
        ([2, -3, 0, 1], [5, 4, -7, -9, 11, 8]),  # negative top slot, longer operand truncated
        ([-1, -(2**64), -(2**63) + 1], [2**64 - 1, -(2**64), 2**63]),  # coefficients at byte edges
    ],
)
def test_packed_product_edge_cases(a, b):
    sa, sb = RationalQSeries(a), RationalQSeries(b)
    _assert_product(sa * sb, reference_mul(a, b))
    _assert_product(sb * sa, reference_mul(a, b))
    _assert_product(sa * sa, reference_mul(a, a))  # one packed int squared


def test_packed_product_over_denominators():
    a = [Fraction(BIG, 691), Fraction(-1, 3), Fraction(0), Fraction(-BIG + 1, 7)]
    b = [Fraction(-5, 691), Fraction(BIG), Fraction(2, 3), Fraction(-1)]
    _assert_product(RationalQSeries(a) * RationalQSeries(b), reference_mul(a, b))


def _assert_product(series, reference):
    """``_assert_matches`` without ``str``, which refuses over 4300 digits."""
    assert series.coeffs == reference and series == RationalQSeries(reference)
    assert all(type(x) is int for x in series.numerators)
    assert series.denominator > 0 and gcd(series.denominator, *series.numerators) == 1


def _count_divisions(monkeypatch):
    calls = []
    inner = RationalQSeries.__truediv__

    def counting(self, other):
        calls.append(other)
        return inner(self, other)

    monkeypatch.setattr(RationalQSeries, "__truediv__", counting)
    return calls


@pytest.mark.parametrize(
    "form, divisions",
    [
        ("E2^4 * (1/E6^4)", 1), ("(1/E6)^4", 1), ("1/E6/E4", 1), ("E2*E4/E6*E10", 1), ("D(D(1/E6^2))", 1),
        ("E4 * D(1/E10) / E6", 2), ("1/(2*E4)^3", 1), ("(E4/E6)^2 * D(E4/E6^2)", 2), ("E4/3", 1),
        ("E2^4", 0), ("D(E4) * E6^3", 0), ("D(D(E2))", 0), ("2^3", 0),
    ],
)
def test_oracle_divides_once(monkeypatch, form, divisions):
    # the tree is evaluated as numerator / denominator: every reciprocal in a
    # form lands in the one denominator, divided out once at the end (a
    # reciprocal of a reciprocal cancels, and so divides nothing); a D(...)
    # of a quotient divides its operand once, however deep the D's nest
    calls = _count_divisions(monkeypatch)
    assert parse_form(form).has_reciprocal() == (divisions > 0)
    oracle_coeffs(form, 40)
    assert len(calls) == divisions


def test_nested_dee_divides_by_the_operand_denominator(monkeypatch):
    # D^k(1/E6) is one division by E6 and k passes of D; the quotient rule
    # would divide by E6^(2^k) and widen every coefficient 2^k-fold
    depth, order = 12, 40
    calls = _count_divisions(monkeypatch)
    got = oracle_coeffs("D(" * depth + "1/E6" + ")" * depth, order)
    assert len(calls) == 1 and calls[0] == make_eisenstein(6, order)
    want = reference_reciprocal(make_eisenstein(6, order).coeffs)
    assert list(got) == [n**depth * x for n, x in enumerate(want)]


def test_negative_power_divides_once(monkeypatch):
    e6 = make_eisenstein(6, 30)
    want = e6.reciprocal() * e6.reciprocal() * e6.reciprocal()
    calls = _count_divisions(monkeypatch)
    assert e6**-3 == want
    assert len(calls) == 1 and calls[0] == e6**3


@pytest.mark.parametrize("form", ["1/D(E4)", "E4/(E6*D(E4))", "1/(1/D(E4))", "D(1/D(E4))"])
def test_oracle_refuses_zero_constant_term_anywhere(form):
    expr = parse_form(form)
    with pytest.raises(ValueError) as info:
        oracle_coeffs(form, 5)
    assert str(info.value) == f"{expr} divides by a q-series with constant term 0, so it is not bounded at the cusp"
