"""Laurent and Taylor expansions of form expressions at points of H.

Expressions are expanded in t = z - tau0 by pushing derivative jets
through the expression tree with series arithmetic.  Pole and zero
orders are exact, never read off coefficient sizes: ``valuation`` takes
them from the tree (a generator of weight w != 2 vanishes simply where
``EllipticPoint.vanishes(w)``: E_6 at i, E_4 at rho, E_10 at both),
and every node's series starts at its leading coefficient, so its
``lowest_order`` is its valuation.  Generators drop the exact zero of
their value and D the exact-zero derivative of a constant term; a zero
lead left under a reciprocal or at the root of ``laurent_at`` (as in
D(1)) raises ``ExpansionError``.  To reach order ``depth``, every series
holds depth - v + 1 terms, v the root's valuation, plus one per D node.

A generic point must lie off the orbits of i and rho, where E_4 or E_6
vanishes with no exact zero to drop; expanding there would need the
multiplicity passed in.  Principal parts extracted here feed the basis
solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from mpmath import mp, mpc, mpf, workprec

from .constants import (
    DEFAULT_PRECISION,
    GUARD_BITS,
    EllipticPoint,
    cauchy,
    derivative_jet,
)
from .qseries import (
    Constant,
    Dee,
    FormExpression,
    Generator,
    Power,
    Product,
    Reciprocal,
    parse_form,
)


class ExpansionError(ArithmeticError):
    pass


@dataclass
class LaurentSeries:
    """Coefficients of (z - tau0)^n for n = lowest_order .. lowest_order+len-1.

    Orders below ``lowest_order`` are exactly zero; orders above the stored
    window are unknown (truncated).
    """

    point: EllipticPoint
    lowest_order: int
    coeffs: list
    precision: int

    def __len__(self) -> int:
        return len(self.coeffs)

    def coefficient(self, order: int) -> mpc:
        if order < self.lowest_order:
            return mpc(0)
        idx = order - self.lowest_order
        if idx >= len(self.coeffs):
            raise IndexError(f"order {order} beyond computed window")
        return self.coeffs[idx]


def _mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    out = [cauchy(a.coeffs, b.coeffs, r) for r in range(min(len(a), len(b)))]
    return LaurentSeries(a.point, a.lowest_order + b.lowest_order, out, a.precision)


def _scale(a: LaurentSeries, factor) -> LaurentSeries:
    return LaurentSeries(a.point, a.lowest_order, [factor * c for c in a.coeffs], a.precision)


def _add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    lo = min(a.lowest_order, b.lowest_order)
    top = min(a.lowest_order + len(a), b.lowest_order + len(b))
    if top <= lo:
        raise ExpansionError("series windows do not overlap")
    out = [mpc(0)] * (top - lo)
    for s in (a, b):
        for i, c in enumerate(s.coeffs):
            pos = s.lowest_order + i - lo
            if 0 <= pos < len(out):
                out[pos] += c
    return LaurentSeries(a.point, lo, out, a.precision)


def _pow(a: LaurentSeries, exponent: int) -> LaurentSeries:
    result = LaurentSeries(a.point, 0, [mpc(1)] + [mpc(0)] * (len(a) - 1), a.precision)
    base = a
    e = exponent
    while e:
        if e & 1:
            result = _mul(result, base)
        e >>= 1
        if e:
            base = _mul(base, base)
    return result


def _dz(a: LaurentSeries) -> LaurentSeries:
    """d/dt; a series starting at order 0 drops that order's exact-zero derivative."""
    out = [(a.lowest_order + i) * c for i, c in enumerate(a.coeffs)]
    if a.lowest_order == 0:
        return LaurentSeries(a.point, 0, out[1:], a.precision)
    return LaurentSeries(a.point, a.lowest_order - 1, out, a.precision)


def _check_lead(a: LaurentSeries) -> None:
    if a.coeffs[0] == 0:
        raise ExpansionError("cannot determine vanishing order")


def _reciprocal(a: LaurentSeries) -> LaurentSeries:
    _check_lead(a)
    unit = a.coeffs
    n = len(unit)
    inv = [mpc(0)] * n
    inv[0] = 1 / unit[0]
    for k in range(1, n):
        acc = mpc(0)
        for i in range(1, k + 1):
            acc += unit[i] * inv[k - i]
        inv[k] = -acc / unit[0]
    return LaurentSeries(a.point, -a.lowest_order, inv, a.precision)


# --------------------------------------------------------------------------
# Expression evaluation.


def valuation(expr: FormExpression, point: EllipticPoint) -> int:
    """Exact t-adic valuation of the expression at the point (negative for
    poles): the order of its leading coefficient.  A zero constant has
    none, so an expression holding one raises ``ValueError``."""
    if isinstance(expr, Generator):
        return int(expr.weight != 2 and point.vanishes(expr.weight))  # E_2 is not modular
    if isinstance(expr, Constant):
        if expr.value == 0:
            raise ValueError("the form has a factor 0, so it is identically zero or divides by zero")
        return 0
    if isinstance(expr, Product):
        return sum(valuation(f, point) for f in expr.factors)
    if isinstance(expr, Power):
        return expr.exponent * valuation(expr.base, point)
    if isinstance(expr, Reciprocal):
        return -valuation(expr.operand, point)
    if isinstance(expr, Dee):
        v = valuation(expr.operand, point)
        return v - 1 if v != 0 else 0
    raise TypeError(f"unknown expression node {type(expr)!r}")


class _Evaluator:
    """Series of ``n_terms`` terms from each node's leading coefficient."""

    def __init__(self, point: EllipticPoint, n_terms: int, precision: int):
        self.point = point
        self.n_terms = n_terms
        self.precision = precision
        # one order more than n_terms - 1 covers a generator's dropped zero
        self.jet = derivative_jet(point, n_terms, precision)

    def eval(self, expr: FormExpression) -> LaurentSeries:
        if isinstance(expr, Generator):
            v = valuation(expr, self.point)
            coeffs = self.jet.table[expr.weight]
            if v and coeffs[0] != 0:
                raise ExpansionError(f"{expr} is not exactly 0 at {self.point}")
            return LaurentSeries(self.point, v, coeffs[v : v + self.n_terms], self.precision)
        if isinstance(expr, Constant):
            coeffs = [mpc(expr.value.numerator) / expr.value.denominator]
            coeffs += [mpc(0)] * (self.n_terms - 1)
            return LaurentSeries(self.point, 0, coeffs, self.precision)
        if isinstance(expr, Product):
            out = self.eval(expr.factors[0])
            for f in expr.factors[1:]:
                out = _mul(out, self.eval(f))
            return out
        if isinstance(expr, Power):
            return _pow(self.eval(expr.base), expr.exponent)
        if isinstance(expr, Reciprocal):
            return _reciprocal(self.eval(expr.operand))
        if isinstance(expr, Dee):
            inner = _dz(self.eval(expr.operand))
            return _scale(inner, 1 / (2j * mp.pi))
        raise TypeError(f"unknown expression node {type(expr)!r}")


def _expand(expr: FormExpression, point: EllipticPoint, depth: int, precision: int) -> LaurentSeries:
    """Orders valuation .. max(depth, valuation) of the expression."""
    n_terms = max(depth - valuation(expr, point) + 1, 1)
    n_dee = sum(isinstance(node, Dee) for node in expr.nodes())
    with workprec(precision + GUARD_BITS):
        series = _Evaluator(point, n_terms + n_dee, precision).eval(expr)
    return LaurentSeries(point, series.lowest_order, series.coeffs[:n_terms], precision)


def taylor_at(
    expr: FormExpression | str,
    point: EllipticPoint,
    depth: int,
    precision: int = DEFAULT_PRECISION,
) -> LaurentSeries:
    """Taylor expansion (orders 0..depth) of a reciprocal-free expression."""
    if isinstance(expr, str):
        expr = parse_form(expr)
    if expr.has_reciprocal():
        raise ExpansionError("expression has a reciprocal; use laurent_at")
    series = _expand(expr, point, depth, precision)
    coeffs = [series.coefficient(n) for n in range(depth + 1)]
    return LaurentSeries(point, 0, coeffs, precision)


def laurent_at(
    expr: FormExpression | str,
    point: EllipticPoint,
    precision: int = DEFAULT_PRECISION,
    depth: int | None = None,
) -> LaurentSeries:
    """Laurent expansion from the exact valuation, whose coefficient must
    be nonzero, up to order ``depth`` (default 6), or the leading term
    alone when the valuation exceeds ``depth``."""
    if depth is not None and depth < 0:
        raise ValueError("depth must be >= 0")
    if isinstance(expr, str):
        expr = parse_form(expr)
    series = _expand(expr, point, 6 if depth is None else depth, precision)
    _check_lead(series)
    return series


@dataclass
class PrincipalPart:
    """Negative-order Laurent data at a point.

    ``coeffs[n]`` (n >= 1) is the coefficient of (z - tau0)^-n.  No order
    is zeroed for being small, so ``flagged_zero_orders`` is always empty;
    the field stays for callers that build a principal part positionally.
    """

    point: EllipticPoint
    coeffs: dict
    flagged_zero_orders: frozenset
    precision: int

    @property
    def max_order(self) -> int:
        live = [n for n, c in self.coeffs.items() if c != 0]
        return max(live) if live else 0

    def coefficient(self, order: int) -> mpc:
        return self.coeffs.get(order, mpc(0))

    def is_empty(self) -> bool:
        return self.max_order == 0


def principal_part(
    expr: FormExpression | str,
    point: EllipticPoint,
    precision: int = DEFAULT_PRECISION,
) -> PrincipalPart:
    """Principal part of the expression at the point (empty when no pole)."""
    if isinstance(expr, str):
        expr = parse_form(expr)
    if valuation(expr, point) >= 0:
        return PrincipalPart(point, {}, frozenset(), precision)
    return principal_part_from_laurent(laurent_at(expr, point, precision))


def principal_part_from_laurent(series: LaurentSeries) -> PrincipalPart:
    """The negative orders of the series, every one as computed."""
    coeffs = {-order: series.coefficient(order) for order in range(series.lowest_order, 0)}
    return PrincipalPart(series.point, coeffs, frozenset(), series.precision)


def x_coefficients(pp: PrincipalPart, k: int, precision: int | None = None) -> dict:
    """Negative coefficients b_{-j} of the elliptic expansion
    (z - conj(tau0))^(2k-2) * sum b_m ((z - tau0)/(z - conj(tau0)))^m
    recovered from a principal part of a weight 2-2k form."""
    precision = precision or pp.precision
    if pp.is_empty():
        return {}
    top = pp.max_order
    with workprec(precision + GUARD_BITS):
        v0 = pp.point.v0(precision)
        base = 2j * v0
        gamma = {p: pp.coefficient(p) / base ** (2 * k - 2 + p) for p in range(1, top + 1)}
        b = {}
        for p in range(top, 0, -1):
            acc = gamma[p]
            for j in range(p + 1, top + 1):
                acc -= comb(2 * k - 2 + j, j - p) * b[j]
            b[p] = acc
        return b


def congruence_defect(pp: PrincipalPart, k: int, precision: int | None = None) -> mpf:
    """Largest misplaced elliptic-expansion coefficient, relative to the
    largest one.  Orders j with j = 1-k (mod omega), where the point does not
    ``vanishes`` at weight 2(k+j-1), are the admissible ones; anything else
    must vanish for a genuine weight 2-2k form."""
    b = x_coefficients(pp, k, precision)
    if not b:
        return mpf(0)
    scale = max(abs(c) for c in b.values())
    if scale == 0:
        return mpf(0)
    bad = [abs(c) for j, c in b.items() if pp.point.vanishes(2 * (k + j - 1))]
    return max(bad) / scale if bad else mpf(0)
