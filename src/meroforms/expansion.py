"""Laurent and Taylor expansions of form expressions at points of H.

Expressions are expanded in t = z - tau0 by pushing derivative jets
through the expression tree with series arithmetic; reciprocals go
through exact-order vanishing detection followed by unit-series
inversion.  Principal parts extracted here feed the basis solver.
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

    @property
    def highest_order(self) -> int:
        return self.lowest_order + len(self.coeffs) - 1

    def coefficient(self, order: int) -> mpc:
        if order < self.lowest_order:
            return mpc(0)
        idx = order - self.lowest_order
        if idx >= len(self.coeffs):
            raise IndexError(f"order {order} beyond computed window")
        return self.coeffs[idx]

    def scale(self) -> mpf:
        mags = [abs(c) for c in self.coeffs]
        return max(mags) if mags else mpf(1)


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
    out = [(a.lowest_order + i) * c for i, c in enumerate(a.coeffs)]
    return LaurentSeries(a.point, a.lowest_order - 1, out, a.precision)


def _reciprocal(a: LaurentSeries, tol: mpf) -> LaurentSeries:
    scale = a.scale()
    v = None
    for i, c in enumerate(a.coeffs):
        if abs(c) > tol * scale:
            v = i
            break
    if v is None:
        raise ExpansionError("cannot determine vanishing order")
    unit = a.coeffs[v:]
    n = len(unit)
    inv = [mpc(0)] * n
    inv[0] = 1 / unit[0]
    for k in range(1, n):
        acc = mpc(0)
        for i in range(1, k + 1):
            acc += unit[i] * inv[k - i]
        inv[k] = -acc / unit[0]
    return LaurentSeries(a.point, -(a.lowest_order + v), inv, a.precision)


# --------------------------------------------------------------------------
# Expression evaluation.


def _generator_valuation(name: str, point: EllipticPoint) -> int:
    if point.tag == "i" and name in ("E6", "E10"):
        return 1
    if point.tag == "rho" and name in ("E4", "E10"):
        return 1
    return 0


def _valuation(expr: FormExpression, point: EllipticPoint) -> int:
    """Exact t-adic valuation (negative for poles) for budget sizing."""
    if isinstance(expr, Generator):
        return _generator_valuation(expr.name, point)
    if isinstance(expr, Constant):
        return 0
    if isinstance(expr, Product):
        return sum(_valuation(f, point) for f in expr.factors)
    if isinstance(expr, Power):
        return expr.exponent * _valuation(expr.base, point)
    if isinstance(expr, Reciprocal):
        return -_valuation(expr.operand, point)
    if isinstance(expr, Dee):
        v = _valuation(expr.operand, point)
        return v - 1 if v != 0 else 0
    raise TypeError(f"unknown expression node {type(expr)!r}")


def _terms_lost(expr: FormExpression, point: EllipticPoint) -> int:
    """Worst-case number of window terms consumed by reciprocals."""
    if isinstance(expr, (Generator, Constant)):
        return 0
    if isinstance(expr, Product):
        return max(_terms_lost(f, point) for f in expr.factors)
    if isinstance(expr, (Power,)):
        return _terms_lost(expr.base, point)
    if isinstance(expr, Reciprocal):
        return _terms_lost(expr.operand, point) + max(0, _valuation(expr.operand, point))
    if isinstance(expr, Dee):
        return _terms_lost(expr.operand, point)
    raise TypeError(f"unknown expression node {type(expr)!r}")


class _Evaluator:
    def __init__(self, point: EllipticPoint, n_terms: int, precision: int):
        self.point = point
        self.n_terms = n_terms
        self.precision = precision
        self.tol = mpf(2) ** (-(precision // 2))
        self.jet = derivative_jet(point, n_terms - 1, precision)

    def _generator_series(self, name: str) -> LaurentSeries:
        if name == "E10":
            return _mul(self._generator_series("E4"), self._generator_series("E6"))
        coeffs = self.jet.table[{"E2": 2, "E4": 4, "E6": 6}[name]]
        return LaurentSeries(self.point, 0, coeffs, self.precision)

    def eval(self, expr: FormExpression) -> LaurentSeries:
        if isinstance(expr, Generator):
            return self._generator_series(expr.name)
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
            if expr.exponent < 0:
                return _reciprocal(_pow(self.eval(expr.base), -expr.exponent), self.tol)
            return _pow(self.eval(expr.base), expr.exponent)
        if isinstance(expr, Reciprocal):
            return _reciprocal(self.eval(expr.operand), self.tol)
        if isinstance(expr, Dee):
            inner = _dz(self.eval(expr.operand))
            return _scale(inner, 1 / (2j * mp.pi))
        raise TypeError(f"unknown expression node {type(expr)!r}")


def _evaluate(expr: FormExpression, point: EllipticPoint, n_terms: int, precision: int) -> LaurentSeries:
    with workprec(precision + GUARD_BITS):
        return _Evaluator(point, n_terms, precision).eval(expr)


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
    series = _evaluate(expr, point, depth + 2, precision)
    coeffs = [series.coefficient(n) for n in range(depth + 1)]
    return LaurentSeries(point, 0, coeffs, precision)


def laurent_at(
    expr: FormExpression | str,
    point: EllipticPoint,
    precision: int = DEFAULT_PRECISION,
    depth: int | None = None,
) -> LaurentSeries:
    """Laurent expansion with nonzero leading coefficient, up to order ``depth``.

    ``depth`` defaults to pole order + 6 nonnegative orders.
    """
    if depth is not None and depth < 0:
        raise ValueError("depth must be >= 0")
    if isinstance(expr, str):
        expr = parse_form(expr)
    v_root = _valuation(expr, point)
    if depth is None:
        depth = 6  # all pole orders plus orders 0..6
    n_terms = max(depth - v_root + 1, 1) + _terms_lost(expr, point)
    series = _evaluate(expr, point, n_terms, precision)
    tol = mpf(2) ** (-(precision // 2))
    scale = series.scale()
    lead = None
    for i, c in enumerate(series.coeffs):
        if abs(c) > tol * scale:
            lead = i
            break
    if lead is None:
        raise ExpansionError("cannot determine vanishing order")
    lo = series.lowest_order + lead
    top = min(series.highest_order, depth)
    coeffs = [series.coefficient(n) for n in range(lo, top + 1)]
    return LaurentSeries(point, lo, coeffs, precision)


@dataclass
class PrincipalPart:
    """Negative-order Laurent data at a point.

    ``coeffs[n]`` (n >= 1) is the coefficient of (z - tau0)^-n.  Orders whose
    computed coefficient fell below the zero threshold are kept as exact
    zeros and listed in ``flagged_zero_orders``.
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
    if _valuation(expr, point) >= 0:
        return PrincipalPart(point, {}, frozenset(), precision)
    return principal_part_from_laurent(laurent_at(expr, point, precision))


def principal_part_from_laurent(series: LaurentSeries) -> PrincipalPart:
    tol = mpf(2) ** (-(series.precision // 2))
    scale = series.scale()
    coeffs = {}
    flagged = set()
    for order in range(series.lowest_order, 0):
        c = series.coefficient(order)
        if abs(c) <= tol * scale:
            coeffs[-order] = mpc(0)
            flagged.add(-order)
        else:
            coeffs[-order] = c
    return PrincipalPart(series.point, coeffs, frozenset(flagged), series.precision)


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
    largest one.  Orders j with j = 1-k (mod omega) are the admissible ones;
    anything else must vanish for a genuine weight 2-2k form."""
    b = x_coefficients(pp, k, precision)
    if not b:
        return mpf(0)
    scale = max(abs(c) for c in b.values())
    if scale == 0:
        return mpf(0)
    omega = pp.point.omega
    bad = [abs(c) for j, c in b.items() if (j - (1 - k)) % omega != 0]
    return max(bad) / scale if bad else mpf(0)
