"""Arbitrary-precision constants and derivative jets at elliptic points.

Values of E_2, E_4, E_6 (and E_10 = E_4 E_6) together with their
z-derivatives at i, rho = exp(pi i/3), or arbitrary points, computed two
independent ways: Gamma-quotient closed forms and direct q-series
evaluation.  Derivative tables are generated by differentiating the
closed first-order system

    dE_2/dz = (pi i/6)(E_2^2 - E_4)
    dE_4/dz = (2 pi i/3)(E_2 E_4 - E_6)
    dE_6/dz = pi i (E_2 E_6 - E_4^2)

symbolically over the rationals and evaluating only at the end, so each
derivative costs one polynomial evaluation and no cancellation builds up
across orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Optional

import mpmath
from mpmath import mp, mpc, mpf, workprec

from .qseries import EISENSTEIN_COEFF, eisenstein_qseries, make_eisenstein, sigma

#: extra working bits used inside every numeric routine
GUARD_BITS = 32

DEFAULT_PRECISION = 256


@dataclass(frozen=True)
class EllipticPoint:
    """A point of the upper half-plane with its PSL_2(Z) stabilizer order.

    ``tag`` is one of "i", "rho", "generic"; ``omega`` is 2, 3, or 1.
    Generic points carry their value explicitly.
    """

    tag: str
    omega: int
    generic_tau: Optional[mpc] = field(default=None, compare=True)

    def tau(self, precision: int = DEFAULT_PRECISION) -> mpc:
        with workprec(precision + GUARD_BITS):
            if self.tag == "i":
                return mpc(0, 1)
            if self.tag == "rho":
                return mpc(mpf(1) / 2, mpmath.sqrt(3) / 2)
            return mpc(self.generic_tau)

    def v0(self, precision: int = DEFAULT_PRECISION) -> mpf:
        return self.tau(precision).imag

    def __str__(self) -> str:
        return self.tag if self.tag != "generic" else f"generic({self.generic_tau})"


POINT_I = EllipticPoint("i", 2)
POINT_RHO = EllipticPoint("rho", 3)


def generic_point(tau) -> EllipticPoint:
    if not isinstance(tau, mpc):
        tau = mpc(tau)  # rounds literals at the ambient context
    if tau.imag <= 0:
        raise ValueError("generic point must lie in the upper half-plane")
    return EllipticPoint("generic", 1, tau)


def point_from_tag(tag: str) -> EllipticPoint:
    if tag == "i":
        return POINT_I
    if tag == "rho":
        return POINT_RHO
    raise ValueError(f"unknown point tag {tag!r}")


def _round_to(value, precision: int):
    with workprec(precision):
        return +value


def closed_value(weight: int, point: EllipticPoint, precision: int = DEFAULT_PRECISION) -> mpf:
    """Closed-form value of E_weight at i or rho, rounded to ``precision`` bits.

    E_2(i) = 3/pi, E_2(rho) = 2 sqrt(3)/pi, E_6(i) = E_4(rho) = 0, and
    Gamma-quotient expressions for E_4(i), E_6(rho).
    """
    if point.tag not in ("i", "rho") or weight not in (2, 4, 6):
        raise ValueError(f"no closed form for weight {weight} at {point}")
    with workprec(precision + GUARD_BITS):
        pi = mp.pi
        if point.tag == "i":
            if weight == 2:
                value = 3 / pi
            elif weight == 4:
                value = 12 / (8 * pi) ** 2 * (mpmath.gamma(Fraction(1, 4)) / mpmath.gamma(Fraction(3, 4))) ** 4
            else:
                value = mpf(0)
        elif weight == 2:
            value = 2 * mpmath.sqrt(3) / pi
        elif weight == 4:
            value = mpf(0)
        else:
            value = 24 * mpmath.sqrt(3) / (6 * pi) ** 3 * (mpmath.gamma(Fraction(1, 3)) / mpmath.gamma(Fraction(2, 3))) ** 9
    return _round_to(value, precision)


def qseries_eval(weight: int, tau, precision: int = DEFAULT_PRECISION) -> mpc:
    """Evaluate the q-expansion of E_weight at q = exp(2 pi i tau).

    Requires Im(tau) >= 0.5; terms are accumulated until they drop below
    2^-(precision+8) of the running sum.
    """
    if weight not in EISENSTEIN_COEFF:
        raise ValueError("weight not in {2, 4, 6, 10}")
    with workprec(precision + GUARD_BITS):
        tau = mpc(tau)
        if tau.imag < mpf(1) / 2:
            raise ValueError("evaluation point too low")
        q = mpmath.exp(2j * mp.pi * tau)
        coeff = EISENSTEIN_COEFF[weight]
        total = mpc(1)
        qn = mpc(1)
        cutoff = mpf(2) ** (-(precision + 8))
        small_streak = 0
        n = 0
        while small_streak < 3:
            n += 1
            qn *= q
            term = coeff * sigma(n, weight - 1) * qn
            total += term
            if abs(term) < cutoff * max(mpf(1), abs(total)):
                small_streak += 1
            else:
                small_streak = 0
    return _round_to(total, precision)


# --------------------------------------------------------------------------
# Symbolic differentiation of the differential system.
#
# A polynomial in (E_2, E_4, E_6) is a dict {(a, b, c): Fraction}.  The r-th
# z-derivative of E_w is (pi i)^r times such a polynomial.

Poly = dict

_DERIV_RULES = {
    # one z-derivative with the overall (pi i) factored out
    "E2": {(2, 0, 0): Fraction(1, 6), (0, 1, 0): Fraction(-1, 6)},
    "E4": {(1, 1, 0): Fraction(2, 3), (0, 0, 1): Fraction(-2, 3)},
    "E6": {(1, 0, 1): Fraction(1), (0, 2, 0): Fraction(-1)},
}


def _poly_dz(p: Poly) -> Poly:
    """Formal derivative under the system, with one (pi i) factored out."""
    out: Poly = {}
    gens = ("E2", "E4", "E6")
    for (a, b, c), u in p.items():
        exps = (a, b, c)
        for pos, gen in enumerate(gens):
            e = exps[pos]
            if e == 0:
                continue
            lowered = list(exps)
            lowered[pos] = e - 1
            for key2, v in _DERIV_RULES[gen].items():
                key = tuple(x + y for x, y in zip(lowered, key2))
                out[key] = out.get(key, Fraction(0)) + u * v * e
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _derivative_poly(weight: int, r: int) -> tuple:
    """Polynomial P with d^r/dz^r E_weight = (pi i)^r P(E_2, E_4, E_6)."""
    if r == 0:
        base = {2: (1, 0, 0), 4: (0, 1, 0), 6: (0, 0, 1)}[weight]
        return ((base, Fraction(1)),)
    prev = dict(_derivative_poly(weight, r - 1))
    return tuple(sorted(_poly_dz(prev).items()))


@dataclass(frozen=True)
class DerivativeJet:
    """Table of d^r/dz^r E_w(tau0) for w in {2, 4, 6} and 0 <= r <= depth."""

    point: EllipticPoint
    depth: int
    precision: int
    table: dict

    def value(self, weight: int, r: int) -> mpc:
        return self.table[(weight, r)]


def _base_values(point: EllipticPoint, precision: int) -> dict:
    with workprec(precision + GUARD_BITS):
        if point.tag == "i":
            return {
                2: mpc(closed_value(2, point, precision)),
                4: mpc(closed_value(4, point, precision)),
                6: mpc(0),
            }
        if point.tag == "rho":
            return {
                2: mpc(closed_value(2, point, precision)),
                4: mpc(0),
                6: mpc(closed_value(6, point, precision)),
            }
        tau = point.tau(precision)
        return {w: qseries_eval(w, tau, precision) for w in (2, 4, 6)}


def derivative_jet(point: EllipticPoint, depth: int, precision: int = DEFAULT_PRECISION) -> DerivativeJet:
    """Jet of z-derivatives of E_2, E_4, E_6 at the point."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    base = _base_values(point, precision)
    table = {}
    with workprec(precision + GUARD_BITS):
        pi_i = mpc(0, mp.pi)
        e2, e4, e6 = base[2], base[4], base[6]
        pows2 = _monomial_powers(e2, depth + 2)
        pows4 = _monomial_powers(e4, depth + 2)
        pows6 = _monomial_powers(e6, depth + 2)
        for w in (2, 4, 6):
            for r in range(depth + 1):
                acc = mpc(0)
                for (a, b, c), coeff in _derivative_poly(w, r):
                    acc += mpf(coeff.numerator) / coeff.denominator * pows2[a] * pows4[b] * pows6[c]
                table[(w, r)] = pi_i**r * acc
    return DerivativeJet(point, depth, precision, table)


def _monomial_powers(x: mpc, count: int) -> list[mpc]:
    out = [mpc(1)]
    for _ in range(count):
        out.append(out[-1] * x)
    return out


def e10_jet(point: EllipticPoint, depth: int, precision: int = DEFAULT_PRECISION) -> DerivativeJet:
    """Jet of E_10 = E_4 E_6 by the Leibniz rule on the E_4, E_6 jets."""
    return eisenstein_jet(10, point, depth, precision)


# --------------------------------------------------------------------------
# E_w of any even weight w >= 4 as a polynomial in E_4, E_6.


@lru_cache(maxsize=None)
def eisenstein_polynomial(weight: int) -> tuple:
    """Exact E_weight = sum c E_4^a E_6^b as sorted ((a, b), c) pairs.

    The monomials with 4a + 6b = weight span M_weight, and a form in
    M_weight is fixed by its first dim M_weight q-coefficients, so the
    coefficients solve a square rational system on those.
    """
    if weight % 2 or weight < 4:
        raise ValueError("weight must be an even integer >= 4")
    monomials = [(a, (weight - 4 * a) // 6) for a in range(weight // 4 + 1) if (weight - 4 * a) % 6 == 0]
    order = len(monomials) - 1
    e4, e6 = make_eisenstein(4, order), make_eisenstein(6, order)
    columns = [(e4**a * e6**b).coeffs for a, b in monomials]
    target = eisenstein_qseries(weight, order).coeffs
    # Gauss-Jordan elimination on the augmented rows [M | target]
    rows = [[col[i] for col in columns] + [target[i]] for i in range(order + 1)]
    for col in range(order + 1):
        pivot = next(r for r in range(col, order + 1) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(order + 1):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(sorted((mono, rows[i][-1]) for i, mono in enumerate(monomials) if rows[i][-1]))


def _leibniz(f: list, g: list) -> list:
    """z-derivatives of f g from those of f and g."""
    return [sum(comb(r, s) * f[s] * g[r - s] for s in range(r + 1)) for r in range(len(f))]


def eisenstein_jet(weight: int, point: EllipticPoint, depth: int, precision: int = DEFAULT_PRECISION) -> DerivativeJet:
    """Jet of E_weight (even weight >= 4) by the Leibniz rule on the E_4,
    E_6 jets, applied to the exact polynomial ``eisenstein_polynomial``."""
    poly = eisenstein_polynomial(weight)
    jet = derivative_jet(point, depth, precision)
    with workprec(precision + GUARD_BITS):
        # pows[w][a] holds the derivatives of E_w^a; E_w^0 = 1 is None
        pows = {}
        for w, pos in ((4, 0), (6, 1)):
            base = [jet.value(w, r) for r in range(depth + 1)]
            pows[w] = [None, base]
            for _ in range(max(mono[pos] for mono, _ in poly) - 1):
                pows[w].append(_leibniz(pows[w][-1], base))
        total = [mpc(0)] * (depth + 1)
        for (a, b), coeff in poly:
            f, g = pows[4][a], pows[6][b]
            product = _leibniz(f, g) if f and g else f or g
            scale = mpf(coeff.numerator) / coeff.denominator
            for r, x in enumerate(product):
                total[r] += scale * x
        table = {(weight, r): total[r] for r in range(depth + 1)}
    return DerivativeJet(point, depth, precision, table)
