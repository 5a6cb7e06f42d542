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
656 bits.  The base values are taken with the guard bits, so every jet
keeps them.  The m = 0 closed forms take E_w of any even weight and its
derivatives straight from the q-series (``eisenstein_derivatives``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, factorial, log2
from typing import Optional

import mpmath
from mpmath import mp, mpc, mpf, workprec

from .qseries import EISENSTEIN_COEFF, bernoulli, sigma

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

    def vanishes(self, weight: int) -> bool:
        """2 omega does not divide the even weight, so the stabilizer forces
        any modular quantity of that weight to 0 here; never at a generic point."""
        if weight % 2:
            raise ValueError(f"weight must be even, got {weight}")
        return weight % (2 * self.omega) != 0

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

    E_2(i) = 3/pi, E_2(rho) = 2 sqrt(3)/pi, 0 where the point ``vanishes``
    (E_6(i), E_4(rho)), and Gamma-quotient expressions for E_4(i), E_6(rho).
    """
    if point.tag not in ("i", "rho") or weight not in (2, 4, 6):
        raise ValueError(f"no closed form for weight {weight} at {point}")
    with workprec(precision + GUARD_BITS):
        pi = mp.pi
        if weight == 2:
            value = 3 / pi if point.tag == "i" else 2 * mpmath.sqrt(3) / pi
        elif point.vanishes(weight):
            value = mpf(0)
        elif point.tag == "i":
            value = 12 / (8 * pi) ** 2 * (mpmath.gamma(Fraction(1, 4)) / mpmath.gamma(Fraction(3, 4))) ** 4
        else:
            value = 24 * mpmath.sqrt(3) / (6 * pi) ** 3 * (mpmath.gamma(Fraction(1, 3)) / mpmath.gamma(Fraction(2, 3))) ** 9
    return _round_to(value, precision)


def series_bits(weight: int, depth: int, v0, precision: int) -> int:
    """Working bits for the derivatives r <= j = depth of E_w, w = weight,
    at Im tau = v0: P + GUARD_BITS + ceil(w log2(1/v0))^+ + 2j + 16 with
    P = precision.

    As |c_w| <= (2 pi)^w/(w-1)!, sigma_(w-1)(n) <= 2 n^(w-1) and
    n^a e^(-2 pi v0 n) <= a!/(2 pi v0)^a, a = w-1+r, a term of E_w^(r) is
    at most 4 pi (w)_r v0^-(w+r-1), so N terms of O(n) roundings each are
    off by about 4 pi N^2 (w)_r v0^-(w+r-1) 2^-W at W bits.  In R^j E_w =
    sum_t C_t (2i)^(j-t) v0^-t E_w^(j-t) (``engine.raising_expansion``)
    C_t (w)_(j-t) = (w)_j binom(j, t), so Re[R^j E_w] / (w)_j is off by
    4 pi N^2 3^j v0^(1-w) v0^-j 2^-W: at the W above, below 2^-P v0^-j,
    the unit ideal's m = 0 term, for any N < 10^6.
    """
    loss = max(0, ceil(weight * log2(1 / float(v0))))
    return precision + GUARD_BITS + loss + 2 * depth + 16


def eisenstein_derivatives(weight: int, tau, depth: int, bits: int) -> list:
    """d^r/dz^r E_w(tau) = [r = 0] + c_w sum sigma_(w-1)(n) (2 pi i n)^r q^n,
    c_w = -2w/B_w, for r = 0..depth and any even weight w >= 2, summed at
    ``bits`` bits (``series_bits``; ``tau`` should carry them).  The r-th
    terms peak at n = (w-1+r)/(2 pi Im tau), so only terms past the last
    peak end the sum: three in a row below 2^-bits of max(1, |sum|).
    """
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


def qseries_eval(weight: int, tau, precision: int = DEFAULT_PRECISION) -> mpc:
    """E_weight at q = exp(2 pi i tau), Im(tau) >= 0.5, a generator weight:
    the r = 0 case of ``eisenstein_derivatives``, rounded to ``precision``."""
    if weight not in EISENSTEIN_COEFF:
        raise ValueError("weight not in {2, 4, 6, 10}")
    v0 = mpc(tau).imag
    if v0 < mpf(1) / 2:
        raise ValueError("evaluation point too low")
    bits = series_bits(weight, 0, v0, precision)
    return _round_to(eisenstein_derivatives(weight, tau, 0, bits)[0], precision)


def cauchy(x: list, y: list, r: int):
    """Coefficient r of the product of the power series x and y."""
    return sum(x[s] * y[r - s] for s in range(r + 1))


@dataclass(frozen=True)
class DerivativeJet:
    """Jets of E_w at a point: ``table[w][r]`` is the Taylor coefficient
    d^r/dz^r E_w(tau0) / r! for 0 <= r <= depth."""

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
    return DerivativeJet(precision, {2: a, 4: b, 6: c, 10: e10})


def e10_jet(point: EllipticPoint, depth: int, precision: int = DEFAULT_PRECISION) -> DerivativeJet:
    """Jet of E_10 = E_4 E_6: ``derivative_jet``, whose table[10] is their Cauchy product."""
    return derivative_jet(point, depth, precision)
