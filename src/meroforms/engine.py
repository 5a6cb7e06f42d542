"""Fourier-coefficient evaluation from lattice sums.

The m-th Fourier coefficient of the raised basis element R^n[H_{2k}] at
an elliptic point tau0 (stabilizer order omega, v0 = Im tau0) is

  omega * sum_{j=0}^{n} (2k+n-1)!/(2k+n-1-j)! C(n,j)
          * v0^-j * sum*_b C_{2k+2n}(b, m) N^{j-(k+n)} (4 pi m)^{n-j}
                           e^{2 pi m v0 / N}

with the starred sum over primitive ideals; at arbitrary points the
ideal sum is replaced by half the coprime-pair sum over the complex
kernel.  Every truncated sum is reported together with a rigorous bound
on its omitted tail, using the per-norm ideal count bound d(N) <= 2
sqrt(N) (a circle-packing count for pair sums), which keeps the bound
finite on the whole validity range k >= j + 2 of the F-series exponent.

A representation's blocks are listed once (``representation_blocks``).
Assembly reads them from one table per pole (``block_table``), which maps
each block (k, j, r, m) to its value: one pass of ``lattice.ideal_sums``,
whose module documents the term arithmetic, fills every ideal sum that the
coefficients of an m range need there, and each total is rounded once.
Pair sums go through ``b_kernel`` and ``mpmath.fsum``, which adds exactly
and rounds once.

At m = 0 the ideal sum has a closed form, which the table holds:
with w = k - 2j, the Maass raising operator R_w = 2i d/dz + w/y and the
rising factorial (w)_j,

  v0^-j sum*_b cos(k theta_b) N^(j-k/2) = Re[R^j E_w(tau0)] / (omega (w)_j),

because R^j (cz+d)^-w = (w)_j y^-j (c zbar+d)^j (cz+d)^-(w+j), the
coprime-pair sum of (cz+d)^-w is 2 E_w, and each ideal accounts for
2 omega coprime pairs.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd, perm
from typing import NamedTuple

import mpmath
from mpmath import mp, mpc, mpf, workprec

from .constants import (
    DEFAULT_PRECISION,
    GUARD_BITS,
    POINT_I,
    EllipticPoint,
    closed_value,
    eisenstein_derivatives,
    series_bits,
)
from .lattice import _FIELD_AT, b_kernel, check_norm_bound, field_of, ideal_sums
from .solver import BasisRepresentation


class NonconvergentParameters(ValueError):
    pass


class ClosedFormMismatch(ArithmeticError):
    """An m = 0 lattice partial sum strays from its closed form by more
    than its own tail bound plus 2^-(precision/2)."""


class TruncatedSum(NamedTuple):
    """Partial sum with a rigorous bound on the omitted tail."""

    value: mpc
    tail_bound: mpf
    norm_bound: int


class RaisingTerm(NamedTuple):
    j: int
    coefficient: int  # (2k+n-1)!/(2k+n-1-j)! * C(n, j)
    derivative_order: int  # = n - j, also the exponent of (-2i)


class RaisingExpansion(NamedTuple):
    k: int
    n: int
    terms: tuple[RaisingTerm, ...]


def raising_expansion(k: int, n: int) -> RaisingExpansion:
    """Exact expansion of the n-fold raising of H_{2k} over derivative
    orders of the weight 2k+2n family."""
    if k < 2 or n < 0:
        raise ValueError("need k >= 2 and n >= 0")
    terms = (RaisingTerm(j, perm(2 * k + n - 1, j) * comb(n, j), n - j) for j in range(n + 1))
    return RaisingExpansion(k, n, tuple(terms))


def raising_expansion_stepped(expansion: RaisingExpansion) -> RaisingExpansion:
    """Push an expansion through one more raising using
    R(H_{2K,j}) = -2i d/dz H_{2K+2,j} + (2K - j) H_{2K+2,j+1}, where
    2K = 2k + 2n is the current family weight.  Used to check the closed
    form against the recurrence exactly."""
    k, n = expansion.k, expansion.n
    two_K = 2 * k + 2 * n
    acc: dict[int, int] = {}
    for t in expansion.terms:
        # -2i d/dz branch keeps j, adds one derivative and one (-2i)
        acc[t.j] = acc.get(t.j, 0) + t.coefficient
        # (2K - j) branch moves j -> j+1
        acc[t.j + 1] = acc.get(t.j + 1, 0) + t.coefficient * (two_K - t.j)
    n1 = n + 1
    terms = tuple(RaisingTerm(j, acc[j], n1 - j) for j in sorted(acc))
    return RaisingExpansion(k, n1, terms)


@lru_cache(maxsize=1024)
def _tail_constants(k: int, j: int, B: int, prec: int) -> tuple[mpf, mpf, mpf]:
    """2 e^(1/2), B^-s and s = k/2 - j - 3/2 at working precision prec, of
    the tail bound 2 e^(1/2) (4 pi m)^r v0^-j B^-s / s: d(N) <= 2 sqrt(N)
    omitted ideals per norm N, each term at most e^(1/2) once B >= 4 pi m v0."""
    with workprec(prec):
        s = mpf(k) / 2 - j - mpf(3) / 2
        return 2 * mpmath.exp(mpf(1) / 2), mpf(B) ** (-s), s


@lru_cache(maxsize=8192)
def f_series_coeff(
    k: int,
    j: int,
    r: int,
    point: EllipticPoint,
    m: int,
    norm_bound: int,
    precision: int = DEFAULT_PRECISION,
    blocks: tuple | None = None,
) -> TruncatedSum:
    """m-th coefficient of the building-block series with parameters
    (k, j, r): v0^-j sum*_b C_k(b, m) N^(j-k/2) (4 pi m)^r e^(2 pi m v0/N).

    Requires even k with k/2 >= j + 2 (tail convergence) and
    norm_bound >= max(16, ceil(4 pi m v0)).  Where ``point.vanishes(k)``, off
    the cosine kernel's class, the sum is an exact 0 with tail 0, as
    ``c_kernel`` has it.
    ``blocks`` is the tuple of (m, k, j) whose ideal sums at this point
    share one ``ideal_sums`` pass (the family of a ``block_table``); it
    must hold (m, k, j), and None sums (m, k, j) alone.
    """
    if k % 2 or k < 4:
        raise ValueError("k must be an even integer >= 4")
    if j < 0 or r < 0 or m < 0:
        raise ValueError("j, r, m must be nonnegative")
    if k // 2 < j + 2:
        raise NonconvergentParameters("nonconvergent parameter regime: need k/2 >= j + 2")
    field_of(point)  # refuses a point without ideal sums
    with workprec(precision + GUARD_BITS):
        v0 = point.v0(precision)
        check_norm_bound(norm_bound, m, v0)
        if (m == 0 and r >= 1) or point.vanishes(k):
            return TruncatedSum(mpc(0), mpf(0), norm_bound)
        family = blocks or ((m, k, j),)
        if (m, k, j) not in family:
            raise ValueError(f"block ({m}, {k}, {j}) is not in its family {family}")
        total = ideal_sums(point, norm_bound, precision, family)[m, k, j]
        four_pi_m_r = (4 * mp.pi * m) ** r if r else mpf(1)
        v0_pow_j = v0**j
        value = total * four_pi_m_r / v0_pow_j
        scale, power, s = _tail_constants(k, j, norm_bound, mp.prec)
        tail = scale * four_pi_m_r / v0_pow_j * power / s
        return TruncatedSum(mpc(value), tail, norm_bound)


def block_table(point: EllipticPoint, keys, norm_bound: int, precision: int = DEFAULT_PRECISION) -> dict:
    """(k, j, r, m) -> the block ``f_series_coeff`` (k, j, r, point, m) for
    each key in ``keys``, at the pole ``point`` (i or rho), every lattice sum
    from one ``ideal_sums`` pass.

    Each m = 0, r = 0 block on the kernel's class is exact: the closed form
    Re[R^j E_w(tau0)] / (omega (w)_j), w = k - 2j, with tail bound 0.  Its
    lattice partial sum is still computed as a check: if it differs from
    the closed form by more than its tail bound plus 2^-(precision/2),
    ``ClosedFormMismatch`` is raised.  The blocks of one weight w read one
    list of q-series derivatives of E_w, taken at their largest j and
    raised at that j's ``constants.series_bits``: the bits grow with j, so
    every smaller j reads values within 2^-precision of v0^-j as well.
    """
    keys = sorted(set(keys))
    family = tuple(sorted({(m, k, j) for k, j, r, m in keys if not (m == 0 and r) and not point.vanishes(k)}))
    table = {(k, j, r, m): f_series_coeff(k, j, r, point, m, norm_bound, precision, family) for k, j, r, m in keys}
    weights: dict = {}
    for k, j, r, m in keys:
        if not (m or r or point.vanishes(k)):
            weights.setdefault(k - 2 * j, []).append(j)
    for w, js in weights.items():
        bits = series_bits(w, max(js), point.v0(precision), precision)
        derivatives = eisenstein_derivatives(w, point.tau(bits), max(js), bits)
        for j in js:
            partial = table[w + 2 * j, j, 0, 0]
            with workprec(bits):
                v0 = point.v0(bits)
                # R^j f = sum_t coefficient_t v0^-t.j (2i)^r f^(r) with r = j - t.j;
                # raising_expansion(w/2, j) holds these coefficients for weight w
                raised = mpc(0)
                for t in raising_expansion(w // 2, j).terms:
                    order = t.derivative_order
                    raised += t.coefficient * mpc(0, 2) ** order * derivatives[order] / v0**t.j
                closed = raised.real / (point.omega * mpmath.rf(w, j))
            with workprec(precision + GUARD_BITS):
                diff = abs(partial.value - closed)
                slack = partial.tail_bound + mpf(2) ** (-(precision // 2))
                if diff > slack:
                    raise ClosedFormMismatch(
                        f"m = 0 block (k={w + 2 * j}, j={j}) at {point}: lattice partial sum at norm bound "
                        f"{norm_bound} is {mpmath.nstr(diff, 6)} from the closed form, beyond "
                        f"its tail bound {mpmath.nstr(partial.tail_bound, 6)}"
                    )
                table[w + 2 * j, j, 0, 0] = TruncatedSum(mpc(closed), mpf(0), norm_bound)
    return table


def _lattice_min_distance(tau: mpc) -> mpf:
    """Shortest nonzero vector of Z tau + Z."""
    u, v = tau.real, tau.imag
    best = mpf(1)  # (c, d) = (0, 1)
    cmax = int(mpmath.ceil(1 / v)) + 1
    for c in range(1, cmax + 1):
        d0 = int(mpmath.nint(-c * u))
        for d in (d0 - 1, d0, d0 + 1):
            w = abs(c * tau + d)
            if w < best and w > 0:
                best = w
    return best


def _coprime_pairs(tau: mpc, height_bound: int):
    """(c, d, |c tau + d|^2) for the coprime pairs with |c tau + d|^2 <= height_bound."""
    u, v = tau.real, tau.imag
    cmax = int(mpmath.floor(mpmath.sqrt(height_bound) / v)) + 1
    for c in range(-cmax, cmax + 1):
        rad_sq = mpf(height_bound) - c * c * v * v
        if rad_sq < 0:
            continue
        rad = mpmath.sqrt(rad_sq)
        for d in range(int(mpmath.floor(-c * u - rad)), int(mpmath.ceil(-c * u + rad)) + 1):
            if gcd(c, d) == 1:
                wsq = abs(c * tau + d) ** 2
                if wsq <= height_bound:
                    yield c, d, wsq


def general_coeff_sum(
    k_w: int,
    point: EllipticPoint,
    j: int,
    r: int,
    m: int,
    height_bound: int,
    precision: int = DEFAULT_PRECISION,
) -> TruncatedSum:
    """Coprime-pair sum sum_{(c,d)=1, |c tau + d|^2 <= H}
    (|c tau + d|^2 / v0)^j (2 pi i m)^r B_{k_w,c,d}(tau, m).

    This is the raw m-th Fourier coefficient of the j-weighted, r-times
    differentiated Poincare kernel; at i (resp. rho) it groups into
    2 omega = 4 (resp. 6) equal unit-orbit terms per primitive ideal.
    """
    if k_w % 2 or k_w < 4:
        raise ValueError("k_w must be an even integer >= 4")
    if k_w // 2 < j + 2:
        raise NonconvergentParameters("nonconvergent parameter regime: need k_w/2 >= j + 2")
    if m == 0 and r >= 1:
        return TruncatedSum(mpc(0), mpf(0), height_bound)
    with workprec(precision + GUARD_BITS):
        tau = point.tau(precision)
        v0 = tau.imag
        check_norm_bound(height_bound, m, v0)
        total = mpc(
            mpmath.fsum(
                b_kernel(k_w, c, d, tau, m, precision) * (wsq / v0) ** j
                for c, d, wsq in _coprime_pairs(tau, height_bound)
            )
        )
        if r:
            total *= (mpc(0, 2 * mp.pi * m)) ** r
        # packing tail: points per dyadic shell <= 4^(t+1)(sqrt(H)/r0 + 1)^2
        r0 = _lattice_min_distance(tau) / 2
        decay = j - k_w // 2  # < -1
        geom = 1 / (1 - mpf(4) ** (1 + decay))
        tail = (
            4
            * mpmath.exp(mpf(1) / 2)
            * (2 * mp.pi * m) ** r
            / v0**j
            * (mpmath.sqrt(height_bound) / r0 + 1) ** 2
            * mpf(height_bound) ** decay
            * geom
        )
        return TruncatedSum(total, tail, height_bound)


def linear_combination(terms, norm_bound: int) -> TruncatedSum:
    """sum c S over (c, S) pairs, with tail bound sum |c| S.tail_bound,
    since tail(sum c S) <= sum |c| tail(S).  Runs at the caller's working
    precision; all-zero tails give an exact 0."""
    value, tail = mpc(0), mpf(0)
    for c, s in terms:
        value += c * s.value
        tail += abs(c) * s.tail_bound
    return TruncatedSum(value, tail, norm_bound)


def representation_blocks(rep: BasisRepresentation):
    """(term, c, (k, j, r)) for each block that the m-th coefficient of
    sum a R^n[H_{2k}] per the representation reads: the term's R^n[H_{2k}]
    combines the blocks (2k + 2n, j, n - j) of its ``raising_expansion``
    with the coefficients c.  Every block lies on the kernel's class:
    ``BasisRepresentation`` admits a term only where its point does not
    ``vanishes`` at w = 2k + 2n."""
    for t in rep.terms:
        for rt in raising_expansion(rep.k, t.n).terms:
            yield t, rt.coefficient, (2 * rep.k + 2 * t.n, rt.j, rt.derivative_order)


def block_tables(reps, ms, norm_bound: int, precision: int = DEFAULT_PRECISION) -> dict:
    """pole -> ``block_table`` of every block that the m-th coefficients,
    m in ``ms``, of the representations read there; a point without ideal
    sums gets no table."""
    keys: dict = {}
    for rep in reps:
        for t, _, block in representation_blocks(rep):
            if t.point in _FIELD_AT:
                keys.setdefault(t.point, set()).update((*block, m) for m in ms)
    return {point: block_table(point, blocks, norm_bound, precision) for point, blocks in keys.items()}


def assemble_coefficient(
    rep: BasisRepresentation,
    m: int,
    norm_bound: int,
    precision: int = DEFAULT_PRECISION,
    tables: dict | None = None,
) -> TruncatedSum:
    """m-th Fourier coefficient of sum a R^n[H_{2k}] per the representation.

    Elliptic points use the grouped ideal sums with prefactor omega; the
    residue-constant convention eps = i omega/(2 pi) pairs with exactly
    this prefactor (the raw pair sum counts each ideal 2 omega times and
    the basis normalization absorbs the remaining factor 2).  ``tables``
    maps each pole to a ``block_table`` that holds its blocks at this m,
    by default ``block_tables`` of this representation at this m alone.
    """
    tables = tables or block_tables((rep,), (m,), norm_bound, precision)
    with workprec(precision + GUARD_BITS):
        return linear_combination(
            (
                (t.a * (t.point.omega * c), tables[t.point][k, j, r, m])
                if t.point in _FIELD_AT
                else (t.a * (c * mpc(0, -2) ** r / 2), general_coeff_sum(k, t.point, j, r, m, norm_bound, precision))
                for t, c, (k, j, r) in representation_blocks(rep)
            ),
            norm_bound,
        )


def identity_check_m0(
    norm_bound: int,
    precision: int = DEFAULT_PRECISION,
) -> tuple[mpf, mpf, mpf]:
    """Constant-term identity over Gaussian ideals, 9/182 normalization:

        sum*_b N^-13 (9 cos(32 theta_b) - 4 pi^2 E_4(i) cos(28 theta_b))
            = 27 pi^3 E_4(i)^8 / 182.

    Returns (lhs, rhs, |lhs - rhs|).  These constants do not balance;
    the form that actually follows from the m = 0 coefficient of the
    quartic reciprocal has 243 and 1/91 in place of 9 and 1/182 and is
    checked in the test suite.  This function evaluates the 9/182 form
    verbatim.
    """
    with workprec(precision + GUARD_BITS):
        e4i = closed_value(4, POINT_I, precision)
        # N^-13 = N^(j-k/2) with j = 3 for k = 32 and j = 1 for k = 28
        sums = ideal_sums(POINT_I, norm_bound, precision, ((0, 28, 1), (0, 32, 3)))
        cos32, cos28 = sums[0, 32, 3], sums[0, 28, 1]
        lhs = 9 * cos32 - 4 * mp.pi**2 * e4i * cos28
        rhs = 27 * mp.pi**3 * e4i**8 / 182
        return lhs, rhs, abs(lhs - rhs)
