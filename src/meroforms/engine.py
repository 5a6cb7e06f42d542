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

Ideal sums come from ``lattice.ideal_sums``, whose module documents the
term arithmetic: one pass over the ideals fills every (m, k, j) block that
the coefficients of an m range need at one pole (``block_families``), and
each total is rounded once.  Pair sums go through ``b_kernel`` and
``mpmath.fsum``, which adds exactly and rounds once.

At m = 0 the ideal sum has a closed form (``elliptic_block_coeff``):
with w = k - 2j, the Maass raising operator R_w = 2i d/dz + w/y and the
rising factorial (w)_j,

  v0^-j sum*_b cos(k theta_b) N^(j-k/2) = Re[R^j E_w(tau0)] / (omega (w)_j),

because R^j (cz+d)^-w = (w)_j y^-j (c zbar+d)^j (cz+d)^-(w+j), the
coprime-pair sum of (cz+d)^-w is 2 E_w, and each ideal accounts for
2 omega coprime pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, gcd

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


@dataclass(frozen=True)
class TruncatedSum:
    """Partial sum with a rigorous bound on the omitted tail."""

    value: mpc
    tail_bound: mpf
    norm_bound: int


@dataclass(frozen=True)
class RaisingTerm:
    j: int
    coefficient: int  # (2k+n-1)!/(2k+n-1-j)! * C(n, j)
    derivative_order: int  # = n - j, also the exponent of (-2i)


@dataclass(frozen=True)
class RaisingExpansion:
    k: int
    n: int
    terms: tuple[RaisingTerm, ...]


def raising_expansion(k: int, n: int) -> RaisingExpansion:
    """Exact expansion of the n-fold raising of H_{2k} over derivative
    orders of the weight 2k+2n family."""
    if k < 2 or n < 0:
        raise ValueError("need k >= 2 and n >= 0")
    terms = []
    for j in range(n + 1):
        coeff = factorial(2 * k + n - 1) // factorial(2 * k + n - 1 - j) * comb(n, j)
        terms.append(RaisingTerm(j, coeff, n - j))
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
    share one ``ideal_sums`` pass (``block_families``); it must hold
    (m, k, j), and None sums (m, k, j) alone.
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


@lru_cache(maxsize=256)
def _eisenstein_table(w: int, point: EllipticPoint, depth: int, precision: int) -> tuple:
    """(bits, d^r/dz^r E_w(tau0) for r = 0..depth) at the ``series_bits`` of depth."""
    bits = series_bits(w, depth, point.v0(precision), precision)
    return bits, tuple(eisenstein_derivatives(w, point.tau(bits), depth, bits))


def elliptic_block_coeff(
    k: int,
    j: int,
    r: int,
    point: EllipticPoint,
    m: int,
    norm_bound: int,
    precision: int = DEFAULT_PRECISION,
    blocks: tuple | None = None,
) -> TruncatedSum:
    """The building block of ``f_series_coeff``, exact at m = 0.

    For m = 0 and r = 0 the value is the closed form
    Re[R^j E_w(tau0)] / (omega (w)_j), w = k - 2j, with tail bound 0.
    The lattice partial sum is still computed as a check: if it differs
    from the closed form by more than its tail bound plus
    2^-(precision/2), ``ClosedFormMismatch`` is raised.  Every other
    case, and the exact 0 off the kernel's divisibility class, returns
    ``f_series_coeff`` unchanged.  ``blocks`` passes through to
    ``f_series_coeff``.  The q-series derivatives of E_w come from one
    table per (w, point) (``_eisenstein_table``), taken at the largest j of
    an m = 0 block of weight w in ``blocks`` and raised at that j's
    ``constants.series_bits``: the bits grow with j, so every smaller j
    reads values within 2^-precision of v0^-j as well.
    """
    partial = f_series_coeff(k, j, r, point, m, norm_bound, precision, blocks=blocks)
    if m or r or point.vanishes(k):
        return partial
    w = k - 2 * j
    depth = max([j2 for m2, k2, j2 in blocks or () if m2 == 0 and k2 - 2 * j2 == w] + [j])
    bits, derivatives = _eisenstein_table(w, point, depth, precision)
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
                f"m = 0 block (k={k}, j={j}) at {point}: lattice partial sum at norm bound "
                f"{norm_bound} is {mpmath.nstr(diff, 6)} from the closed form, beyond "
                f"its tail bound {mpmath.nstr(partial.tail_bound, 6)}"
            )
        return TruncatedSum(mpc(closed), mpf(0), norm_bound)


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


def block_families(reps, ms) -> dict:
    """point -> the sorted (m, k, j) ideal sums that the m-th coefficients,
    m in ``ms``, of the representations' raised blocks read there, for one
    ``ideal_sums`` pass per point.  At m = 0 only the r = 0 block (j = n) of
    each term reaches a sum.  Every term lies on the kernel's divisibility
    class: ``BasisRepresentation`` admits a term only where its point does
    not ``vanishes`` at w = 2k + 2n, the one rule ``ideal_sums`` checks."""
    families: dict = {}
    for rep in reps:
        for t in rep.terms:
            w = 2 * rep.k + 2 * t.n
            if t.point in _FIELD_AT:
                family = families.setdefault(t.point, set())
                for m in ms:
                    family.update((m, w, j) for j in (range(t.n + 1) if m else (t.n,)))
    return {point: tuple(sorted(family)) for point, family in families.items()}


def _raised_blocks(k: int, n: int, point: EllipticPoint, m: int, norm_bound: int, precision: int, blocks=None):
    """(weight, block) pairs whose combination is the m-th coefficient of R^n[H_{2k}]."""
    for rt in raising_expansion(k, n).terms:
        w, j, r = 2 * k + 2 * n, rt.j, rt.derivative_order
        if point in _FIELD_AT:
            block = elliptic_block_coeff(w, j, r, point, m, norm_bound, precision, blocks=blocks)
            yield point.omega * rt.coefficient, block
        else:
            yield rt.coefficient * mpc(0, -2) ** r / 2, general_coeff_sum(w, point, j, r, m, norm_bound, precision)


def assemble_coefficient(
    rep: BasisRepresentation,
    m: int,
    norm_bound: int,
    precision: int = DEFAULT_PRECISION,
    blocks: dict | None = None,
) -> TruncatedSum:
    """m-th Fourier coefficient of sum a R^n[H_{2k}] per the representation.

    Elliptic points use the grouped ideal sums with prefactor omega; the
    residue-constant convention eps = i omega/(2 pi) pairs with exactly
    this prefactor (the raw pair sum counts each ideal 2 omega times and
    the basis normalization absorbs the remaining factor 2).  ``blocks``
    maps a point to the (m, k, j) family its ideal sums share
    (``block_families``); a point it omits sums each block alone.
    """
    blocks = blocks or {}
    with workprec(precision + GUARD_BITS):
        return linear_combination(
            (
                (t.a * c, block)
                for t in rep.terms
                for c, block in _raised_blocks(
                    rep.k, t.n, t.point, m, norm_bound, precision, blocks.get(t.point)
                )
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
