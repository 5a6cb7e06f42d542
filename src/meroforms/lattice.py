"""Primitive ideals of Z[i] and Z[rho] and the cosine/complex kernels.

An ideal (c mu + d) with gcd(c, d) = 1 (mu = i or rho = exp(pi i/3)) is
stored as a canonical coprime pair together with a deterministic
unimodular completion (a, b) with ad - bc = 1.  Enumeration is a direct
scan over the region N(c, d) <= bound followed by unit-orbit
canonicalization, so no factorization is needed.

Kernel conventions.  With theta = arg(c mu + d) and the completion
(a, b), the weight-s cosine kernel at Fourier index m is

  Gaussian (mu = i, N = c^2 + d^2, s = 0 mod 4):
      cos(2 pi m (ac + bd)/N + s theta)
  Eisenstein (mu = rho, N = c^2 + cd + d^2, s = 0 mod 6):
      cos(pi m (2ac + 2bd + ad + bc)/N + s theta)

and 0 when 4 (resp. 6) does not divide s.  Both are what the complex
kernel B_{s,c,d} collapses to after grouping a unit orbit, so they are
invariant under the unit action and under (a, b) -> (a + tc, b + td);
the invariance is asserted in the test suite rather than assumed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

import mpmath
from mpmath import mp, mpc, mpf, workprec

from .constants import DEFAULT_PRECISION, GUARD_BITS


class Field(enum.Enum):
    GAUSSIAN = "gaussian"
    EISENSTEIN = "eisenstein"


UNIT_COUNT = {Field.GAUSSIAN: 4, Field.EISENSTEIN: 6}


def norm_form(field: Field, c: int, d: int) -> int:
    if field is Field.GAUSSIAN:
        return c * c + d * d
    return c * c + c * d + d * d


def unit_orbit(field: Field, c: int, d: int) -> list[tuple[int, int]]:
    """All coprime pairs generating the same ideal."""
    if field is Field.GAUSSIAN:
        return [(c, d), (-c, -d), (d, -c), (-d, c)]
    orbit = []
    for _ in range(6):
        orbit.append((c, d))
        c, d = c + d, -c  # multiply the generator by rho
    return orbit


def canonical_pair(field: Field, c: int, d: int) -> tuple[int, int]:
    """Deterministic unit-orbit representative: the lexicographically
    smallest pair with c > 0, or c = 0 and d > 0."""
    candidates = [
        (cc, dd)
        for cc, dd in unit_orbit(field, c, d)
        if cc > 0 or (cc == 0 and dd > 0)
    ]
    return min(candidates)


def complete_unimodular(c: int, d: int) -> tuple[int, int]:
    """Deterministic (a, b) with ad - bc = 1; 0 <= b < |d| when d != 0."""
    if gcd(c, d) != 1:
        raise ValueError(f"gcd({c}, {d}) != 1")
    if d == 0:
        # c = +-1 and a d - b c = -b c = 1
        return 0, -c
    # extended gcd: x d + y c = 1, then a = x, b = -y
    x0, y0 = _ext_gcd(d, c)
    a0, b0 = x0, -y0
    b = b0 % abs(d)
    a = (1 + b * c) // d
    return a, b


def _ext_gcd(u: int, v: int) -> tuple[int, int]:
    """(x, y) with x u + y v = gcd(u, v) = 1."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while v:
        q, r = divmod(u, v)
        u, v = v, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if u == -1:
        x0, y0 = -x0, -y0
    return x0, y0


@dataclass(frozen=True)
class PrimitiveIdeal:
    """Primitive ideal as a canonical coprime pair with completion."""

    field: Field
    c: int
    d: int
    norm: int
    a: int
    b: int


def _make_ideal(field: Field, c: int, d: int) -> PrimitiveIdeal:
    a, b = complete_unimodular(c, d)
    return PrimitiveIdeal(field, c, d, norm_form(field, c, d), a, b)


@lru_cache(maxsize=32)
def enumerate_primitive(field: Field, norm_bound: int) -> tuple[PrimitiveIdeal, ...]:
    """All primitive ideals of norm <= norm_bound, sorted by norm ascending."""
    if norm_bound < 1:
        raise ValueError("norm_bound must be >= 1")
    seen: set[tuple[int, int]] = set()
    if field is Field.GAUSSIAN:
        cmax = isqrt(norm_bound)
        for c in range(-cmax, cmax + 1):
            dmax = isqrt(norm_bound - c * c)
            for d in range(-dmax, dmax + 1):
                if gcd(c, d) == 1:
                    seen.add(canonical_pair(field, c, d))
    else:
        dmax = isqrt(4 * norm_bound // 3)
        for d in range(-dmax, dmax + 1):
            t = isqrt(4 * norm_bound - 3 * d * d)
            # (2c + d)^2 <= 4B - 3d^2
            for c in range(-((t + d) // 2), (t - d) // 2 + 1):
                if norm_form(field, c, d) <= norm_bound and gcd(c, d) == 1:
                    seen.add(canonical_pair(field, c, d))
    ideals = [_make_ideal(field, c, d) for c, d in seen]
    ideals.sort(key=lambda b: (b.norm, b.c, b.d))
    return tuple(ideals)


# --------------------------------------------------------------------------
# Kernels.


def _angle(field: Field, c: int, d: int, precision: int) -> mpf:
    with workprec(precision + GUARD_BITS):
        if field is Field.GAUSSIAN:
            return mpmath.atan2(mpf(c), mpf(d))
        return mpmath.atan2(c * mpmath.sqrt(3), mpf(c + 2 * d))


def _phase_numerator(field: Field, ideal: PrimitiveIdeal) -> int:
    """Integer P with m-dependent phase pi*m*P/N inside the cosine."""
    a, b, c, d = ideal.a, ideal.b, ideal.c, ideal.d
    if field is Field.GAUSSIAN:
        return 2 * (a * c + b * d)
    return 2 * a * c + 2 * b * d + a * d + b * c


def ideal_row(field: Field, ideal: PrimitiveIdeal, precision: int) -> tuple[int, mpf, int]:
    """(norm N, angle theta, phase numerator P) of an ideal: the data the
    cosine kernel reads."""
    return ideal.norm, _angle(field, ideal.c, ideal.d, precision), _phase_numerator(field, ideal)


def row_cosine(weight: int, m: int, row: tuple[int, mpf, int]) -> mpf:
    """cos(pi m P/N + weight theta) of an ``ideal_row``, at the caller's
    working precision; the divisibility class is the caller's to check."""
    norm, theta, phase_num = row
    return mpmath.cos(mp.pi * m * phase_num / norm + weight * theta)


def kernel_vanishes(field: Field, weight: int) -> bool:
    if weight % 2:
        raise ValueError("kernel weight must be even")
    return weight % (4 if field is Field.GAUSSIAN else 6) != 0


def c_kernel(
    field: Field,
    weight: int,
    ideal: PrimitiveIdeal,
    m: int,
    precision: int = DEFAULT_PRECISION,
) -> mpf:
    """Cosine kernel C_weight(ideal, m); exact 0 off the divisibility class."""
    if kernel_vanishes(field, weight):
        return mpf(0)
    with workprec(precision + GUARD_BITS):
        return row_cosine(weight, m, ideal_row(field, ideal, precision))


def b_kernel_with_completion(
    weight: int,
    c: int,
    d: int,
    a: int,
    b: int,
    z,
    n: int,
    precision: int = DEFAULT_PRECISION,
) -> mpc:
    """Complex kernel B_{weight,c,d}(z, n) with an explicit completion."""
    if a * d - b * c != 1:
        raise ValueError("completion must satisfy ad - bc = 1")
    with workprec(precision + GUARD_BITS):
        z = mpc(z)
        u, v = z.real, z.imag
        w = c * z + d
        wsq = abs(w) ** 2
        phase = (a * c * (u * u + v * v) + b * d + u * (a * d + b * c)) / wsq
        return w ** (-weight) * mpmath.exp(2 * mp.pi * n * v / wsq) * mpmath.exp(-2j * mp.pi * n * phase)


def b_kernel(
    weight: int,
    c: int,
    d: int,
    z,
    n: int,
    precision: int = DEFAULT_PRECISION,
) -> mpc:
    """Complex kernel with the canonical completion of (c, d)."""
    a, b = complete_unimodular(c, d)
    return b_kernel_with_completion(weight, c, d, a, b, z, n, precision)


@lru_cache(maxsize=16)
def ideal_sum_data(field: Field, norm_bound: int, precision: int) -> tuple:
    """``ideal_row`` of every primitive ideal of norm <= norm_bound."""
    return tuple(ideal_row(field, ideal, precision) for ideal in enumerate_primitive(field, norm_bound))
