"""Representation of meromorphic cusp forms in the raised Poincare basis.

A weight 2-2k meromorphic cusp form with poles at elliptic points is a
combination sum a_{l,n} R^n[H_{2k}] over its pole points.  The basis
element R^n[H_{2k}] at tau0 has principal part

    eps_{2k+2n}(tau0) n! sum_{j=0}^{n} (2k+n-1)!/((2k-1+j)!(n-j)!)
                                 (2i)^j / v0^(n-j) / (z-tau0)^(j+1)

with residue constant eps_{2K}(tau0) = i omega/(2 pi), or 0 where
``tau0.vanishes(2K)``.  The solver eliminates a given principal part
from the top order down; orders whose residue constant vanishes carry
no basis element and must be absorbed exactly by the tails of higher
ones, which makes the solve self-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from mpmath import mp, mpc, mpf, workprec

from .constants import DEFAULT_PRECISION, GUARD_BITS, EllipticPoint
from .expansion import PrincipalPart


class BasisCongruenceError(ArithmeticError):
    """Top pole order incompatible with the stabilizer congruence."""


class BasisResidualError(ArithmeticError):
    """Principal part inconsistent with the tails of higher basis elements."""


def epsilon_tilde(weight: int, point: EllipticPoint, precision: int = DEFAULT_PRECISION) -> mpc:
    """Residue constant of H_weight at the point: i omega/(2 pi) or 0."""
    if point.vanishes(weight):
        return mpc(0)
    with workprec(precision + GUARD_BITS):
        return mpc(0, point.omega) / (2 * mp.pi)


@dataclass(frozen=True)
class BasisTerm:
    point: EllipticPoint
    n: int
    a: mpc


@dataclass(frozen=True)
class BasisRepresentation:
    """f = sum a R^n[H_{2k}] at the given points (source weight 2-2k)."""

    k: int
    terms: tuple[BasisTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if t.point.vanishes(2 * (self.k + t.n)):
                raise ValueError(
                    f"inadmissible term: k+n = {self.k + t.n} not 0 mod {t.point.omega} at {t.point}"
                )


def basis_principal_part(
    k: int,
    n: int,
    point: EllipticPoint,
    precision: int = DEFAULT_PRECISION,
) -> PrincipalPart:
    """Principal part of R^n[H_{2k}] at its own point; empty when the
    residue constant vanishes."""
    if k < 2 or n < 0:
        raise ValueError("need k >= 2 and n >= 0")
    if point.vanishes(2 * k + 2 * n):
        return PrincipalPart(point, {}, frozenset(), precision)
    with workprec(precision + GUARD_BITS):
        v0 = point.v0(precision)
        pref = epsilon_tilde(2 * k + 2 * n, point, precision) * factorial(n)
        two_i = mpc(0, 2)
        coeffs = {}
        for j in range(n + 1):
            num = factorial(2 * k + n - 1)
            den = factorial(2 * k - 1 + j) * factorial(n - j)
            coeffs[j + 1] = pref * num / den * two_i**j / v0 ** (n - j)
        return PrincipalPart(point, coeffs, frozenset(), precision)


def solve_basis(
    pp_list: list[PrincipalPart],
    k: int,
    precision: int = DEFAULT_PRECISION,
) -> BasisRepresentation:
    """Express a principal-part collection in the raised basis.

    Greedy highest-order-first elimination per point.  A top order
    violating n = 1-k (mod omega) has no basis element and is rejected;
    any other top order gets its element, however small its coefficient.
    A lower order's residual within 2^(-precision/2) of the largest term
    that entered that order (its input coefficient or a higher element's
    tail) counts as zero; an order without an element must reach that.
    """
    tol = mpf(2) ** (-(precision // 2))
    terms: list[BasisTerm] = []
    with workprec(precision + GUARD_BITS):
        for pp in pp_list:
            point = pp.point
            live = [p for p, c in pp.coeffs.items() if c != 0]
            if not live:
                continue
            top = max(live)
            if point.vanishes(2 * (k + top - 1)):
                raise BasisCongruenceError(
                    f"no such meromorphic cusp form: pole order {top} at {point} "
                    f"violates order = 1-k (mod {point.omega})"
                )
            residual = {p: mpc(pp.coefficient(p)) for p in range(1, top + 1)}
            scale = {p: abs(c) for p, c in residual.items()}
            for p in range(top, 0, -1):
                n = p - 1
                if not point.vanishes(2 * k + 2 * n):
                    if p < top and abs(residual[p]) <= tol * scale[p]:
                        continue
                    bpp = basis_principal_part(k, n, point, precision)
                    a = residual[p] / bpp.coefficient(p)
                    for q in range(1, p + 1):
                        tail = a * bpp.coefficient(q)
                        residual[q] -= tail
                        scale[q] = max(scale[q], abs(tail))
                    terms.append(BasisTerm(point, n, a))
                elif abs(residual[p]) > tol * scale[p]:
                    raise BasisResidualError(
                        f"principal part inconsistent with basis tails at {point}: order {p} residual {residual[p]}"
                    )
    return BasisRepresentation(k, tuple(terms))

