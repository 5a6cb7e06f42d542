"""Fourier coefficients of E_2^n times a meromorphic cusp form.

The entry point ``coefficients`` refuses what the formulas do not cover,
then returns the m-th coefficients.  Two routes are implemented and
cross-checked, and ``QuasiExpansion.coefficient`` picks one
(``simple_route_error``):

* simple poles: for f = sum a H_{2k}(tau_m, .) the product E_2^j f has
  m-th coefficient (3/pi)^j sum_m a_m omega sum*_b C_{2k}(b, m)
  N^(j-k) v0^-j e^(2 pi m v0/N), valid for 0 <= j < k - 1;

* general: the auxiliary forms

      F_n = sum_{l=0}^n (-1)^l C(n,l) (2k-2n-1)!/(2k-2n-1+l)!
            (2i)^l (pi/3)^(n-l) d^l/dz^l (E_2^(n-l) f)

  are genuinely meromorphic of weight 2-2k+2n, so solving their
  principal parts in the raised basis gives their coefficients, and
  peeling off the l = 0 term yields the recursion

      coeff_m(E_2^n f) = (3/pi)^n coeff_m(F_n)
          - sum_{l=1}^n (-1)^l C(n,l) (2k-2n-1)!/(2k-2n-1+l)!
            (-12 m)^l coeff_m(E_2^(n-l) f).
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from math import comb, factorial

from mpmath import mp, mpc, mpf, workprec

from .constants import DEFAULT_PRECISION, GUARD_BITS, POINT_I, POINT_RHO, EllipticPoint
from .engine import TruncatedSum, assemble_coefficient, block_table, block_tables, linear_combination
from .expansion import (
    _add,
    _dz,
    _mul,
    _scale,
    laurent_at,
    principal_part_from_laurent,
    taylor_at,
    valuation,
)
from .lattice import _FIELD_AT, check_norm_bound
from .qseries import MAX_POLE_ORDER, FormExpression, Generator, contains_dee, parse_form, split_e2_power
from .solver import BasisRepresentation, solve_basis


def f_combination_coeff(k: int, n: int, l: int) -> Fraction:
    """Exact coefficient (-1)^l C(n,l) (2k-2n-1)!/(2k-2n-1+l)! of the
    l-th term in the auxiliary form F_n."""
    return Fraction((-1) ** l * comb(n, l) * factorial(2 * k - 2 * n - 1), factorial(2 * k - 2 * n - 1 + l))


def simple_route_error(f_rep: BasisRepresentation, j: int) -> str | None:
    """Why the simple-pole route cannot give E_2^j f, or None when it can."""
    if j < 0 or j >= f_rep.k - 1:
        return "outside validity range: need 0 <= j < k - 1"
    for t in f_rep.terms:
        if t.n != 0:
            return "representation must contain only simple poles (n = 0)"
        if t.point not in _FIELD_AT:
            return "simple-pole route needs poles at i or rho"
    return None


def simple_pole_tables(f_rep: BasisRepresentation, j: int, ms, norm_bound: int, precision: int) -> dict:
    """pole -> ``block_table`` of the blocks (2k, j, 0, m), m in ``ms``, that
    the simple-pole route reads there."""
    keys = {(2 * f_rep.k, j, 0, m) for m in ms}
    return {t.point: block_table(t.point, keys, norm_bound, precision) for t in f_rep.terms}


def simple_pole_quasi_coeff(
    f_rep: BasisRepresentation,
    j: int,
    m: int,
    norm_bound: int,
    precision: int = DEFAULT_PRECISION,
    tables: dict | None = None,
) -> TruncatedSum:
    """m-th coefficient of E_2^j f for f given by a simple-pole
    representation at elliptic points.  ``tables`` maps each pole to a
    ``block_table`` that holds its block at this m, by default
    ``simple_pole_tables`` at this m alone."""
    reason = simple_route_error(f_rep, j)
    if reason:
        raise ValueError(reason)
    tables = tables or simple_pole_tables(f_rep, j, (m,), norm_bound, precision)
    with workprec(precision + GUARD_BITS):
        scale = (3 / mp.pi) ** j
        return linear_combination(
            ((scale * t.point.omega * t.a, tables[t.point][2 * f_rep.k, j, 0, m]) for t in f_rep.terms), norm_bound
        )


class QuasiExpansion:
    """Coefficient machine for E_2^n f from its pole data.

    ``laurents`` maps each pole to the Laurent series of f there, to order
    n + 6; ``f_rep`` is the raised-basis representation of f itself, solved
    from their principal parts.  ``aux_reps`` is built from them the first
    time it is read, which only the auxiliary-form recursion does, and kept
    in the instance ``__dict__``.
    """

    __slots__ = ("k", "n", "f_rep", "laurents", "precision", "__dict__")

    def __init__(self, k: int, n: int, f_rep: BasisRepresentation, laurents: dict, precision: int):
        self.k, self.n, self.f_rep, self.laurents, self.precision = k, n, f_rep, laurents, precision

    @cached_property
    def aux_reps(self) -> dict:
        """``aux_reps[j]`` is the representation of the weight 2-2(k-j)
        auxiliary form F_j, j = 1..n, solved from principal parts computed
        by local series arithmetic at each pole.  Each pole keeps
        E_2^(j-1) f and the (j-1-d)-th derivatives of E_2^d f for d < j;
        step j multiplies the first by E_2 and differentiates each of the
        others once more: n products and n(n+1)/2 derivatives per pole."""
        k, n = self.k, self.n
        pps = {j: [] for j in range(1, n + 1)}
        with workprec(self.precision + GUARD_BITS):
            pi_third = mp.pi / 3
            two_i = mpc(0, 2)
            for point, lf in self.laurents.items():
                e2 = taylor_at(Generator("E2"), point, -lf.lowest_order + n + 6, self.precision)
                power, derivs = lf, [lf]
                for j in range(1, n + 1):
                    power = _mul(e2, power)
                    derivs = [_dz(s) for s in derivs] + [power]
                    combo = None
                    for l in range(j + 1):
                        coeff = f_combination_coeff(k, j, l)
                        factor = mpf(coeff.numerator) / coeff.denominator * pi_third ** (j - l) * two_i**l
                        piece = _scale(derivs[j - l], factor)
                        combo = piece if combo is None else _add(combo, piece)
                    pps[j].append(principal_part_from_laurent(combo))
        return {j: solve_basis(parts, k - j, self.precision) for j, parts in pps.items()}

    def coefficients(self, ms, norm_bound: int) -> list[TruncatedSum]:
        """The m-th coefficients of E_2^n f for m in ``ms``, in that order:
        the simple-pole route when n >= 1 and f qualifies, the
        auxiliary-form recursion otherwise.  The blocks of every m at each
        pole come from one table, filled by one pass over the ideals."""
        if self.n and simple_route_error(self.f_rep, self.n) is None:
            tables = simple_pole_tables(self.f_rep, self.n, ms, norm_bound, self.precision)
            return [simple_pole_quasi_coeff(self.f_rep, self.n, m, norm_bound, self.precision, tables) for m in ms]
        tables = block_tables(self._reps(self.n), ms, norm_bound, self.precision)
        return [self.coefficient_of_power(self.n, m, norm_bound, tables) for m in ms]

    def coefficient(self, m: int, norm_bound: int) -> TruncatedSum:
        """m-th coefficient of E_2^n f (``coefficients``)."""
        return self.coefficients((m,), norm_bound)[0]

    def _reps(self, j: int) -> list[BasisRepresentation]:
        return [self.f_rep] + [self.aux_reps[i] for i in range(1, j + 1)]

    def coefficient_of_power(self, j: int, m: int, norm_bound: int, tables: dict | None = None) -> TruncatedSum:
        """m-th coefficient of E_2^j f for any power j <= n by the
        auxiliary-form recursion, from the powers 0..j bottom-up.  The
        blocks of f and of F_1..F_j at each pole come from one table,
        ``tables`` (``block_tables``), by default for this m alone."""
        if not 0 <= j <= self.n:
            raise ValueError(f"power {j} outside 0..{self.n}")
        tables = tables or block_tables(self._reps(j), (m,), norm_bound, self.precision)
        with workprec(self.precision + GUARD_BITS):
            sums = [assemble_coefficient(self.f_rep, m, norm_bound, self.precision, tables)]
            for i in range(1, j + 1):
                aux = assemble_coefficient(self.aux_reps[i], m, norm_bound, self.precision, tables)
                earlier = []
                for l in range(1, i + 1):
                    coeff = f_combination_coeff(self.k, i, l)
                    earlier.append((-mpf(coeff.numerator) / coeff.denominator * mpf(-12 * m) ** l, sums[i - l]))
                sums.append(linear_combination([((3 / mp.pi) ** i, aux)] + earlier, norm_bound))
        return sums[j]


def _poles(expr: FormExpression, n: int) -> tuple[int, list[EllipticPoint]]:
    """k and the poles of E_2^n f.  Refuses D(...), a zero factor, a weight
    2-2k+2n that is not negative and even, no pole at i or rho, E_2 in f,
    and a top pole order plus n (that of F_n) above ``MAX_POLE_ORDER``."""
    if contains_dee(expr):
        raise ValueError("D(...) is not modular; only the oracle can expand it")
    weight = expr.weight
    if weight >= 0 or weight % 2:
        raise ValueError(f"expression weight {weight} is not a negative even integer")
    k = (2 - weight) // 2
    if n < 0 or 2 - 2 * k + 2 * n >= 0:
        raise ValueError(f"weight 2-2k+2n = {2 - 2 * k + 2 * n} must stay negative")
    orders = {point: -valuation(expr, point) for point in (POINT_I, POINT_RHO)}
    poles = [point for point, order in orders.items() if order > 0]
    if not poles:
        raise ValueError("no poles found at the candidate points")
    if expr.contains_generator("E2"):
        raise ValueError("E2 is not modular; pass its power as n instead")
    top = max(orders.values()) + n
    if top > MAX_POLE_ORDER:
        raise ValueError(f"pole order plus E2 power must be <= {MAX_POLE_ORDER}, got {top}")
    return k, poles


def quasi_expansion(
    expr: FormExpression | str,
    n: int,
    precision: int = DEFAULT_PRECISION,
) -> QuasiExpansion:
    """Build the quasi-coefficient machine for E_2^n times the expression,
    an E_2-free and D-free form with a pole at i or rho: the Laurent
    series of f at each pole and f's own basis solve.  The auxiliary forms
    wait for their first reader (``QuasiExpansion.aux_reps``)."""
    expr = parse_form(expr) if isinstance(expr, str) else expr
    k, poles = _poles(expr, n)
    laurents = {point: laurent_at(expr, point, precision, depth=n + 6) for point in poles}
    f_rep = solve_basis([principal_part_from_laurent(s) for s in laurents.values()], k, precision)
    return QuasiExpansion(k, n, f_rep, laurents, precision)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def coefficients(
    form: FormExpression | str, ms, *, norm_bound: int, precision: int = DEFAULT_PRECISION
) -> list[TruncatedSum]:
    """The m-th coefficients, m in ``ms`` (any iterable, read once) in
    order, of E_2^n f (text or an expression) to norm ``norm_bound``, after
    every refusal: first of no m, an m not an int >= 0, a norm bound not an
    int or a precision not a positive int, then ``_poles``'s and a norm
    bound below a pole's floor.  A bool is an int to Python but none of
    these: True would read as m = 1 or as a 1-bit precision."""
    ms = list(ms)
    if not ms or not all(_is_int(m) and m >= 0 for m in ms):
        raise ValueError(f"ms: need one or more ints m >= 0, got {ms}")
    if not _is_int(norm_bound):
        raise ValueError(f"norm_bound must be an int, got {norm_bound!r}")
    if not _is_int(precision) or precision < 1:
        raise ValueError(f"precision must be a positive int, got {precision!r}")
    expr = parse_form(form) if isinstance(form, str) else form
    n, f = split_e2_power(expr)
    _, poles = _poles(f, n)
    with workprec(precision + GUARD_BITS):
        for point in poles:
            check_norm_bound(norm_bound, max(ms), point.v0(precision))
    return quasi_expansion(f, n, precision).coefficients(ms, norm_bound)
