"""Primitive ideals of Z[i] and Z[rho], their ideal sums and the cosine/complex kernels.

An ideal (c mu + d) with gcd(c, d) = 1 (mu = i or rho = exp(pi i/3)) is
stored as a canonical coprime pair together with a deterministic
unimodular completion (a, b) with ad - bc = 1.  The canonical pair of a
unit orbit is its lexicographically smallest pair with c > 0, or c = 0
and d > 0.  These pairs fill a sector of the (c, d) plane, so enumeration
scans only that sector and meets each ideal exactly once, with no
factorization and no orbit folding:

  Gaussian:   (0, 1), (1, -1), and c >= 1 with |d| > c;
  Eisenstein: (0, 1), (1, -2), and c >= 1 with d > c or d < -2c.

Conjugate pairs.  The generator g = d + c mu (x = d, y = c) of a sector
pair with d > c > 0, a representative, has a mirror -conj(g) =
-(x + e y) + y mu (e = 0 at i, 1 at rho), the sector pair (c, -d - e c)
of the same norm; the mirrors are exactly the pairs with d < -(1 + e) c.
The two pairs left over, (0, 1) and (1, -1) at i, (0, 1) and (1, -2) at
rho (norms 1, 2 and 1, 3), are self-conjugate: -conj(g) is a unit
multiple of g.  The scan emits only the representatives and these two,
and ``enumerate_primitive`` derives each mirror.  For even k,
(-conj g)^k = conj(g^k) and the mirror's phase numerator is -P mod 2N, so
a representative and its mirror have the same term Re[g^k Z^m] at every m.
Every pass sums the rows of ``pair_weight`` w > 0 alone, w = 2 or 1 times:
at m = 0 the scan's rows (``scan_rows``), with no mirror, completion or
phase numerator, and at m >= 1 those of ``phasor_row``, one phasor each.

Bulk construction.  ``scan_rows`` yields the scan's rows one column c at
a time, so an m = 0 pass holds one column and never a table.  A column's
d coprime to c come from a sieve, not a gcd per d: the multiples of each
prime of c are struck from a bytearray mask, which ``itertools.compress``
applies to the column's range of d.  The tables,
``pair_rows`` (the same rows, sorted), ``enumerate_primitive`` and
``ideal_sum_data``, build one tuple per ideal, none of which can be part of
a reference cycle, so they run with the cyclic garbage collector paused
(``_collector_paused``); at norm bound 2e5 it would otherwise run hundreds
of collections over the growing tables.

Kernel conventions.  With theta = arg(c mu + d) and the completion
(a, b), the weight-s cosine kernel at Fourier index m is

  Gaussian (mu = i, N = c^2 + d^2, s = 0 mod 4):
      cos(2 pi m (ac + bd)/N + s theta)
  Eisenstein (mu = rho, N = c^2 + cd + d^2, s = 0 mod 6):
      cos(pi m (2ac + 2bd + ad + bc)/N + s theta)

and 0 where the point ``vanishes`` at weight s: 4 (resp. 6) does not
divide s.  Both are what the complex kernel B_{s,c,d} collapses to after
grouping a unit orbit, so they are invariant under the unit action and
under (a, b) -> (a + tc, b + td); the invariance is asserted in the test
suite rather than assumed.

Evaluation.  The generator g = d + c mu has |g|^2 = N and arg g = theta,
so with P the phase numerator above

    C_s(b, m) = Re[g^s e^(i pi m P/N)] / N^(s/2).

No angle is ever formed.  Ideal sums take Z_b = e^(i pi P/N) e^(2 pi v0/N)
(v0 = Im mu) from ``phasor_row``, fixed-point ints from the table kernel
``fixed_phasor``, so that a term of weight k, index m and norm power
N^(j-k/2) is Re[g^k Z_b^m] / N^(k-j).  One pass over the rows, in any
order, ``sum_rows``, fills a whole family of (m, k, j) blocks: 2 Re g^k
exactly as the Lucas sequence V of the trace and norm of g, all that an
m = 0 term reads and, with V_(k+1), all that an m >= 1 term folds in,
Z_b^m stepped in fixed point, every term floored to a fixed number of
fractional bits and added w times as Python ints, so that no order of the
rows changes a total.  ``ideal_sums`` makes that pass over the ideals of
norm <= B, a mirror's term taken as its representative's, at
``sum_width`` bits and rounds each total once: with some m >= 1 over the
cached ``phasor_row``, at m = 0 alone over ``scan_rows`` while the scan
runs.  ``c_kernel`` makes it over one ideal (w = 1), with the phasor
e^(i pi m P/N) of ``fixed_phasor`` as Z and (1, s, s/2) as its one block.
"""

from __future__ import annotations

import enum
import gc
from contextlib import contextmanager
from functools import lru_cache
from itertools import chain, compress, repeat
from math import gcd, isqrt
from typing import Iterator, NamedTuple

import mpmath
from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import from_man_exp, mpf_cos_sin_pi, pi_fixed, round_nearest, to_fixed

from .constants import DEFAULT_PRECISION, GUARD_BITS, POINT_I, POINT_RHO, EllipticPoint

Pair = tuple[int, int]  # x + y mu, or an (x, y) fixed-point phasor
Row = tuple[int, int, int, int]  # (N, x, y, w) of a pass, or (N, x, y, P) of ideal_sum_data


class Field(enum.Enum):
    """The order Z[mu]: its name, its ``point`` mu and ``e`` = mu + conj(mu)."""

    GAUSSIAN = "gaussian", POINT_I, 0
    EISENSTEIN = "eisenstein", POINT_RHO, 1

    def __new__(cls, value: str, point: EllipticPoint, e: int):
        member = object.__new__(cls)
        member._value_, member.point, member.e = value, point, e
        return member


def field_of(point: EllipticPoint) -> Field:
    """The order at the point; ideal sums exist only at i and rho."""
    for field in Field:
        if field.point == point:
            return field
    raise ValueError(f"ideal sums need an elliptic point, got {point}")


def norm_form(field: Field, c: int, d: int) -> int:
    return c * c + field.e * c * d + d * d


def unit_orbit(field: Field, c: int, d: int) -> list[Pair]:
    """All coprime pairs generating the same ideal."""
    if field is Field.GAUSSIAN:
        return [(c, d), (-c, -d), (d, -c), (-d, c)]
    orbit = []
    for _ in range(6):
        orbit.append((c, d))
        c, d = c + d, -c  # multiply the generator by rho
    return orbit


def complete_unimodular(c: int, d: int) -> Pair:
    """Deterministic (a, b) with ad - bc = 1; 0 <= b < |d| when d != 0."""
    if gcd(c, d) != 1:
        raise ValueError(f"gcd({c}, {d}) != 1")
    if d == 0:
        # c = +-1 and a d - b c = -b c = 1
        return 0, -c
    # a d - b c = 1 makes b = -c^-1 mod |d|
    b = -pow(c, -1, abs(d)) % abs(d)
    return (1 + b * c) // d, b


class PrimitiveIdeal(NamedTuple):
    """Primitive ideal as a canonical coprime pair with completion."""

    field: Field
    c: int
    d: int
    norm: int
    a: int
    b: int


def pair_weight(e: int, x: int, y: int) -> int:
    """Multiplicity of the row with generator x + y mu (trace e of mu) in a
    sum: 2 for a representative (x > y > 0), which stands for its mirror
    too, 0 for a mirror (x < -(1 + e) y) and 1 for a self-conjugate row."""
    if x > y > 0:
        return 2
    return 0 if x < -(1 + e) * y else 1


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, restoring it on exit only if it
    was enabled on entry; as a decorator it pauses each call."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def scan_rows(field: Field, norm_bound: int) -> Iterator[Row]:
    """(N, x, y, w) of the self-conjugate ideals (w = 1) and every
    representative (d > c >= 1, w = 2) of norm N <= norm_bound, with
    generator x + y mu = d + c mu, in scan order: the two self-conjugate
    rows, then one column c at a time in ascending d.  The columns are
    built as the iterator reaches them, so a pass that reads it once holds
    one column at a time and never the whole table."""
    if norm_bound < 1:
        raise ValueError("norm_bound must be >= 1")
    return chain.from_iterable(_scan_columns(field.e, norm_bound))


def _scan_columns(e: int, norm_bound: int) -> Iterator[list[Row]]:
    yield [(1, 1, 0, 1), (2 + e, -1 - e, 1, 1)] if norm_bound >= 2 + e else [(1, 1, 0, 1)]
    c = 1
    while c * c + e * c * (c + 1) + (c + 1) ** 2 <= norm_bound:  # N(c, c + 1)
        top = (isqrt(4 * norm_bound - (4 - e * e) * c * c) - e * c) // 2  # (2d + e c)^2 <= 4B - (4 - e^2) c^2
        # coprime[d] stays 1 while no prime of c divides d; trial division
        # finds the primes p <= sqrt(c), and what it leaves above 1 is prime
        cc, ec, coprime = c * c, e * c, bytearray(b"\1") * (top + 1)
        rest, p = c, 2
        while rest > 1:
            if p * p > rest:
                p = rest
            if rest % p == 0:
                coprime[::p] = bytes(top // p + 1)
                while rest % p == 0:
                    rest //= p
            p += 1
        yield [(cc + d * (d + ec), d, c, 2) for d in compress(range(c + 1, top + 1), coprime[c + 1 :])]
        c += 1


@_collector_paused()
def pair_rows(field: Field, norm_bound: int) -> list[Row]:
    """The rows of ``scan_rows`` as one sorted list: the ``ideal_sum_data``
    rows of ``pair_weight`` w > 0, from which ``enumerate_primitive``
    derives every ideal."""
    return sorted(scan_rows(field, norm_bound))


@lru_cache(maxsize=32)
@_collector_paused()
def enumerate_primitive(field: Field, norm_bound: int) -> tuple[PrimitiveIdeal, ...]:
    """All primitive ideals of norm <= norm_bound, sorted by (norm, c, d)."""
    e = field.e
    rows = [(norm, c, d) for norm, d, c, _ in pair_rows(field, norm_bound)]
    rows += [(norm, c, -d - e * c) for norm, c, d in rows if d > c > 0]  # the mirrors
    rows.sort()
    # no call per ideal: tuple.__new__ skips the NamedTuple's __new__, and
    # complete_unimodular is inlined as b = (-c)^-1 mod |d|, a = (1 + b c)/d
    new = tuple.__new__
    return tuple(
        new(PrimitiveIdeal, (field, c, d, norm, (1 + b * c) // d, b))
        for norm, c, d in rows
        for b in (pow(-c, -1, abs(d)),)
    )


# --------------------------------------------------------------------------
# Kernels.
#
# An element x + y mu of Z[mu] is the pair (x, y).  mu^2 = e mu - 1 with
# trace e = ``Field.e``, 0 at i and 1 at rho, so 2 Re(x + y mu) = 2x + e y.


def ring_mul(e: int, p: Pair, q: Pair, shift: int = 0) -> Pair:
    """p q in Z[mu]; with shift > 0 both factors are fixed point with
    ``shift`` fractional bits and the product is floored to that width."""
    (x1, y1), (x2, y2) = p, q
    yy = y1 * y2
    return (x1 * x2 - yy) >> shift, (x1 * y2 + x2 * y1 + e * yy) >> shift


def ring_power(e: int, p: Pair, k: int, shift: int = 0) -> Pair:
    """p^k by binary powering: exact for shift 0, else in fixed point as
    ``ring_mul``.  A floor moves a fixed-point value by less than
    2 * 2^-shift, so for |p| >= 1 the relative error of p^k is at most
    k (eps_p + 5 * 2^-shift) to first order, eps_p that of p."""
    if k < 0:
        raise ValueError(f"ring_power needs an exponent >= 0, got {k}")
    result = None
    while True:
        if k & 1:
            result = p if result is None else ring_mul(e, result, p, shift)
        k >>= 1
        if not k:
            return (1 << shift, 0) if result is None else result
        p = ring_mul(e, p, p, shift)


def twice_real(e: int, p: Pair) -> int:
    return 2 * p[0] + e * p[1]


@lru_cache(maxsize=16)
def _cis_tables(bits: int) -> tuple:
    """e^(i pi h/64) (h < 128) and e^(i pi h/4096) (h < 64) as (cos, sin),
    then pi and 2/sqrt(3), each floored to ``bits`` bits from bits + 8."""
    cis = [mpf_cos_sin_pi(from_man_exp(h, -log), bits + 8) for log, top in ((6, 128), (12, 64)) for h in range(top)]
    cis = tuple((to_fixed(cos, bits), to_fixed(sin, bits)) for cos, sin in cis)
    return cis[:128], cis[128:], pi_fixed(bits), isqrt((4 << 2 * bits) // 3)


def fixed_phasor(field: Field, num: int, den: int, width: int, growth: mpf | None = None) -> Pair:
    """growth * e^(i pi num/den) in mu-coordinates (growth defaults to 1),
    each floored to ``width`` fractional bits from an integer kernel at
    width + 24 bits: num/den mod 2 is h/4096 plus an exact r < 1/4096,
    e^(i pi h/4096) a product of two ``_cis_tables`` entries, sin(pi r) a
    Taylor series and cos(pi r) an isqrt.  Each component is within
    (1 + growth)(width + 24) 2^-(width+24) of the exact one before the
    last floor, so within 2^-width (1 + (1 + growth)(width + 24) 2^-24)."""
    bits = width + 24
    coarse, fine, pi, root = _cis_tables(bits)
    h, rest = divmod((num % (2 * den)) << 12, den)
    term = sin = pi * rest // (den << 12)  # pi r
    square, n = sin * sin >> bits, 2
    while term:  # sin(pi r) = sum of (-1)^i (pi r)^(2i+1)/(2i+1)!
        term = (term * square >> bits) // (n * (n + 1))
        sin, n = sin - term if n & 2 else sin + term, n + 2
    cos = isqrt((1 << 2 * bits) - sin * sin)
    (cx, sx), (cf, sf) = coarse[h >> 6], fine[h & 63]
    cx, sx = (cx * cf - sx * sf) >> bits, (cx * sf + sx * cf) >> bits
    cos, sin = (cx * cos - sx * sin) >> bits, (cx * sin + sx * cos) >> bits
    if growth is not None:
        scale = to_fixed(growth._mpf_, bits)
        cos, sin = cos * scale >> bits, sin * scale >> bits
    if field.e:  # u + iv = (u - y/2) + y mu with y = 2v/sqrt(3); the identity at i
        sin = sin * root >> bits
        cos = (2 * cos - sin) >> 1
    return cos >> 24, sin >> 24


def phase_numerator(field: Field, ideal: PrimitiveIdeal) -> int:
    """Integer P = 2(ac + bd) + e(ad + bc): the phase pi*m*P/N in the cosine."""
    a, b, c, d = ideal.a, ideal.b, ideal.c, ideal.d
    return 2 * (a * c + b * d) + field.e * (a * d + b * c)


def c_kernel(
    field: Field,
    weight: int,
    ideal: PrimitiveIdeal,
    m: int,
    precision: int = DEFAULT_PRECISION,
) -> mpf:
    """Cosine kernel C_weight(ideal, m) = Re[g^weight e^(i pi m P/N)] / N^(weight/2)
    with g = d + c mu, rounded to precision + GUARD_BITS; exact 0 off the
    divisibility class.  It is the one-ideal case of ``sum_rows``, the pass
    of ``ideal_sums``, and refuses a weight <= 0, which the pass's Lucas
    ladder cannot reach."""
    if weight <= 0:
        raise ValueError(f"kernel weight must be positive, got {weight}")
    if field.point.vanishes(weight):
        return mpf(0)
    width = precision + GUARD_BITS
    row = (ideal.norm, ideal.d, ideal.c, 1)
    block = (1, weight, weight // 2)
    phasor = fixed_phasor(field, m * phase_numerator(field, ideal), ideal.norm, width)
    total = sum_rows(field.e, (row,), (phasor,), (block,), width)[block]
    return mp.make_mpf(from_man_exp(total, -width, width, round_nearest))


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


def check_norm_bound(norm_bound: int, m: int, v0: float) -> None:
    """Refuse a norm bound below max(16, ceil(4 pi m v0)), the floor that
    the tail bounds and the fixed-point sums of the m-th coefficient assume."""
    floor = max(16, int(mpmath.ceil(4 * mp.pi * m * v0)))
    if norm_bound < floor:
        raise ValueError(f"norm_bound {norm_bound} below required {floor}")


def sum_width(norm_bound: int, precision: int) -> int:
    """Fractional bits of the fixed-point ideal sums at this norm bound: room
    for one floor per ideal (fewer than norm_bound of them) and for the
    phasor powers Z^m, m < norm_bound, on top of precision + GUARD_BITS."""
    return precision + GUARD_BITS + 2 * norm_bound.bit_length() + 4


@lru_cache(maxsize=16)
@_collector_paused()
def ideal_sum_data(field: Field, norm_bound: int) -> tuple[Row, ...]:
    """(N, x, y, P) of every primitive ideal of norm <= norm_bound: its norm,
    its generator g = x + y mu = d + c mu and its phase numerator
    P = 2(ac + bd) + e(ad + bc) (``phase_numerator``, inlined).  Exact ints,
    shared by every precision."""
    e = field.e
    return tuple(
        (norm, d, c, 2 * (a * c + b * d) + e * (a * d + b * c))
        for _, c, d, norm, a, b in enumerate_primitive(field, norm_bound)
    )


@lru_cache(maxsize=16)
def phasor_row(point: EllipticPoint, norm_bound: int, precision: int) -> tuple[tuple, tuple]:
    """The rows of an m >= 1 pass and their phasors, aligned: (N, x, y, w) of
    each ``ideal_sum_data`` row of the point's field with ``pair_weight``
    w > 0, none for a mirror, and its Z_b = e^(i pi P/N) e^(2 pi v0/N)
    (v0 = Im point) in mu-coordinates floored to ``sum_width`` bits: one
    ``fixed_phasor`` per row and one ``exp`` per distinct norm, so
    Re[g^k Z^m] / N^k = cos(pi m P/N + k theta) N^(-k/2) e^(2 pi m v0/N)."""
    field = field_of(point)
    e = field.e
    width = sum_width(norm_bound, precision)
    rows, phasors, last = [], [], None
    with workprec(width + 16):
        two_pi_v0 = 2 * mp.pi * point.v0(width)
        for norm, x, y, phase_num in ideal_sum_data(field, norm_bound):
            if w := pair_weight(e, x, y):
                if norm != last:  # the rows are sorted by norm
                    growth, last = mpmath.exp(two_pi_v0 / norm), norm
                rows.append((norm, x, y, w))
                phasors.append(fixed_phasor(field, phase_num, norm, width, growth))
    return tuple(rows), tuple(phasors)


def _check_blocks(blocks) -> None:
    """Refuse a block outside the contract of ``sum_rows``, once per pass."""
    for block in blocks:
        m, k, j = block
        if m < 0 or k < 2 or k % 2 or not 0 <= j <= k:
            raise ValueError(f"ideal-sum block (m, k, j) = {block} needs m >= 0, even k >= 2 and 0 <= j <= k")


def sum_rows(e: int, rows, phasors, blocks, width: int) -> dict:
    """(m, k, j) -> sum of w times the floored term Re[g^k Z^m] / N^(k-j)
    over ``rows`` (N, x, y, w) with generator g = x + y mu, for every
    (m, k, j) in ``blocks`` (m >= 0, even k >= 2, 0 <= j <= k, refused
    otherwise), each a fixed-point int with ``width`` fractional bits; Z is
    the row's entry of ``phasors``, pairs at ``width`` bits, which an
    m = 0-only family does not read (None).  ``rows`` is any iterable, in
    any order: every term is an exact integer, so no order changes a total.

    Only the Lucas sequence V_n = g^n + conj(g)^n = 2 Re g^n is carried:
    with t = 2x + e y and N the trace and norm of g, V_2n = V_n^2 - 2 N^n,
    V_(2n+1) = V_n V_(n+1) - t N^n and V_(n+1) = t V_n - N V_(n-1).  Per
    row, a ladder of (V_n, V_(n+1), N^n) from (t, t^2 - 2N, N) along the
    bits of the smallest k reaches it, and unit steps reach each larger k.
    Where nothing reads V_(k+1), one k and no m >= 1, the last step to the
    odd part of k and the halvings over its trailing zero bits carry V
    alone.

    An m = 0-only family floors V_k 2^(width-1) once per block, by
    N^(k-j).  Any other family folds g^k = x_k + y_k mu into
    a = 2 x_k + e y_k = V_k and b = e x_k + (e^2 - 2) y_k, so that
    2 Re[g^k w] = a w_x + b w_y for any w = w_x + w_y mu; at w = g this
    reads V_(k+1) = a x + b y, so b = (V_(k+1) - x V_k)/y exactly, and
    b = e V_k/2 at y = 0, where g^k = x^k.  For each m in ascending order,
    Z^m is stepped from the previous m by ``ring_power``(Z, gap), Z itself
    at gap 1 and (2^width, 0) at m = 0, and one floored ``ring_mul``,
    inlined.
    The numerator a Z^m_x + b Z^m_y of each k is floored by 2 N^(k-j) for
    its largest j, then by N^(j'-j) down to each smaller j.  As
    floor(floor(x/a)/b) = floor(x/(ab)) for positive integers a, b, every
    term is the one its block would get alone with the same Z^m, the same
    at m = 0 in either kind of family, and every job adds it w times.

    ``ideal_sums`` passes a representative with w = 2 for its mirror, whose
    term is taken as the representative's: for even k,
    (-conj g)^k = conj(g^k) and the mirror's Z is conj(Z), so the exact
    terms agree, and the doubled term carries twice one term's floor and
    Z^m error, the pair's budget.  A lone m gets ``ring_power``(Z, m), so a
    one-m family is bit-identical to a pass of its own.  A ``fixed_phasor``
    Z (|Z| >= 1, growth <= e^(2 pi), width below 31000) has relative error
    eps < 4 * 2^-width, and every floored product of a product tree of m
    factors Z adds at most 5 * 2^-width, so the stepped Z^m is within
    m eps + (m - 1) 5 * 2^-width < 9 m 2^-width."""
    _check_blocks(blocks)
    ks = sorted({k for _, k, _ in blocks})
    # per m, ascending: (index of k, its links) for each k with blocks at m,
    # and a link (position of the N power, slot) for each j at (m, k),
    # largest j first: N^(k - j) for it, then N^(j' - j) down to each
    # smaller j
    order, positions, jobs = [], {}, {}
    for m, k, j in sorted(set(blocks), key=lambda block: (block[0], block[1], -block[2])):
        links = jobs.setdefault(m, {}).setdefault(ks.index(k), [])
        above = order[-1][2] if links else k
        links.append((positions.setdefault(above - j, len(positions)), len(order)))
        order.append((m, k, j))
    plan = [(m, list(m_jobs.items())) for m, m_jobs in jobs.items()]
    # V_(k+1) is read by a step to a larger k or an m >= 1 fold (plan[-1][0],
    # the largest m, is not 0).  With neither, the last step of the odd part
    # of k and the halvings over its trailing zero bits carry V alone.
    low = 0 if plan[-1][0] or len(ks) > 1 else (ks[0] & -ks[0]).bit_length() - 1
    ladder, tail = [bit == "1" for bit in bin(ks[0] >> low)[3:]], [False] * low
    if low and ladder:
        tail.insert(0, ladder.pop())
    totals, shift, row_norm = [0] * len(order), width - 1, None
    if not plan[-1][0]:  # m = 0 alone: no phasor, and each block floored once
        # the first block inline, then per block its unit steps from the
        # previous block's k, its power of N and its slot
        more = [(range(b[1] - a[1]), b[1] - b[2], slot) for slot, (a, b) in enumerate(zip(order, order[1:]), 1)]
        exponent, total = order[0][1] - order[0][2], 0
        for norm, x, y, w in rows:
            t = 2 * x + e * y
            v, v1, nn = t, t * t - 2 * norm, norm
            for odd in ladder:  # (V_n, V_(n+1), N^n) from n to 2n + odd
                if odd:
                    v, v1, nn = v * v1 - t * nn, v1 * v1 - 2 * nn * norm, nn * nn * norm
                else:
                    v, v1, nn = v * v - 2 * nn, v * v1 - t * nn, nn * nn
            for odd in tail:  # (V_n, N^n) alone
                if odd:
                    v, nn = v * v1 - t * nn, nn * nn * norm
                else:
                    v, nn = v * v - 2 * nn, nn * nn
            total += w * ((v << shift) // norm**exponent)
            for unit_steps, power, slot in more:
                for _ in unit_steps:
                    v, v1 = v1, t * v1 - norm * v
                totals[slot] += w * ((v << shift) // norm**power)
        totals[0] = total
        return dict(zip(order, totals))
    steps = tuple(range(k - last) for last, k in zip([ks[0], *ks], ks))  # unit steps to each k
    for (norm, x, y, w), z in zip(rows, phasors):
        if norm != row_norm:
            row_norm, powers = norm, tuple(map(pow, repeat(norm), positions))
        t = 2 * x + e * y
        v, v1, nn = t, t * t - 2 * norm, norm
        for odd in ladder:  # as at m = 0
            if odd:
                v, v1, nn = v * v1 - t * nn, v1 * v1 - 2 * nn * norm, nn * nn * norm
            else:
                v, v1, nn = v * v - 2 * nn, v * v1 - t * nn, nn * nn
        folded = []
        for unit_steps in steps:
            for _ in unit_steps:
                v, v1 = v1, t * v1 - norm * v
            folded.append((v, (v1 - x * v) // y if y else e * v >> 1))
        last = 0
        for m, m_jobs in plan:
            sx, sy = z if m - last == 1 else ring_power(e, z, m - last, width)  # (2^width, 0) at m = 0
            if last:  # ring_mul(e, (wx, wy), (sx, sy), width), inlined
                yy = wy * sy
                sx, sy = (wx * sx - yy) >> width, (wx * sy + sx * wy + e * yy) >> width
            wx, wy, last = sx, sy, m
            for index, links in m_jobs:
                a, b = folded[index]
                # (2 Re[g^k Z^m] 2^width) // (2 N^(k-j)), then floored down the
                # chain: floor(floor(x/a)/b) = floor(x/(ab))
                q = (a * wx + b * wy) >> 1
                for position, slot in links:
                    q //= powers[position]
                    totals[slot] += w * q
    return dict(zip(order, totals))


@lru_cache(maxsize=1024)
def ideal_sums(point: EllipticPoint, norm_bound: int, precision: int, blocks: tuple) -> dict:
    """(m, k, j) -> sum*_b cos(pi m P_b/N_b + k theta_b) N_b^(j-k/2) e^(2 pi m v0/N_b)
    over the primitive ideals of norm <= norm_bound, for every (m, k, j) in
    ``blocks``, each rounded once to precision + GUARD_BITS bits.

    One ``sum_rows`` pass fills every block at ``sum_width`` fractional
    bits over the representative and self-conjugate rows alone, each
    counted ``pair_weight`` (2 or 1) times at every m: those of
    ``phasor_row`` if some m >= 1, else those of ``scan_rows``, streamed
    from the sector scan into the pass with no table, sort or cache.  A
    mirror's term is its representative's, of the same exact value, so a
    doubled term carries the pair's rounding budget.  With m < norm_bound
    (``check_norm_bound`` of the largest m, checked here) and Z^m within
    9 m 2^-width (``sum_rows``), the rounding stays below
    2^-(precision+GUARD_BITS) of the sum of |term| over every ideal, which
    the unit ideal's term (at least 1) dominates.  The cache holds one
    entry per pass, not per (4 pi m)^r scaling.

    An empty family is refused, as is, before any row is read, a block
    outside the contract of ``sum_rows`` or off the kernel's divisibility
    class (where ``point.vanishes(k)``: 4 | k at i, 6 | k at rho), where the
    sum would depend on which generator stands for each ideal."""
    field = field_of(point)
    if not blocks:
        raise ValueError("ideal_sums needs at least one block")
    _check_blocks(blocks)
    for block in blocks:
        if point.vanishes(block[1]):
            step = 2 * point.omega
            raise ValueError(f"ideal-sum block (m, k, j) = {block} is off the kernel's class: {step} must divide k")
    top = max(m for m, _, _ in blocks)
    if top:
        with workprec(precision + GUARD_BITS):
            check_norm_bound(norm_bound, top, point.v0(precision))
        rows, phasors = phasor_row(point, norm_bound, precision)
    else:
        rows, phasors = scan_rows(field, norm_bound), None
    width = sum_width(norm_bound, precision)
    totals = sum_rows(field.e, rows, phasors, blocks, width)
    bits = precision + GUARD_BITS
    return {block: mp.make_mpf(from_man_exp(t, -width, bits, round_nearest)) for block, t in totals.items()}
