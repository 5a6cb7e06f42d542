import gc
import random
import re
from math import gcd, isqrt

import mpmath
import pytest
from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import from_man_exp, from_rational, mpf_cos_sin_pi, round_nearest, to_fixed

from meroforms import (
    Field,
    b_kernel,
    c_kernel,
    complete_unimodular,
    enumerate_primitive,
)
import meroforms.lattice as lattice
from meroforms.constants import GUARD_BITS, POINT_I, POINT_RHO, generic_point
from meroforms.lattice import (
    PrimitiveIdeal,
    b_kernel_with_completion,
    field_of,
    fixed_phasor,
    ideal_sum_data,
    norm_form,
    pair_weight,
    phase_numerator,
    phasor_row,
    ring_mul,
    ring_power,
    scan_rows,
    sum_rows,
    sum_width,
    twice_real,
    unit_orbit,
)

from conftest import reference_angle_row, reference_cosine, rel_err


def test_enumerate_examples():
    assert [b.norm for b in enumerate_primitive(Field.GAUSSIAN, 5)] == [1, 2, 5, 5]
    assert [b.norm for b in enumerate_primitive(Field.GAUSSIAN, 4)] == [1, 2]
    assert [b.norm for b in enumerate_primitive(Field.EISENSTEIN, 3)] == [1, 3]


def canonical_pair(field: Field, c: int, d: int) -> tuple[int, int]:
    """Unit-orbit representative by definition: the lexicographically
    smallest pair of the orbit with c > 0, or c = 0 and d > 0."""
    return min((cc, dd) for cc, dd in unit_orbit(field, c, d) if cc > 0 or (cc == 0 and dd > 0))


def orbit_scan(field: Field, bound: int) -> list[tuple[int, int, int, int, int]]:
    """Reference enumeration: every coprime pair of the disc N(c, d) <= bound
    folded to its canonical pair, sorted by (norm, c, d), as (c, d, norm, a, b)."""
    span = isqrt(4 * bound // 3)  # |c|, |d| <= sqrt(4N/3) in both fields
    pairs = {
        canonical_pair(field, c, d)
        for c in range(-span, span + 1)
        for d in range(-span, span + 1)
        if gcd(c, d) == 1 and norm_form(field, c, d) <= bound
    }
    rows = sorted((norm_form(field, c, d), c, d) for c, d in pairs)
    return [(c, d, norm, *complete_unimodular(c, d)) for norm, c, d in rows]


@pytest.mark.parametrize("field", [Field.GAUSSIAN, Field.EISENSTEIN])
def test_enumerate_matches_orbit_scan(field):
    for bound in (1, 2, 3, 4, 7, 13, 100, 5000):
        got = [(b.c, b.d, b.norm, b.a, b.b) for b in enumerate_primitive(field, bound)]
        assert got == orbit_scan(field, bound), bound
        assert all(b.field is field for b in enumerate_primitive(field, bound))


def brute_force_orbit_count(field: Field, bound: int) -> int:
    pairs = set()
    span = isqrt(bound) + 2
    for c in range(-2 * span, 2 * span + 1):
        for d in range(-2 * span, 2 * span + 1):
            if gcd(c, d) == 1 and norm_form(field, c, d) <= bound:
                pairs.add((c, d))
    units = 4 if field is Field.GAUSSIAN else 6
    assert len(pairs) % units == 0
    return len(pairs) // units


@pytest.mark.parametrize("field", [Field.GAUSSIAN, Field.EISENSTEIN])
def test_enumerate_count_matches_brute_force(field):
    for bound in (1, 2, 10, 100, 10_000):
        assert len(enumerate_primitive(field, bound)) == brute_force_orbit_count(field, bound)


def gcd_scan(field: Field, bound: int) -> list[tuple[int, int, int, int]]:
    """Reference sector scan: the self-conjugate rows, then for each column
    c >= 1 every d > c of norm <= bound with gcd(c, d) = 1, one gcd per d."""
    e = field.e
    rows = [(1, 1, 0, 1), (2 + e, -1 - e, 1, 1)][: 1 + (bound >= 2 + e)]
    c = 1
    while norm_form(field, c, c + 1) <= bound:
        d = c + 1
        while norm_form(field, c, d) <= bound:
            if gcd(c, d) == 1:
                rows.append((norm_form(field, c, d), d, c, 2))
            d += 1
        c += 1
    return rows


@pytest.mark.parametrize("field", [Field.GAUSSIAN, Field.EISENSTEIN])
def test_scan_rows_match_a_gcd_scan(field):
    # the scan strikes the multiples of each prime of c from a mask; column
    # c = 210 = 2 * 3 * 5 * 7 has four of them and first appears at norm
    # N(210, 211), 88621 at i and 132931 at rho
    first_210 = norm_form(field, 210, 211)
    for bound in (1, 2, 3, 4, 5000, first_210 - 1, first_210, 140_000):
        got = list(lattice.scan_rows(field, bound))
        assert got == gcd_scan(field, bound), bound
        assert any(y == 210 for _, _, y, _ in got) is (bound >= first_210)


@pytest.mark.parametrize("field", [Field.GAUSSIAN, Field.EISENSTEIN])
def test_unit_sum_vanishes_where_the_point_rule_says(field):
    # sum of u^-w over the reference units, exactly in Z[mu]: u^-1 = conj(u)
    # = (x + e y) - y mu for u = x + y mu, and the sum is 0 exactly off the class
    e = field.e
    for w in range(2, 62, 2):
        total = [0, 0]
        for c, d in unit_orbit(field, 0, 1):
            x, y = ring_power(e, (d + e * c, -c), w)
            total[0] += x
            total[1] += y
        assert (total == [0, 0]) == field.point.vanishes(w), w


@pytest.mark.parametrize("field", [Field.GAUSSIAN, Field.EISENSTEIN])
def test_field_record_ties_to_its_point(field):
    assert Field(field.value) is field
    assert field_of(field.point) is field
    with workprec(128):
        tau = field.point.tau(128)
        assert 2 * tau.real == field.e
        assert abs(abs(tau) - 1) < mpf(2) ** -128


def test_field_of_refuses_a_generic_point():
    with pytest.raises(ValueError, match="ideal sums need an elliptic point"):
        field_of(generic_point(mpc(0.3, 1.1)))


def test_canonical_pair_is_stable():
    for field in Field:
        for b in enumerate_primitive(field, 50):
            for c, d in unit_orbit(field, b.c, b.d):
                assert canonical_pair(field, c, d) == (b.c, b.d)


def test_complete_unimodular_examples():
    assert complete_unimodular(2, 1) == (1, 0)
    assert complete_unimodular(1, 0) == (0, -1)
    assert complete_unimodular(0, 1) == (1, 0)
    with pytest.raises(ValueError):
        complete_unimodular(2, 4)


def test_complete_unimodular_properties():
    rng = random.Random(11)
    for _ in range(300):
        c = rng.randint(-40, 40)
        d = rng.randint(-40, 40)
        if gcd(c, d) != 1:
            continue
        a, b = complete_unimodular(c, d)
        assert a * d - b * c == 1
        if d != 0:
            assert 0 <= b < abs(d)


def test_c_kernel_unit_ideal():
    unit = enumerate_primitive(Field.GAUSSIAN, 1)[0]
    for m in (0, 1, 5):
        assert c_kernel(Field.GAUSSIAN, 12, unit, m, 128) == 1


def test_c_kernel_zero_weight_classes():
    b_g = enumerate_primitive(Field.GAUSSIAN, 5)[1]
    assert c_kernel(Field.GAUSSIAN, 14, b_g, 3, 128) == 0
    b_e = enumerate_primitive(Field.EISENSTEIN, 7)[1]
    assert c_kernel(Field.EISENSTEIN, 14, b_e, 3, 128) == 0
    with pytest.raises(ValueError):
        c_kernel(Field.GAUSSIAN, 13, b_g, 0, 128)


def test_c_kernel_norm3_example(prec):
    norm3 = [b for b in enumerate_primitive(Field.EISENSTEIN, 3) if b.norm == 3][0]
    v = c_kernel(Field.EISENSTEIN, 12, norm3, 0, prec)
    assert rel_err(v, 1) < mpf(2) ** (-prec + 16)


def test_c_kernel_bounded(prec):
    rng = random.Random(5)
    for field in Field:
        step = 4 if field is Field.GAUSSIAN else 6
        ideals = enumerate_primitive(field, 80)
        for _ in range(50):
            b = ideals[rng.randrange(len(ideals))]
            v = c_kernel(field, step * rng.randint(1, 9), b, rng.randint(0, 9), 128)
            assert abs(v) <= 1 + mpf(2) ** -100


def _ideal_from_pair(field, c, d):
    a, b = complete_unimodular(c, d)
    return PrimitiveIdeal(field, c, d, norm_form(field, c, d), a, b)


def test_c_kernel_unit_orbit_invariance(prec):
    rng = random.Random(23)
    tol = mpf(2) ** (-prec + 32)
    for field in Field:
        step = 4 if field is Field.GAUSSIAN else 6
        ideals = enumerate_primitive(field, 120)
        for _ in range(60):
            base = ideals[rng.randrange(len(ideals))]
            weight = step * rng.randint(1, 8)
            m = rng.randint(0, 8)
            ref = c_kernel(field, weight, base, m, prec)
            for c, d in unit_orbit(field, base.c, base.d):
                v = c_kernel(field, weight, _ideal_from_pair(field, c, d), m, prec)
                assert abs(v - ref) < tol


def test_c_kernel_completion_shift_invariance(prec):
    # (a, b) -> (a + tc, b + td) leaves the kernel unchanged
    tol = mpf(2) ** (-prec + 32)
    for field in Field:
        step = 4 if field is Field.GAUSSIAN else 6
        for base in enumerate_primitive(field, 30):
            ref = c_kernel(field, step * 3, base, 4, prec)
            for t in (-2, 1, 3):
                shifted = PrimitiveIdeal(
                    field, base.c, base.d, base.norm, base.a + t * base.c, base.b + t * base.d
                )
                assert abs(c_kernel(field, step * 3, shifted, 4, prec) - ref) < tol


@pytest.mark.parametrize("precision", [64, 128, 256])
def test_c_kernel_matches_angle_reference(precision):
    # c_kernel never forms an angle; the reference evaluates the cosine of
    # the docstring with atan2 at 64 extra bits
    tol = mpf(2) ** -(precision - 8)
    for field in Field:
        step = 4 if field is Field.GAUSSIAN else 6
        for ideal in enumerate_primitive(field, 300):
            row = reference_angle_row(ideal, precision + 64)
            for weight in range(step, 43, step):
                for m in (0, 1, 5, 10):
                    ref = reference_cosine(row, weight, m, precision + 64)
                    # called at the ambient precision: the kernel must carry
                    # its own precision + GUARD_BITS bits
                    got = c_kernel(field, weight, ideal, m, precision)
                    with workprec(precision + 64):
                        assert abs(got - ref) <= tol


def _c_kernel_by_powers(field, weight, ideal, m, precision):
    """The cosine kernel with g^weight from ``ring_power`` times the phasor
    and 2 Re from ``twice_real``, floored and rounded as ``c_kernel`` does."""
    e = field.e
    width = precision + GUARD_BITS
    power = ring_power(e, (ideal.d, ideal.c), weight)
    phase = fixed_phasor(field, m * phase_numerator(field, ideal), ideal.norm, width)
    scaled = twice_real(e, ring_mul(e, power, phase)) // (2 * ideal.norm ** (weight // 2))
    return mp.make_mpf(from_man_exp(scaled, -width, width, round_nearest))


def test_c_kernel_matches_ring_powers_bit_for_bit():
    # c_kernel is the one-ideal case of the ideal-sum pass, whose Lucas fold
    # must give the very bits of the exact power g^weight, on every
    # generator of an ideal's unit orbit and on shifted completions
    rng = random.Random(31)
    for field in Field:
        step = 4 if field is Field.GAUSSIAN else 6
        ideals = enumerate_primitive(field, 400)
        for _ in range(600):
            base = ideals[rng.randrange(len(ideals))]
            c, d = rng.choice(unit_orbit(field, base.c, base.d))
            ideal = _ideal_from_pair(field, c, d)
            t = rng.randint(-4, 4)
            ideal = ideal._replace(a=ideal.a + t * c, b=ideal.b + t * d)
            weight, m, precision = step * rng.randint(1, 10), rng.randint(0, 12), rng.choice((64, 128, 256))
            want = _c_kernel_by_powers(field, weight, ideal, m, precision)
            assert c_kernel(field, weight, ideal, m, precision) == want, (ideal, weight, m, precision)


def _random_generators(rng, e, count, norm_bound):
    """``count`` rows (N, x, y, w) of random generators x + y mu of norm in
    [1, norm_bound], of every sign, with random multiplicity 1 or 2."""
    span = isqrt(4 * norm_bound // 3)
    rows = []
    while len(rows) < count:
        x, y = rng.randint(-span, span), rng.randint(-span, span)
        norm = x * x + e * x * y + y * y
        if 1 <= norm <= norm_bound:
            rows.append((norm, x, y, rng.randint(1, 2)))
    return rows


def _sum_rows_by_powers(e, rows, block, width):
    """One block's total over rows (N, x, y, w, Z) with g^k from
    ``ring_power`` and 2 Re from ``twice_real``, each term floored as
    ``sum_rows`` documents."""
    m, k, j = block
    total = 0
    for norm, x, y, w, z in rows:
        power = ring_power(e, (x, y), k)
        if m:
            power = ring_mul(e, power, ring_power(e, z, m, width))
        numerator = twice_real(e, power) if m else twice_real(e, power) << width
        total += w * (numerator // (2 * norm ** (k - j)))
    return total


@pytest.mark.parametrize("field", [Field.GAUSSIAN, Field.EISENSTEIN])
def test_sum_rows_ladder_matches_ring_powers_bit_for_bit(field):
    # every even k from 2 to 64 alone reaches both ladder bits (k = 2 is one
    # doubling, k = 6 takes a unit step), and all of them in one pass take
    # the g^2 steps between weights; at m = 0 the term is V_k and at m = 1
    # it folds U_k into b, on random generators up to norm 10^6
    e = field.e
    rng = random.Random(41 + e)
    width = sum_width(10**6, 64)
    half = 1 << (width + 7)

    def with_phasors(rows):
        return [(*row, (rng.getrandbits(width + 8) - half, rng.getrandbits(width + 8) - half)) for row in rows]

    rows = with_phasors(_random_generators(rng, e, 12, 10**6))
    ks = range(2, 65, 2)
    alone = [((0, k, rng.randint(0, k)), (1, k, rng.randint(0, k))) for k in ks]
    together = tuple(block for family in alone for block in family)
    for family in (*alone, together):
        totals = sum_rows(e, rows, family, width)
        assert set(totals) == set(family)
        for block in family:
            assert totals[block] == _sum_rows_by_powers(e, rows, block, width), block
    # rows with y = 0, where the fold takes b = e V_k/2, and with negative x
    rows += with_phasors([(x * x, x, 0, rng.randint(1, 2)) for x in (1, -1, 2, -7, 31)])
    rows += with_phasors([(norm_form(field, y, x), x, y, 2) for x, y in ((-3, 2), (-500, 301), (-1, -1), (4, -9))])
    totals = sum_rows(e, rows, together, width)
    for block in together:
        assert totals[block] == _sum_rows_by_powers(e, rows, block, width), block
    # m = 0 alone reads V_k and no phasor: one block halving V over the
    # trailing zero bits of k, several j, and every k stepped in one pass
    one_block = [((0, k, rng.randint(0, k)),) for k in ks]
    several_j = [tuple((0, k, j) for j in rng.sample(range(k + 1), min(3, k + 1))) for k in ks]
    every_k = tuple(block for family in several_j for block in family)
    for family in (*one_block, *several_j, every_k):
        totals = sum_rows(e, [row[:4] for row in rows], family, width)
        assert set(totals) == set(family)
        for block in family:
            assert totals[block] == _sum_rows_by_powers(e, rows, block, width), block


@pytest.mark.parametrize(
    "block",
    [(0, 3, 0), (0, 0, 0), (0, -2, 0), (0, 12, -1), (0, 12, 13), (-1, 12, 0)],
    ids=["odd-k", "k-0", "k-negative", "j-negative", "j-above-k", "m-negative"],
)
def test_sum_rows_refuses_blocks_outside_its_contract(block):
    # odd k has no Lucas ladder and k < 2, j < 0 or m < 0 none that the pass
    # runs; the family is checked once, before any row is read
    def unread():
        raise AssertionError("a row was read")
        yield

    with pytest.raises(ValueError, match=re.escape(f"block (m, k, j) = {block} needs")):
        sum_rows(0, unread(), ((0, 12, 0), block), 64)


def test_negative_exponents_are_refused():
    # binary powering would never end on a negative exponent, and the Lucas
    # ladder of the ideal-sum pass has no weight <= 0
    with pytest.raises(ValueError, match="exponent >= 0, got -1"):
        ring_power(0, (1, 1), -1)
    ideal = enumerate_primitive(Field.GAUSSIAN, 5)[2]
    for weight in (-4, 0):
        with pytest.raises(ValueError, match=f"weight must be positive, got {weight}"):
            c_kernel(Field.GAUSSIAN, weight, ideal, 1, 64)


@pytest.mark.parametrize("bound", [1, 2, 3, 5000])
@pytest.mark.parametrize("field", [Field.GAUSSIAN, Field.EISENSTEIN])
def test_ideal_sum_data_matches_per_ideal_definition(field, bound):
    # the rows unpack each ideal and inline its phase numerator
    want = tuple((b.norm, b.d, b.c, phase_numerator(field, b)) for b in enumerate_primitive(field, bound))
    assert ideal_sum_data.__wrapped__(field, bound) == want


@pytest.mark.parametrize("bound", [1, 2, 3, 5000])
@pytest.mark.parametrize("field", [Field.GAUSSIAN, Field.EISENSTEIN])
def test_pair_weights_count_every_row_once(field, bound):
    # a representative counts for itself and its mirror at m = 0
    e = field.e
    rows = ideal_sum_data(field, bound)
    assert sum(pair_weight(e, x, y) for _, x, y, _ in rows) == len(rows)


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5000])
@pytest.mark.parametrize("field", [Field.GAUSSIAN, Field.EISENSTEIN])
def test_pair_rows_are_the_rows_of_positive_weight(field, bound):
    # an m = 0 pass reads only these: every representative once, with the
    # two self-conjugate ideals, so half the table and one more; the
    # reference orbit scan pins them apart from the sector scan they share
    # with enumerate_primitive
    e = field.e
    rows = sorted(scan_rows(field, bound))
    assert [norm for norm, _, _, _ in rows] == sorted(norm for norm, _, _, _ in rows)
    assert all(w == pair_weight(e, x, y) for _, x, y, w in rows)
    got = sorted((norm, x, y) for norm, x, y, _ in rows)
    assert got == sorted((norm, d, c) for c, d, norm, _, _ in orbit_scan(field, bound) if pair_weight(e, d, c) > 0)
    assert got == sorted((norm, x, y) for norm, x, y, _ in ideal_sum_data(field, bound) if pair_weight(e, x, y) > 0)
    assert len(rows) == len(enumerate_primitive(field, bound)) // 2 + 1


@pytest.mark.parametrize("field", [Field.GAUSSIAN, Field.EISENSTEIN])
def test_each_representative_has_one_mirror(field):
    # the mirror -conj(g) of a representative's generator g is a row of the
    # same norm with the same 2 Re g^k for every even k; only the norms 1, 2
    # (i) and 1, 3 (rho) are self-conjugate
    e = field.e
    rows = ideal_sum_data(field, 5000)
    mirrors = [(norm, x, y) for norm, x, y, _ in rows if pair_weight(e, x, y) == 0]
    assert len(set(mirrors)) == len(mirrors)
    mirrors = set(mirrors)
    selfconjugate = {(1, 1, 0), (2, -1, 1)} if field is Field.GAUSSIAN else {(1, 1, 0), (3, -2, 1)}
    assert {(norm, x, y) for norm, x, y, _ in rows if pair_weight(e, x, y) == 1} == selfconjugate
    for norm, x, y, _ in rows:
        if pair_weight(e, x, y) != 2:
            continue
        g, mirror = (x, y), (-x - e * y, y)
        mirrors.remove((norm, *mirror))  # exactly one mirror per representative
        g2, mirror2 = ring_mul(e, g, g), ring_mul(e, mirror, mirror)
        power, mirror_power = g2, mirror2
        for k in range(2, 61, 2):
            assert twice_real(e, power) == twice_real(e, mirror_power), (g, k)
            power, mirror_power = ring_mul(e, power, g2), ring_mul(e, mirror_power, mirror2)
    assert not mirrors  # and every mirror is a representative's


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_table_builds_leave_the_collector_as_found(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for field in Field:
            enumerate_primitive.__wrapped__(field, 50)
            assert gc.isenabled() is enabled
            ideal_sum_data.__wrapped__(field, 50)
            assert gc.isenabled() is enabled
            sorted(scan_rows(field, 50))
            assert gc.isenabled() is enabled
            for build in (enumerate_primitive.__wrapped__, scan_rows):
                with pytest.raises(ValueError, match="norm_bound must be >= 1"):
                    build(field, 0)
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_table_builds_run_without_collections():
    # building 7164 Gaussian ideals and their rows would take dozens of
    # generation-0 collections; paused, at most the one that the allocation
    # count left over triggers after each build remains
    assert gc.isenabled()
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        enumerate_primitive.__wrapped__(Field.GAUSSIAN, 15000)
        ideal_sum_data.__wrapped__(Field.GAUSSIAN, 15000)
    finally:
        gc.callbacks.remove(record)
    assert len(starts) <= 2, starts


@pytest.mark.parametrize("point", [POINT_I, POINT_RHO], ids=str)
def test_phasor_row_matches_per_ideal_construction(prec, point):
    # the rows of positive pair_weight, each with its weight, and for each
    # the very ints of one exp per ideal from one exp per distinct norm
    field = field_of(point)
    e = field.e
    width = sum_width(600, prec)
    rows = ideal_sum_data(field, 600)
    kept = [(norm, x, y, pair_weight(e, x, y), p) for norm, x, y, p in rows if pair_weight(e, x, y)]
    with workprec(width + 16):
        two_pi_v0 = 2 * mp.pi * point.v0(width)
        want = tuple(
            (norm, x, y, w, fixed_phasor(field, p, norm, width, mpmath.exp(two_pi_v0 / norm)))
            for norm, x, y, w, p in kept
        )
    assert phasor_row.__wrapped__(point, 600, prec) == want


@pytest.mark.parametrize("bound", [300, 5000])
@pytest.mark.parametrize("point", [POINT_I, POINT_RHO], ids=str)
def test_phasor_row_evaluates_no_mirror(monkeypatch, point, bound):
    # one fixed_phasor per representative or self-conjugate row: half the
    # ideals and one more (1189 of 2376 at i, B = 5000); once the kernel's
    # tables of this width are built, a pass makes no cospi/sinpi call
    field = field_of(point)
    bits = sum_width(bound, 64) + 24
    phasors_made, cis_made = [], []
    phasor, cis = lattice.fixed_phasor, lattice.mpf_cos_sin_pi
    monkeypatch.setattr(lattice, "fixed_phasor", lambda *args: phasors_made.append(args) or phasor(*args))
    monkeypatch.setattr(lattice, "mpf_cos_sin_pi", lambda *args: cis_made.append(args) or cis(*args))
    lattice._cis_tables.__wrapped__(bits)
    assert len(cis_made) == 2  # the table build: one seed per table
    lattice._cis_tables(bits)  # built and cached, if no earlier test did
    cis_made.clear()
    rows = phasor_row.__wrapped__(point, bound, 64)
    assert len(phasors_made) == len(rows) == len(ideal_sum_data(field, bound)) // 2 + 1
    assert cis_made == []


@pytest.mark.parametrize("width", [96, 288, 1056, 4128])
def test_cis_tables_within_their_stated_bound(width):
    # every entry of the tables that fixed_phasor reads at this width, built
    # from one seed per table, is within 2^-bits (1 + 2^-6) of cospi/sinpi
    # at twice the bits, the docstring's bound
    bits = width + 24
    coarse, fine, _, _ = lattice._cis_tables(bits)
    assert (len(coarse), len(fine)) == (128, 64)
    with workprec(2 * bits):
        for table, den in ((coarse, 64), (fine, 4096)):
            for h, entry in enumerate(table):
                exact = mpmath.cospi(mpf(h) / den), mpmath.sinpi(mpf(h) / den)
                for component, value in zip(entry, exact):
                    assert abs(component - value * 2**bits) < 1 + mpf(2) ** -6, (h, den)


def _mpmath_phasor(field, num, den, width, growth=None):
    """The construction that the table kernel replaced: one ``cospi``/``sinpi``
    of the turn reduced modulo 2, at width + 16 bits, scaled by growth, taken
    to mu-coordinates and floored to ``width`` bits."""
    prec = width + 16
    with workprec(prec):
        turn = from_rational(num % (2 * den), den, prec, round_nearest)
        cos, sin = (mp.make_mpf(v) for v in mpf_cos_sin_pi(turn, prec))
        if growth is not None:
            cos, sin = cos * growth, sin * growth
        if field.e:
            sin = 2 * sin / mpmath.sqrt(4 - field.e**2)
            cos -= field.e * sin / 2
        return to_fixed(cos._mpf_, width), to_fixed(sin._mpf_, width)


@pytest.mark.parametrize("width", [96, 288, 1056, 4128])
@pytest.mark.parametrize("field", list(Field), ids=str)
def test_fixed_phasor_within_its_stated_bound(field, width):
    # against e^(i pi num/den) at twice the bits, each component is within
    # 2^-width (1 + (1 + growth)(width + 24) 2^-24), the docstring's bound,
    # and within one unit at width of the mpmath construction it replaced
    rng = random.Random(width + field.e)
    with workprec(width + 16):
        two_pi_v0 = 2 * mp.pi * field.point.v0(width)
    cases = [(0, 1), (1, 1), (-1, 1), (7, 1), (2 * 10**4, 1), (-2 * 10**4, 1)]  # den = 1
    for den in (2, 3, 5000, *(rng.randint(1, 5000) for _ in range(12 if width < 1000 else 4))):
        top = 2 * 10**4 * den  # |num| up to 10^4 * 2N
        cases += [(den * rng.randint(-(10**4), 10**4), den), (rng.randint(-top, top), den), (-top, den), (top - 1, den)]
    for num, den in cases:
        with workprec(width + 16):
            scale = mpmath.exp(two_pi_v0 / den)
        for growth in (None, scale):
            got = fixed_phasor(field, num, den, width, growth)
            assert max(abs(a - b) for a, b in zip(got, _mpmath_phasor(field, num, den, width, growth))) <= 1
            with workprec(2 * width):
                g = 1 if growth is None else growth
                u, v = g * mpmath.cospi(mpf(num) / den), g * mpmath.sinpi(mpf(num) / den)
                y = 2 * v / mpmath.sqrt(3) if field.e else v
                exact = (u - field.e * y / 2, y)
                bound = 1 + (1 + g) * (width + 24) * mpf(2) ** -24
                for component, value in zip(got, exact):
                    assert abs(component - value * 2**width) < bound, (num, den, growth is not None)


def test_b_kernel_identities(prec):
    with workprec(prec):
        z = mpc(mpf(1) / 3, mpf(6) / 5)
        tol = mpf(2) ** (-prec + 32)
        # (c, d) = (0, 1): exponentials combine to exp(-2 pi i n z)
        got = b_kernel(8, 0, 1, z, 3, prec)
        assert abs(got - mpmath.exp(-2j * mp.pi * 3 * z)) < tol * abs(got)
        # n = 0 kills both exponentials
        got0 = b_kernel(8, 3, 2, z, 0, prec)
        assert abs(got0 - (3 * z + 2) ** -8) < tol


def test_b_kernel_shift_invariance(prec):
    with workprec(prec):
        z = mpc(mpf(-2) / 7, mpf(9) / 8)
        tol = mpf(2) ** (-prec + 32)
        ref = b_kernel_with_completion(10, 3, 2, 2, 1, z, 5, prec)
        for t in range(-3, 4):
            v = b_kernel_with_completion(10, 3, 2, 2 + 3 * t, 1 + 2 * t, z, 5, prec)
            assert abs(v - ref) < tol * abs(ref)
        with pytest.raises(ValueError):
            b_kernel_with_completion(10, 3, 2, 1, 1, z, 5, prec)


def test_b_kernel_unit_invariance_at_i(prec):
    # 4 | weight: all four Gaussian unit pairs give the same value at z = i
    with workprec(prec):
        z = mpc(0, 1)
        tol = mpf(2) ** (-prec + 32)
        for c, d in ((1, 2), (3, 1), (1, 4)):
            ref = b_kernel(12, c, d, z, 2, prec)
            for cc, dd in unit_orbit(Field.GAUSSIAN, c, d):
                assert abs(b_kernel(12, cc, dd, z, 2, prec) - ref) < tol * abs(ref)
