import random
import re
import tracemalloc
from functools import lru_cache
from math import comb, gcd

import mpmath
import pytest
from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import from_man_exp, round_nearest

from meroforms import (
    Field,
    POINT_I,
    POINT_RHO,
    ClosedFormMismatch,
    TruncatedSum,
    assemble_coefficient,
    elliptic_block_coeff,
    f_series_coeff,
    general_coeff_sum,
    identity_check_m0,
    raising_expansion,
)
import meroforms.engine as engine
import meroforms.lattice as lattice
from meroforms.constants import GUARD_BITS, generic_point
from meroforms.engine import NonconvergentParameters, check_norm_bound, linear_combination, raising_expansion_stepped
from meroforms.lattice import (
    b_kernel,
    c_kernel,
    enumerate_primitive,
    field_of,
    fixed_phasor,
    ideal_sum_data,
    phasor_row,
    ring_mul,
    ring_power,
    scan_rows,
    sum_rows,
    sum_width,
    twice_real,
)
from meroforms.qseries import oracle_coeffs
from meroforms.solver import BasisRepresentation, BasisTerm
from meroforms.quasi import quasi_expansion, simple_pole_quasi_coeff

from conftest import reference_angle_row, reference_cosine, rel_err


def test_raising_expansion_base():
    exp0 = raising_expansion(9, 0)
    assert len(exp0.terms) == 1
    t = exp0.terms[0]
    assert (t.j, t.coefficient, t.derivative_order) == (0, 1, 0)


def test_raising_expansion_single_raise():
    exp1 = raising_expansion(13, 1)
    by_j = {t.j: t for t in exp1.terms}
    assert by_j[0].coefficient == 1 and by_j[0].derivative_order == 1
    assert by_j[1].coefficient == 26 and by_j[1].derivative_order == 0


def test_binomial_identity():
    def cb(n, j):
        return comb(n, j) if 0 <= j <= n else 0

    for k in range(2, 21):
        for n in range(0, 9):
            for j in range(0, n + 2):
                lhs = (2 * k + n - j) * cb(n, j) + (2 * k + 2 * n + 1 - j) * cb(n, j - 1)
                assert lhs == (2 * k + n) * cb(n + 1, j)


def test_raising_recurrence_exact():
    for k in range(2, 21):
        expansion = raising_expansion(k, 0)
        for n in range(0, 8):
            stepped = raising_expansion_stepped(expansion)
            expansion = raising_expansion(k, n + 1)
            assert stepped == expansion


def test_f_series_trivial_zero(prec):
    out = f_series_coeff(12, 0, 2, POINT_I, 0, 100, prec)
    assert out.value == 0 and out.tail_bound == 0


def test_f_series_parameter_validation(prec):
    with pytest.raises(NonconvergentParameters):
        f_series_coeff(12, 5, 0, POINT_I, 0, 100, prec)
    with pytest.raises(ValueError, match="norm_bound"):
        f_series_coeff(12, 0, 0, POINT_I, 10, 50, prec)
    with pytest.raises(ValueError):
        f_series_coeff(11, 0, 0, POINT_I, 0, 100, prec)
    with pytest.raises(ValueError):
        f_series_coeff(12, 0, 0, generic_point(mpc(0, 2)), 0, 100, prec)


@pytest.mark.parametrize(
    "point,field,m",
    [
        (POINT_I, Field.GAUSSIAN, 0),
        (POINT_I, Field.GAUSSIAN, 1),
        (POINT_RHO, Field.EISENSTEIN, 0),
        (POINT_RHO, Field.EISENSTEIN, 1),
    ],
    ids=["i-0", "i-1", "rho-0", "rho-1"],
)
def test_f_series_leading_term(prec, point, field, m):
    # the production ideal sum is the sum of the tested cosine kernel; at
    # m = 0 the unit ideal contributes exactly 1 to the weight-12 sum
    small = f_series_coeff(12, 0, 0, point, m, 16, prec)
    with workprec(prec + 32):
        two_pi_m_v0 = 2 * mp.pi * m * point.v0(prec + 32)
        total = mpf(0)
        for b in enumerate_primitive(field, 16):
            total += c_kernel(field, 12, b, m, prec) / mpf(b.norm) ** 6 * mpmath.exp(two_pi_m_v0 / b.norm)
    assert rel_err(small.value, total) < mpf(2) ** (-prec + 32)


@pytest.mark.parametrize("precision", [64, 128, 256])
@pytest.mark.parametrize("point,field", [(POINT_I, Field.GAUSSIAN), (POINT_RHO, Field.EISENSTEIN)], ids=["i", "rho"])
def test_f_series_matches_angle_reference(point, field, precision):
    # v0^-j (4 pi m)^r sum*_b cos(pi m P/N + k theta) N^(j-k/2) e^(2 pi m v0/N)
    # term by term with atan2, cos and exp at 64 extra bits, on-class k <= 42
    bits = precision + 64
    tol = mpf(2) ** -(precision - 8)
    step = 4 if field is Field.GAUSSIAN else 6
    for bound in (16, 300):
        rows = [reference_angle_row(ideal, bits) for ideal in enumerate_primitive(field, bound)]
        v0 = rows[0][3]
        for m in (0, 1, 5, 10):
            if 4 * mp.pi * m * v0 > bound:
                continue  # below the norm bound f_series_coeff accepts
            for k in range(step, 43, step):
                cosines = [reference_cosine(row, k, m, bits) for row in rows]
                for j in sorted({0, 1, k // 2 - 2} & set(range(k // 2 - 1))):
                    with workprec(bits):
                        total = mpf(0)
                        for (norm, _, _, _), cosine in zip(rows, cosines):
                            total += cosine * mpf(norm) ** (j - mpf(k) / 2) * mpmath.exp(2 * mp.pi * m * v0 / norm)
                    for r in (0, 1) if m else (0,):
                        with workprec(bits):
                            ref = total * (4 * mp.pi * m) ** r / v0**j
                        got = f_series_coeff(k, j, r, point, m, bound, precision).value
                        assert rel_err(got, ref) <= tol, (k, j, r, m, bound)


@lru_cache(maxsize=None)
def reference_phasors(point, norm_bound, precision):
    """Z_b of every ideal_sum_data row, mirrors included, from one
    fixed_phasor and one exp per ideal."""
    field = field_of(point)
    width = sum_width(norm_bound, precision)
    with workprec(width + 16):
        two_pi_v0 = 2 * mp.pi * point.v0(width)
        return tuple(
            fixed_phasor(field, phase_num, norm, width, mpmath.exp(two_pi_v0 / norm))
            for norm, _, _, phase_num in ideal_sum_data(field, norm_bound)
        )


def reference_ideal_sum(point, k, j, m, norm_bound, precision, rows=None):
    """The reference definition of one ideal sum: a pass over every ideal,
    mirrors included, for this (m, k, j) alone, with Z^m by binary powering,
    rounded once to precision + GUARD_BITS.  Returns the sum and the sum of
    |term|.  Every row counts once; ``rows`` (N, x, y, w, Z) replace the
    ideals' rows and phasors."""
    field = field_of(point)
    e = field.e
    if rows is None:
        rows = ideal_sum_data(field, norm_bound)
        if m:
            rows = [(*row, z) for row, z in zip(rows, reference_phasors(point, norm_bound, precision))]
    width = sum_width(norm_bound, precision)
    terms = []
    if m == 0:
        for norm, x, y, *_ in rows:
            terms.append((twice_real(e, ring_power(e, (x, y), k)) << width) // (2 * norm ** (k - j)))
    else:
        for norm, x, y, _, z in rows:
            w = ring_power(e, z, m, width)
            terms.append(twice_real(e, ring_mul(e, ring_power(e, (x, y), k), w)) // (2 * norm ** (k - j)))
    bits = precision + GUARD_BITS
    total, magnitude = (from_man_exp(t, -width, bits, round_nearest) for t in (sum(terms), sum(map(abs, terms))))
    return mp.make_mpf(total), mp.make_mpf(magnitude)


def random_blocks(rng, ks):
    """A random set of (k, j) with 1-3 weights k and 1-4 j each, k/2 >= j + 2."""
    blocks = set()
    for k in rng.sample(ks, rng.randint(1, 3)):
        js = range(k // 2 - 1)
        blocks.update((k, j) for j in rng.sample(js, rng.randint(1, min(len(js), 4))))
    return blocks


@pytest.mark.parametrize("point", [POINT_I, POINT_RHO], ids=str)
def test_ideal_sums_match_reference_bit_for_bit(prec, point):
    # one pass over the ideals fills a random family of on-class (m, k, j)
    # of one m with the very mpf that each block's own pass gives
    rng = random.Random(12 if point is POINT_I else 13)
    step = 4 if point is POINT_I else 6
    ks = list(range(step, 43, step))
    for bound in (16, 300, 2000):
        for m in (0, 1, 5, 10):
            try:
                check_norm_bound(bound, m, point.v0(prec))
            except ValueError:
                continue
            for _ in range(2):
                family = tuple(sorted((m, k, j) for k, j in random_blocks(rng, ks)))
                got = engine.ideal_sums.__wrapped__(point, bound, prec, family)
                assert set(got) == set(family)
                for _, k, j in family:
                    assert got[m, k, j] == reference_ideal_sum(point, k, j, m, bound, prec)[0], (m, k, j, bound)


@pytest.mark.parametrize(
    "point,bound,m,ks",
    [
        (POINT_I, 65, 5, (4, 12, 80, 156, 160)),
        (POINT_I, 85, 3, (8, 28, 100, 160)),
        (POINT_RHO, 91, 7, (6, 18, 120, 234, 240)),
    ],
    ids=["i-65", "i-85", "rho-91"],
)
def test_ideal_sums_mixed_m_large_k_bit_for_bit(prec, point, bound, m, ks):
    # m = 0 and m >= 1 blocks in one pass, k up to 160 at i and 240 at rho
    # with several j per k; each bound is a norm of several ideals, so the
    # last rows share one table of N powers
    norms = [norm for norm, _, _, _ in ideal_sum_data(field_of(point), bound)]
    assert norms.count(bound) >= 4
    rng = random.Random(bound)
    blocks = {(k, j) for k in ks for j in rng.sample(range(k // 2 - 1), min(k // 2 - 1, 3))}
    family = tuple(sorted((mm, k, j) for mm in (0, m) for k, j in blocks))
    got = engine.ideal_sums.__wrapped__(point, bound, prec, family)
    assert set(got) == set(family)
    for mm, k, j in family:
        assert got[mm, k, j] == reference_ideal_sum(point, k, j, mm, bound, prec)[0], (mm, k, j)


@pytest.mark.parametrize("point", [POINT_I, POINT_RHO], ids=str)
def test_ideal_sums_pair_conjugates_bit_for_bit(prec, point):
    # at every m a representative's term counts twice and its mirror's not
    # at all: m = 0-only and mixed families give the very bits of the
    # reference, which sums every row
    rng = random.Random(22 if point is POINT_I else 23)
    step = 4 if point is POINT_I else 6
    ks = list(range(step, 61, step))
    for bound in (1, 2, 3, 300):
        for ms in ((0,), (0, 1), (0, 2, 5)):
            if ms[-1] and bound < 16:  # below check_norm_bound's floor
                continue
            for _ in range(3):
                family = tuple(sorted((m, k, j) for m in ms for k, j in random_blocks(rng, ks)))
                got = engine.ideal_sums.__wrapped__(point, bound, prec, family)
                assert set(got) == set(family)
                for m, k, j in family:
                    assert got[m, k, j] == reference_ideal_sum(point, k, j, m, bound, prec)[0], (m, k, j, bound)


def test_ideal_sums_fold_without_conjugate_partners(prec):
    # over all rows, an error in the m >= 1 fold of g^k can cancel between
    # a representative and its mirror; over the representatives alone, each
    # counted once, it cannot, so these bits pin the fold at rho, where e = 1
    point, bound = POINT_RHO, 300
    e = field_of(point).e
    rows = tuple((norm, x, y, 1, z) for norm, x, y, w, z in phasor_row(point, bound, prec) if w == 2)
    width = sum_width(bound, prec)
    rng = random.Random(29)
    ks = list(range(6, 61, 6))
    for ms in ((1,), (3,), (2, 5)):
        for _ in range(2):
            family = tuple(sorted((m, k, j) for m in ms for k, j in random_blocks(rng, ks)))
            totals = sum_rows(e, rows, family, width)
            for m, k, j in family:
                got = mp.make_mpf(from_man_exp(totals[m, k, j], -width, prec + GUARD_BITS, round_nearest))
                want = reference_ideal_sum(point, k, j, m, bound, prec, rows)[0]
                assert got == want, (m, k, j)


@pytest.mark.parametrize("bound", [5000, 20000])
@pytest.mark.parametrize("point", [POINT_I, POINT_RHO], ids=str)
def test_m0_ideal_sums_match_every_row_bit_for_bit(prec, point, bound):
    # an m = 0-only pass reads the representative and self-conjugate rows
    # alone; sum_rows over every ideal_sum_data row, mirrors included, each
    # with multiplicity 1, gives the very integers, so the very mpf
    field = field_of(point)
    e, width, bits = field.e, sum_width(bound, prec), prec + GUARD_BITS
    rng = random.Random(bound + (0 if point is POINT_I else 1))
    step = 4 if point is POINT_I else 6
    ks = list(range(step, 61, step))
    for _ in range(3):
        family = tuple(sorted((0, k, j) for k, j in random_blocks(rng, ks)))
        got = engine.ideal_sums.__wrapped__(point, bound, prec, family)
        every_row = [(norm, x, y, 1) for norm, x, y, _ in ideal_sum_data(field, bound)]
        totals = sum_rows(e, every_row, family, width)
        assert set(got) == set(totals) == set(family)
        for block, total in totals.items():
            assert got[block] == mp.make_mpf(from_man_exp(total, -width, bits, round_nearest)), block


def test_m0_ideal_sums_build_no_ideal_table(prec):
    # no PrimitiveIdeal, completion, phase numerator or phasor at m = 0:
    # a pass at a norm bound no other test uses misses none of those caches
    caches = (enumerate_primitive, ideal_sum_data, phasor_row)
    misses = [cache.cache_info().misses for cache in caches]
    for point in (POINT_I, POINT_RHO):
        engine.ideal_sums.__wrapped__(point, 4321, prec, ((0, 12, 0), (0, 24, 3)))
    assert [cache.cache_info().misses for cache in caches] == misses


@pytest.mark.parametrize("point", [POINT_I, POINT_RHO], ids=str)
def test_m0_ideal_sums_stream_the_scan_bit_for_bit(prec, point):
    # an m = 0-only pass sums the sector scan in scan order as it runs: the
    # very mpf of sum_rows over the scan's rows, sorted
    field = field_of(point)
    e, bits = field.e, prec + GUARD_BITS
    rng = random.Random(61 if point is POINT_I else 62)
    step = 4 if point is POINT_I else 6
    ks = list(range(step, 61, step))
    for bound in (1, 2, 3, 4, 5000, 20000):
        width = sum_width(bound, prec)
        for _ in range(2):
            family = tuple(sorted((0, k, j) for k, j in random_blocks(rng, ks)))
            got = engine.ideal_sums.__wrapped__(point, bound, prec, family)
            totals = sum_rows(e, sorted(scan_rows(field, bound)), family, width)
            want = {block: mp.make_mpf(from_man_exp(t, -width, bits, round_nearest)) for block, t in totals.items()}
            assert got == want, (bound, family)


@pytest.mark.parametrize("point", [POINT_I, POINT_RHO], ids=str)
def test_sum_rows_totals_do_not_depend_on_row_order(prec, point):
    # every term is an exact integer, so a seeded shuffle of the rows, which
    # parts the rows of one norm, gives the very totals at m = 0 and m >= 1
    field = field_of(point)
    e, bound = field.e, 3000
    width = sum_width(bound, prec)
    rng = random.Random(71 if point is POINT_I else 72)
    step = 4 if point is POINT_I else 6
    ks = list(range(step, 61, step))
    rows = sorted(scan_rows(field, bound))
    shuffled = rng.sample(rows, len(rows))
    for _ in range(3):
        family = tuple(sorted((0, k, j) for k, j in random_blocks(rng, ks)))
        assert sum_rows(e, shuffled, family, width) == sum_rows(e, rows, family, width)
    rows = phasor_row(point, bound, prec)
    shuffled = rng.sample(rows, len(rows))
    family = tuple(sorted((m, k, j) for m in (0, 1, 3) for k, j in random_blocks(rng, ks)))
    assert sum_rows(e, shuffled, family, width) == sum_rows(e, rows, family, width)


def test_m0_ideal_sums_read_no_row_table(prec, monkeypatch):
    # the m = 0 route streams the scan: with every table build refused, a
    # pass still sums every block at both points
    for name in ("enumerate_primitive", "ideal_sum_data", "phasor_row"):

        def refuse(*args, name=name):
            raise AssertionError(f"{name} built a row table")

        monkeypatch.setattr(lattice, name, refuse)
    family = ((0, 12, 0), (0, 24, 3))
    for point in (POINT_I, POINT_RHO):
        assert set(engine.ideal_sums.__wrapped__(point, 3000, prec, family)) == set(family)


def test_m0_ideal_sums_hold_a_column_not_the_table(prec):
    # the streamed pass holds one column of the scan at a time: its traced
    # peak stays below a tenth of building the sorted table of its rows
    def peak(build):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        streamed = peak(lambda: engine.ideal_sums.__wrapped__(POINT_I, 50000, prec, ((0, 12, 4),)))
        table = peak(lambda: sorted(scan_rows(Field.GAUSSIAN, 50000)))
    finally:
        tracemalloc.stop()
    assert streamed < table / 10, (streamed, table)


def test_ideal_sums_refuse_j_above_k():
    # N^(k - j) with j > k is no integer: the sum went through a float
    with pytest.raises(ValueError, match=re.escape("block (m, k, j) = (0, 4, 5) needs")):
        engine.ideal_sums.__wrapped__(POINT_I, 100, 64, ((0, 4, 5),))


def test_ideal_sums_refuse_blocks_off_the_kernel_class(prec):
    # off the class the sum depends on the generator that stands for each
    # ideal, where f_series_coeff has an exact 0; refused before any phasor
    assert f_series_coeff(6, 0, 0, POINT_I, 0, 100, 64).value == 0
    misses = phasor_row.cache_info().misses
    families = ((POINT_I, ((0, 6, 0),)), (POINT_RHO, ((0, 12, 0), (0, 8, 0))), (POINT_I, ((1, 12, 0), (2, 6, 0))))
    for point, family in families:
        bad = next(block for block in family if block[1] % (4 if point is POINT_I else 6))
        with pytest.raises(ValueError, match=re.escape(f"block (m, k, j) = {bad} is off the kernel's class")):
            engine.ideal_sums.__wrapped__(point, 4567, prec, family)
    assert phasor_row.cache_info().misses == misses


def test_ideal_sums_refuse_an_empty_family(prec):
    with pytest.raises(ValueError, match="needs at least one block"):
        engine.ideal_sums.__wrapped__(POINT_I, 100, prec, ())


@pytest.mark.parametrize("point", [POINT_I, POINT_RHO], ids=str)
@pytest.mark.parametrize("ms", [range(11), range(1, 8), (0, 3, 4, 10)], ids=["0..10", "1..7", "sparse"])
def test_ideal_sums_over_m_ranges_within_rounding(prec, point, ms):
    # one pass fills every m, stepping Z^m from the previous m; each block
    # is within 2^-(P + GUARD_BITS) of its sum of |term| from its own pass
    rng = random.Random(len(ms) + (0 if point is POINT_I else 100))
    step = 4 if point is POINT_I else 6
    ks = list(range(step, 43, step))
    bound = 300
    for _ in range(2):
        blocks = random_blocks(rng, ks)
        family = tuple(sorted((m, k, j) for m in ms for k, j in blocks))
        got = engine.ideal_sums.__wrapped__(point, bound, prec, family)
        assert set(got) == set(family)
        for m, k, j in family:
            want, magnitude = reference_ideal_sum(point, k, j, m, bound, prec)
            with workprec(prec + 64):
                assert abs(got[m, k, j] - want) <= magnitude * mpf(2) ** -(prec + GUARD_BITS), (m, k, j)


def test_ideal_sums_refuse_a_norm_bound_below_the_largest_m(prec):
    # the fixed-point width has room for Z^m only while check_norm_bound
    # holds for the family's largest m
    with pytest.raises(ValueError, match="norm_bound 100 below required 126"):
        engine.ideal_sums.__wrapped__(POINT_I, 100, prec, ((0, 12, 0), (10, 12, 0)))


def _direct_tail_bound(k, j, B, four_pi_m_r, v0_pow_j):
    """The ideal-sum tail bound written out in one expression, every
    constant recomputed, in the operation order of ``f_series_coeff``."""
    s = mpf(k) / 2 - j - mpf(3) / 2
    return 2 * mpmath.exp(mpf(1) / 2) * four_pi_m_r / v0_pow_j * mpf(B) ** (-s) / s


@pytest.mark.parametrize("point", [POINT_I, POINT_RHO], ids=str)
def test_tail_bound_has_the_bits_of_the_direct_formula(point):
    # the cached constants change no bit of any tail bound, on a grid of
    # (k, j, r, m, B, P)
    for precision in (64, 256):
        for bound in (100, 600):
            with workprec(precision + GUARD_BITS):
                v0 = point.v0(precision)
            for k in (12, 24, 36):
                for j in (0, 1, 2, k // 2 - 2):
                    for m, r in ((0, 0), (1, 0), (1, 1), (7, 2)):
                        got = f_series_coeff(k, j, r, point, m, bound, precision).tail_bound
                        with workprec(precision + GUARD_BITS):
                            four_pi_m_r = (4 * mp.pi * m) ** r if r else mpf(1)
                            want = _direct_tail_bound(k, j, bound, four_pi_m_r, v0**j)
                        assert got._mpf_ == want._mpf_, (k, j, r, m, bound, precision)


def test_lattice_sum_shared_across_r(prec):
    # (4 pi m)^r only scales the lattice sum, and the blocks of one family
    # come from the same pass, so r = 1, r = 2 and j = 1 share one pass
    family = ((3, 28, 0), (3, 28, 1))
    misses = engine.ideal_sums.cache_info().misses
    one = f_series_coeff(28, 0, 1, POINT_I, 3, 777, prec, blocks=family)
    two = f_series_coeff(28, 0, 2, POINT_I, 3, 777, prec, blocks=family)
    other_j = f_series_coeff(28, 1, 0, POINT_I, 3, 777, prec, blocks=family)
    assert engine.ideal_sums.cache_info().misses == misses + 1
    with workprec(prec + 32):
        assert rel_err(two.value, one.value * 12 * mp.pi) < mpf(2) ** -prec
    assert other_j.value == f_series_coeff(28, 1, 0, POINT_I, 3, 777, prec).value
    with pytest.raises(ValueError, match="family"):
        f_series_coeff(28, 2, 0, POINT_I, 3, 777, prec, blocks=family)


def test_ideal_sum_keeps_its_precision(prec):
    # the uncached sum, run at the ambient 53 bits, matches the value
    # f_series_coeff gets inside its own working precision
    assert mp.prec == 53
    bare = engine.ideal_sums.__wrapped__(POINT_RHO, 300, prec, ((2, 18, 1),))[2, 18, 1]
    with workprec(prec + 32):
        want = f_series_coeff(18, 1, 0, POINT_RHO, 2, 300, prec).value * POINT_RHO.v0(prec)
    assert rel_err(bare, want) < mpf(2) ** -prec


def test_f_series_doubling_within_tail(prec):
    rng = random.Random(31)
    checked = 0
    while checked < 30:
        point = rng.choice([POINT_I, POINT_RHO])
        k = 2 * rng.randint(4, 14)
        j = rng.randint(0, k // 2 - 2)
        r = rng.randint(0, 3)
        m = rng.randint(0, 5)
        bound = rng.randint(40, 250)
        try:
            a = f_series_coeff(k, j, r, point, m, bound, 128)
            b = f_series_coeff(k, j, r, point, m, 2 * bound, 128)
        except ValueError:
            continue
        assert abs(b.value - a.value) <= a.tail_bound
        checked += 1


def test_general_sum_groups_into_ideal_sum(prec):
    # at i the coprime-pair sum is 4 equal unit-orbit copies per ideal
    with workprec(prec):
        for j, r, m in ((0, 0, 0), (1, 1, 2), (0, 2, 1)):
            g = general_coeff_sum(12, POINT_I, j, r, m, 400, prec)
            f = f_series_coeff(12, j, r, POINT_I, m, 400, prec)
            lhs = mpc(0, -2) ** r * g.value
            assert abs(lhs - 4 * f.value) < g.tail_bound + f.tail_bound + mpf(2) ** (-prec + 48)


@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("m", [0, 2])
def test_general_sum_is_b_kernel_sum(prec, j, m):
    # the pair sum at a generic point against a brute-force sum of the
    # tested complex kernel over a box of coprime (c, d) that covers the
    # disc |c tau + d|^2 <= H
    tau = mpc(mpf(1) / 4, mpf(11) / 10)
    got = general_coeff_sum(16, generic_point(tau), j, 0, m, 60, prec)
    with workprec(prec + 32):
        want = mpc(0)
        for c in range(-8, 9):
            for d in range(-12, 13):
                wsq = abs(c * tau + d) ** 2
                if gcd(c, d) == 1 and wsq <= 60:
                    want += b_kernel(16, c, d, tau, m, prec) * (wsq / tau.imag) ** j
    assert rel_err(got.value, want) < mpf(2) ** (-prec + 32)


def test_general_sum_m0_r_positive_zero(prec):
    assert general_coeff_sum(12, POINT_I, 0, 1, 0, 200, prec).value == 0


def test_general_sum_generic_stability(prec):
    point = generic_point(mpc(mpf(1) / 4, mpf(11) / 10))
    s1 = general_coeff_sum(16, point, 0, 0, 0, 200, prec)
    s2 = general_coeff_sum(16, point, 0, 0, 0, 400, prec)
    assert abs(s2.value - s1.value) <= s1.tail_bound


def test_assemble_matches_oracle(prec):
    rep = quasi_expansion("1/E10", 0, prec).f_rep
    oc = oracle_coeffs("1/E10", 3)
    with workprec(prec):
        for m in range(4):
            got = assemble_coefficient(rep, m, 2000, prec)
            exact = mpf(oc[m].numerator) / oc[m].denominator
            assert rel_err(got.value, exact) < mpf(10) ** -15
            assert abs(got.value.imag) <= got.tail_bound + mpf(2) ** (-prec // 2) * abs(got.value)


def test_assemble_empty_representation(prec):
    out = assemble_coefficient(BasisRepresentation(6, ()), 3, 100, prec)
    assert out.value == 0 and out.tail_bound == 0


def test_assemble_generic_point_agrees_with_elliptic(prec):
    # the same representation placed at generic tau = i must reproduce the
    # elliptic route: the pair sum carries the 2 omega unit copies itself
    with workprec(prec):
        a = mpc(mpf(3) / 7, mpf(-1) / 5)
        rep_i = BasisRepresentation(6, (BasisTerm(POINT_I, 0, a),))
        rep_g = BasisRepresentation(6, (BasisTerm(generic_point(mpc(0, 1)), 0, a),))
        for m in (0, 1, 3):
            vi = assemble_coefficient(rep_i, m, 600, prec)
            vg = assemble_coefficient(rep_g, m, 600, prec)
            assert abs(vi.value - vg.value) <= vi.tail_bound + vg.tail_bound + mpf(2) ** (-prec + 64)


def test_linear_combination(prec):
    # tail(sum c S) <= sum |c| tail(S): complex and negative weights add
    # their moduli, and zero tails stay an exact 0
    with workprec(prec):
        s1 = TruncatedSum(mpc(3, -1), mpf(2) ** -40, 100)
        s2 = TruncatedSum(mpc(mpf(1) / 3), mpf(2) ** -50, 100)
        c1, c2 = mpc(1, -2), mpf(-5) / 7
        out = linear_combination([(c1, s1), (c2, s2)], 100)
        assert out.value == c1 * s1.value + c2 * s2.value
        assert out.tail_bound == abs(c1) * s1.tail_bound + abs(c2) * s2.tail_bound
        assert out.norm_bound == 100
        zero_tails = [(c1, TruncatedSum(mpc(2), mpf(0), 100)), (-3, TruncatedSum(mpc(1), mpf(0), 100))]
        exact = linear_combination(zero_tails, 100)
        assert exact.tail_bound == 0 and exact.value == 2 * c1 - 3
        empty = linear_combination([], 100)
        assert empty.value == 0 and empty.tail_bound == 0


def test_identity_single_term(prec, e4i):
    lhs, rhs, err = identity_check_m0(1, prec)
    with workprec(prec):
        want = 9 - 4 * mp.pi**2 * e4i
        assert rel_err(lhs, want) < mpf(2) ** (-prec + 32)


def test_identity_stated_constants_do_not_balance(prec):
    # the 9/182-normalized statement is off by a factor 27 on the leading
    # cosine; the discrepancy converges to about 141.25, far outside any
    # truncation effect
    lhs, rhs, err = identity_check_m0(600, prec)
    assert err > 100


def test_identity_balanced_constants(prec, e4i):
    # replacing 9 -> 243 and 182 -> 91 balances the identity
    with workprec(prec + 32):
        lhs = mpf(0)
        for b in enumerate_primitive(Field.GAUSSIAN, 4000):
            theta = mpmath.atan2(mpf(b.c), mpf(b.d))
            lhs += (243 * mpmath.cos(32 * theta) - 4 * mp.pi**2 * e4i * mpmath.cos(28 * theta)) / mpf(b.norm) ** 13
        rhs = 27 * mp.pi**3 * e4i**8 / 91
        assert rel_err(lhs, rhs) < mpf(10) ** -9


# m = 0 blocks: v0^-j sum*_b cos(k theta_b) N^(j-k/2) = Re[R^j E_w(tau0)] / (omega (w)_j)
CLOSED_FORM_CASES = [
    (POINT_I, 12, 4),
    (POINT_I, 16, 4),
    (POINT_I, 16, 6),
    (POINT_I, 20, 8),
    (POINT_I, 12, 2),
    (POINT_RHO, 12, 3),
    (POINT_RHO, 12, 4),
    (POINT_RHO, 18, 4),
    (POINT_RHO, 12, 2),
]


@pytest.mark.parametrize("point,k,j", CLOSED_FORM_CASES, ids=str)
def test_block_closed_form_within_tail(prec, point, k, j):
    values = []
    for bound in (1000, 5000):
        partial = f_series_coeff(k, j, 0, point, 0, bound, prec)
        exact = elliptic_block_coeff(k, j, 0, point, 0, bound, prec)
        assert exact.tail_bound == 0 and exact.norm_bound == bound
        assert exact.value.imag == 0 and exact.value.real > 0
        with workprec(prec):
            assert abs(partial.value - exact.value) <= partial.tail_bound
        values.append(exact.value)
    # the closed form does not depend on the truncation
    assert values[0] == values[1]


def test_block_closed_form_reference_values(prec):
    # (12, 4) converges like N^-2: the lattice sum at B = 5000 is still off
    # by about 1.3e-7 at i, while the closed form is exact
    at_i = elliptic_block_coeff(12, 4, 0, POINT_I, 0, 5000, prec).value
    at_rho = elliptic_block_coeff(12, 4, 0, POINT_RHO, 0, 5000, prec).value
    assert abs(at_i - mpf("0.795022876848296")) < 1e-14
    assert abs(at_rho - mpf("1.90197500587207")) < 1e-14
    lattice = f_series_coeff(12, 4, 0, POINT_I, 0, 5000, prec).value
    assert 1e-7 < abs(lattice - at_i) < 2e-7


LOW_PRECISION_CASES = [
    (POINT_RHO, 42, 13),
    (POINT_RHO, 42, 10),
    (POINT_RHO, 36, 12),
    (POINT_I, 40, 14),
    (POINT_I, 44, 15),
    (POINT_RHO, 240, 39),
]


@pytest.mark.parametrize("point,k,j", LOW_PRECISION_CASES, ids=str)
def test_block_closed_form_full_precision(point, k, j):
    # the closed form keeps its guard bits, so even at 64 bits it
    # is correct to 2^-P, not only within the check's 2^-(P/2) slack; the
    # values under test are read at the ambient precision, so each must
    # carry its own working bits
    with workprec(432):
        want = elliptic_block_coeff(k, j, 0, point, 0, 2000, 400).value
    for precision in (64, 128):
        got = elliptic_block_coeff(k, j, 0, point, 0, 2000, precision).value
        assert rel_err(got, want) <= mpf(2) ** -precision, precision


@pytest.mark.parametrize("point,k,j", LOW_PRECISION_CASES, ids=str)
def test_block_closed_form_from_shared_table(point, k, j):
    # blocks of one weight w = k - 2j read one table of E_w derivatives,
    # taken at the family's largest j and its working bits; each block stays
    # within 2^-P of the closed form from a table of its own
    step = 4 if point is POINT_I else 6
    family = ((0, k, j), (0, k + step, j + step // 2))
    for precision in (64, 128, 256):
        misses = engine._eisenstein_table.cache_info().misses
        top = elliptic_block_coeff(k + step, j + step // 2, 0, point, 0, 2000, precision, blocks=family)
        got = elliptic_block_coeff(k, j, 0, point, 0, 2000, precision, blocks=family)
        assert engine._eisenstein_table.cache_info().misses <= misses + 1
        assert top.tail_bound == got.tail_bound == 0
        own = elliptic_block_coeff(k, j, 0, point, 0, 2000, precision).value
        assert rel_err(got.value, own) <= mpf(2) ** -precision, precision


@pytest.mark.parametrize("point", [POINT_I, POINT_RHO], ids=str)
def test_block_lattice_sum_at_large_bound(prec, point):
    # the slow N^-2 block behind E2^4/E10 at m = 0: its lattice partial sum
    # at B = 2e5 must itself reach the closed form far inside the loose
    # tail bound (about 0.01); it lands within 7e-11 at i and 2.4e-10 at rho
    partial = f_series_coeff(12, 4, 0, point, 0, 200_000, prec)
    exact = elliptic_block_coeff(12, 4, 0, point, 0, 200_000, prec)
    assert rel_err(partial.value, exact.value) < mpf(10) ** -9
    assert partial.tail_bound > mpf(10) ** -3


@pytest.mark.parametrize("point,k,j", [(POINT_I, 14, 4), (POINT_RHO, 16, 5), (POINT_RHO, 14, 4)], ids=str)
def test_block_off_class_is_exact_zero(prec, point, k, j):
    # 4 does not divide k at i, 6 does not at rho: the unit orbit cancels
    for bound in (1000, 5000):
        for fn in (f_series_coeff, elliptic_block_coeff):
            out = fn(k, j, 0, point, 0, bound, prec)
            assert out.value == 0 and out.tail_bound == 0
    out = f_series_coeff(k, j, 1, point, 3, 1000, prec)
    assert out.value == 0 and out.tail_bound == 0
    # the norm-bound precondition holds off the class too
    with pytest.raises(ValueError, match="norm_bound"):
        f_series_coeff(k, j, 0, point, 10, 50, prec)


@pytest.mark.parametrize("point", [POINT_I, POINT_RHO], ids=str)
def test_admissible_terms_lie_on_the_kernel_class(point):
    # block_families sums every term it is given: BasisRepresentation admits
    # only (k + n) % omega == 0, so w = 2k + 2n is never off the class
    admitted = 0
    for k in range(2, 201):
        for n in range(41):
            try:
                rep = BasisRepresentation(k, (BasisTerm(point, n, mpc(1)),))
            except ValueError:
                continue
            admitted += 1
            w = 2 * k + 2 * n
            assert not point.vanishes(w), (k, n)
            family = ((0, w, n),) + tuple((1, w, j) for j in range(n + 1))
            assert engine.block_families([rep], (0, 1)) == {point: family}
    assert admitted > 2000


def test_block_closed_form_check_raises(prec, monkeypatch):
    honest = f_series_coeff(12, 4, 0, POINT_I, 0, 1000, prec)
    calls = []

    def skewed(k, j, r, point, m, norm_bound, precision, blocks=None):
        calls.append((k, j, r, m))
        return TruncatedSum(honest.value + 2 * honest.tail_bound + 1, honest.tail_bound, norm_bound)

    monkeypatch.setattr(engine, "f_series_coeff", skewed)
    with pytest.raises(ClosedFormMismatch, match="k=12, j=4"):
        elliptic_block_coeff(12, 4, 0, POINT_I, 0, 1000, prec)
    assert issubclass(ClosedFormMismatch, ArithmeticError)
    # away from m = 0, r = 0 the partial sum is passed through unchecked
    out = elliptic_block_coeff(12, 4, 0, POINT_I, 2, 1000, prec)
    assert out.value == honest.value + 2 * honest.tail_bound + 1
    assert calls == [(12, 4, 0, 0), (12, 4, 0, 2)]


def test_constant_terms_exact_at_small_bound(prec):
    # the m = 0 coefficients no longer depend on the norm bound: at B = 100
    # both routes match the oracle far below any lattice truncation error
    qe = quasi_expansion("1/E10", 4, prec)
    with workprec(prec):
        for n in range(1, 5):
            want = oracle_coeffs(f"E2^{n} * (1/E10)", 0)[0]
            want = mpf(want.numerator) / want.denominator
            for got in (simple_pole_quasi_coeff(qe.f_rep, n, 0, 100, prec), qe.coefficient_of_power(n, 0, 100)):
                assert got.tail_bound == 0
                assert rel_err(got.value, want) < mpf(10) ** -60
        for form, n in (("1/E6^4", 0), ("1/E6^4", 1), ("1/E4", 0)):
            got = quasi_expansion(form, n, prec).coefficient(0, 100)
            want = oracle_coeffs(f"E2^{n} * ({form})" if n else form, 0)[0]
            assert got.tail_bound == 0
            assert rel_err(got.value, mpf(want.numerator) / want.denominator) < mpf(10) ** -60


def test_identity_balanced_constants_from_closed_form(prec, e4i):
    # at i (v0 = 1) the two sums of the quartic-reciprocal identity are the
    # blocks (32, 3) and (28, 1), both with w = 26; their closed forms give
    # the balanced 243/91 constants exactly, and the 9/182 left side's limit
    with workprec(prec):
        cos32 = elliptic_block_coeff(32, 3, 0, POINT_I, 0, 100, prec).value.real
        cos28 = elliptic_block_coeff(28, 1, 0, POINT_I, 0, 100, prec).value.real
        four_pi_sq_e4 = 4 * mp.pi**2 * e4i
        rhs = 27 * mp.pi**3 * e4i**8 / 91
        assert rel_err(243 * cos32 - four_pi_sq_e4 * cos28, rhs) < mpf(10) ** -60
        assert abs(9 * cos32 - four_pi_sq_e4 * cos28 - mpf("-48.4631013275")) < 1e-9
