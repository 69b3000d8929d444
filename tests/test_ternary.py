import random
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, product
from math import ceil, floor, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spongeknots import ternary
from spongeknots.oracle import oracle_profile, subdivision_oracle
from spongeknots.ternary import (
    _BAD,
    AxisSegment,
    TernaryExpansion,
    _breaks,
    _digit_bytes,
    _index_of_digits,
    _first_bad,
    _stage_scan,
    _walk,
    cantor_endpoints,
    expansions,
    in_cantor,
    in_cantor_stage,
    in_carpet2,
    in_carpet2_stage,
    in_carpet_face,
    in_carpet_face_stage,
    in_sponge,
    in_sponge_stage,
    limit_certificate,
    membership,
    membership_stage,
    satisfying_expansions,
    segment_in_stage,
    stage_certificate,
    stage_profile,
    ternary_digits,
)

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=3**6)


def test_ternary_digits_examples():
    assert ternary_digits(F(0), 3) == ((0, 0, 0),)
    assert set(ternary_digits(F(1, 3), 3)) == {(1, 0, 0), (0, 2, 2)}
    # 0*(1/3) + 2/9 + 0 + 2/81 repeating sums to 1/4
    assert ternary_digits(F(1, 4), 4) == ((0, 2, 0, 2),)
    assert ternary_digits(F(1), 2) == ((2, 2),)


def _digit(e, i):
    """Digit of an expansion at 1-based position i."""
    i -= 1
    if i < len(e.preperiod):
        return e.preperiod[i]
    return e.period[(i - len(e.preperiod)) % len(e.period)]


def _expansion_prefixes(x, k):
    out = []
    for e in expansions(x):
        prefix = tuple(_digit(e, i) for i in range(1, k + 1))
        if prefix not in out:
            out.append(prefix)
    return tuple(out)


# a stage k with a point that is random, an end of [0, 1], or on the 3**-k grid
stage_points = st.one_of(st.integers(min_value=0, max_value=8), st.integers(min_value=60, max_value=140)).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.one_of(
            unit_fractions,
            st.sampled_from((F(0), F(1))),
            st.integers(min_value=0, max_value=3**k).map(lambda j: F(j, 3**k)),
        ),
    )
)


@given(stage_points)
def test_ternary_digits_are_the_expansion_prefixes(case):
    k, x = case
    assert ternary_digits(x, k) == _expansion_prefixes(x, k)


def test_ternary_digits_out_of_range():
    with pytest.raises(ValueError):
        ternary_digits(F(3, 2), 3)
    with pytest.raises(ValueError):
        ternary_digits(F(-1, 2), 3)


@given(unit_fractions)
def test_expansions_reconstruct_value(x):
    exps = expansions(x)
    for e in exps:
        assert e.value() == x


@given(unit_fractions)
def test_expansion_count_matches_triadic_flag(x):
    exps = expansions(x)
    den = x.denominator
    is_triadic_interior = x not in (0, 1) and den != 1 and _is_pow3(den)
    assert len(exps) == (2 if is_triadic_interior else 1)


def _is_pow3(n):
    while n % 3 == 0:
        n //= 3
    return n == 1


def test_in_cantor_examples():
    assert in_cantor(F(0))
    assert not in_cantor(F(1, 2))  # inside removed (1/3, 2/3)
    assert in_cantor(F(1, 4))
    assert subdivision_oracle((F(1, 4),), 12, "cantor")


def test_in_carpet_face_examples():
    assert in_carpet_face(F(0), F(0))
    assert not in_carpet_face(F(1, 2), F(1, 2))
    assert in_carpet_face(F(1, 2), F(2, 3))


def test_in_sponge_examples():
    assert in_sponge(F(0), F(0), F(0))
    assert not in_sponge_stage(F(1, 2), F(1, 2), F(1, 2), 1)
    assert in_sponge(F(1, 3), F(2, 3), F(1, 2))


def test_in_carpet2_examples():
    assert not in_carpet2(F(1, 2), F(1, 2), F(1, 2))
    assert in_carpet2(F(1, 2), F(1, 2), F(0))


def test_oracle_examples():
    p = (F(1, 2), F(1, 2), F(1, 2))
    assert subdivision_oracle(p, 0, "sponge")
    assert not subdivision_oracle(p, 1, "sponge")


def test_oracle_agrees_on_depth_segment_samples():
    rng = random.Random(7)
    for _ in range(100):
        t = F(rng.randint(0, 3**5), 3**5)
        assert subdivision_oracle((F(1, 3), t, F(0)), 5, "sponge")
    seg = AxisSegment(1, (F(1, 3), F(0)), F(0), F(1))
    assert segment_in_stage(seg, 5, "sponge")


def _random_unit_fraction(rng, max_den):
    den = rng.randint(1, max_den)
    return F(rng.randint(0, den), den)


@pytest.mark.parametrize("space,dim", [("cantor", 1), ("carpet_face", 2), ("sponge", 3), ("carpet2", 3)])
def test_oracle_equivalence_random(space, dim):
    rng = random.Random(hash(space) & 0xFFFF)
    for _ in range(300):
        p = tuple(_random_unit_fraction(rng, 3**5) for _ in range(dim))
        for k in range(6):
            assert membership_stage(p, k, space) == subdivision_oracle(p, k, space), (p, k)


def test_stage_verdicts_match_oracle_for_dust_over_large_denominators():
    # criterion 2's points (12-digit Cantor dust, z with denominator up to
    # 10**6), with x or y sometimes a small-denominator rational so that
    # non-members occur too
    rng = random.Random(0xD057)
    verdicts = set()
    for _ in range(60):
        x, y = (
            F(sum(rng.choice((0, 2)) * 3**i for i in range(12)), 3**12)
            if rng.random() < 0.6 else _random_unit_fraction(rng, 3**5)
            for _ in range(2)
        )
        den = rng.randint(1, 10**6)
        z = F(rng.randint(0, den), den)
        for space, q in (("sponge", (x, y, z)), ("carpet2", (x, y, z)), ("carpet_face", (y, z)), ("cantor", (z,))):
            profile = oracle_profile(q, 8, space)
            assert [membership_stage(q, k, space) for k in range(9)] == profile, (q, space)
            assert stage_profile(q, 8, space) == profile, (q, space)
            verdicts.update(profile)
    assert verdicts == {True, False}


@pytest.mark.parametrize("space,dim", [("cantor", 1), ("carpet_face", 2), ("sponge", 3), ("carpet2", 3)])
def test_stage_monotone(space, dim):
    rng = random.Random(11)
    for _ in range(200):
        p = tuple(_random_unit_fraction(rng, 200) for _ in range(dim))
        verdicts = [membership_stage(p, k, space) for k in range(7)]
        for a, b in zip(verdicts, verdicts[1:]):
            assert a or not b  # in at stage k+1 implies in at stage k


@given(st.integers(min_value=0, max_value=8).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(min_value=0, max_value=2**(k + 1) - 1))
))
def test_cantor_dust_lifts_to_sponge(kc):
    # points of the Cantor dust extend over any depth coordinate
    k, idx = kc
    xs = cantor_endpoints(k)
    x = xs[idx]
    y = xs[(idx * 7 + 3) % len(xs)]
    for z in (F(1, 2), F(3, 7), F(1)):
        assert in_sponge(x, y, z)


@given(unit_fractions, unit_fractions, unit_fractions)
@settings(max_examples=60)
def test_sponge_subset_carpet2(x, y, z):
    if in_sponge(x, y, z):
        assert in_carpet2(x, y, z)


@given(unit_fractions, unit_fractions)
@settings(max_examples=40)
def test_boundary_in_carpet2(x, y):
    assert in_carpet2(x, y, F(0))
    assert in_carpet2(F(1), x, y)


def test_cantor_endpoints():
    assert cantor_endpoints(0) == [0, 1]
    assert cantor_endpoints(1) == [0, F(1, 3), F(2, 3), 1]
    e2 = cantor_endpoints(2)
    assert len(e2) == 8
    assert e2 == sorted(e2)
    assert all(in_cantor(x) for x in e2)
    assert all((3**2 % x.denominator) == 0 for x in e2 if x != 0)


def test_segment_in_stage_examples():
    seg = AxisSegment(1, (F(0), F(0)), F(0), F(1))  # x0=0, z=0, y in [0,1]
    assert segment_in_stage(seg, 3, "sponge")
    deep = AxisSegment(2, (F(1, 3), F(1, 3)), F(0), F(1))
    assert segment_in_stage(deep, 4, "sponge")
    bad = AxisSegment(0, (F(1, 2), F(0)), F(0), F(1))  # crosses removed face square
    assert not segment_in_stage(bad, 1, "sponge")
    assert segment_in_stage(bad, 1, "carpet2")


def test_segment_in_stage_subinterval():
    # short segment living inside one surviving column
    seg = AxisSegment(0, (F(1, 3), F(0)), F(7, 9), F(8, 9))
    assert segment_in_stage(seg, 2, "sponge")
    mid = AxisSegment(0, (F(1, 2), F(1, 2)), F(2, 5), F(3, 5))
    assert not segment_in_stage(mid, 1, "sponge")


def test_segment_matches_pointwise_oracle():
    rng = random.Random(3)
    for _ in range(40):
        axis = rng.randrange(3)
        fixed = tuple(_random_unit_fraction(rng, 27) for _ in range(2))
        a, b = sorted(_random_unit_fraction(rng, 27) for _ in range(2))
        if a == b:
            continue
        seg = AxisSegment(axis, fixed, a, b)
        k = rng.randint(0, 3)
        verdict = segment_in_stage(seg, k, "sponge")
        # sample points densely; segment verdict must dominate samples
        samples = [a + (b - a) * F(t, 16) for t in range(17)]
        point_verdicts = []
        for s in samples:
            coords = list(fixed)
            coords.insert(axis, s)
            point_verdicts.append(subdivision_oracle(tuple(coords), k, "sponge"))
        if verdict:
            assert all(point_verdicts)
        else:
            # exactness: a failing segment must contain a failing rational point
            finer = [a + (b - a) * F(t, 3**(k + 2)) for t in range(3**(k + 2) + 1)]
            assert any(
                not subdivision_oracle(tuple(_insert(fixed, axis, s)), k, "sponge") for s in finer
            )


def _insert(fixed, axis, value):
    coords = list(fixed)
    coords.insert(axis, value)
    return tuple(coords)


def _running_cell_verdicts(axis, fixed, k, space):
    """Oracle verdict at the midpoint of each stage-k running cell.

    All points inside one open running cell lie in the same closed cells, so
    the midpoints decide containment of any segment through them.
    """
    scale = 3**k
    return [subdivision_oracle(_insert(fixed, axis, F(2 * i + 1, 2 * scale)), k, space) for i in range(scale)]


def _segment_oracle(seg, k, space):
    scale = 3**k
    cells = _running_cell_verdicts(seg.axis, seg.fixed, k, space)
    return all(cells[floor(seg.lo * scale):ceil(seg.hi * scale)])


@pytest.mark.parametrize("space", ["sponge", "carpet2"])
def test_segment_matches_oracle_on_every_grid_segment(space):
    for k in range(3):
        grid = [F(j, 3**k) for j in range(3**k + 1)]
        for axis in range(3):
            for fixed in ((a, b) for a in grid for b in grid):
                cells = _running_cell_verdicts(axis, fixed, k, space)
                for lo in range(3**k):
                    for hi in range(lo + 1, 3**k + 1):
                        seg = AxisSegment(axis, fixed, grid[lo], grid[hi])
                        assert segment_in_stage(seg, k, space) == all(cells[lo:hi]), (seg, k)


@pytest.mark.parametrize("space", ["sponge", "carpet2"])
def test_segment_matches_oracle_on_random_segments_at_stage_3(space):
    rng = random.Random(33)
    verdicts = set()
    for _ in range(300):
        fixed = tuple(
            F(rng.randint(0, 27), 27) if rng.random() < 0.7 else _random_unit_fraction(rng, 100)
            for _ in range(2)
        )
        lo, hi = sorted(_random_unit_fraction(rng, 100) for _ in range(2))
        if lo == hi:
            continue
        seg = AxisSegment(rng.randrange(3), fixed, lo, hi)
        verdict = segment_in_stage(seg, 3, space)
        assert verdict == _segment_oracle(seg, 3, space), seg
        verdicts.add(verdict)
    assert verdicts == {True, False}


# --- the digit walk against the cell enumeration it replaced ------------------

def _digits_of_index(i, k):
    """The k base-3 digits of i, most significant first, one division each:
    the reference the byte splitter is checked against."""
    ds = []
    for _ in range(k):
        ds.append(i % 3)
        i //= 3
    return tuple(reversed(ds))


def _reference_segment_in_stage(seg, k, space):
    """Every running cell the segment meets with positive length, each
    through the stage scan: the enumeration the digit walk replaced."""
    scale = 3**k
    options = [ternary_digits(c, k) for c in seg.fixed]
    options.insert(seg.axis, None)
    for i in range(floor(seg.lo * scale), ceil(seg.hi * scale)):
        options[seg.axis] = (_digits_of_index(i, k),)
        if all(t is not None for _, t in _stage_scan(options, space)):
            return False
    return True


def test_the_two_cells_of_a_grid_value_hold_nested_ones():
    # cells i - 1 and i share the value i / 3**k: the 1s of one are those
    # of the other plus at most one, so the cell with fewer 1s keeps every
    # running cell the other keeps
    for k in range(1, 7):
        ones = [{t for t, d in enumerate(_digits_of_index(i, k)) if d == 1} for i in range(3**k)]
        for i in range(1, 3**k):
            fewer, more = sorted((ones[i - 1], ones[i]), key=len)
            assert fewer <= more and len(more - fewer) <= 1, (i, k)


@pytest.mark.parametrize("space", ["sponge", "carpet2"])
def test_range_test_matches_the_reference_on_every_segment_of_the_half_grid(space):
    # every segment whose four coordinates lie on the 1/(2 * 3**k) grid,
    # k <= 3: each value lies on a cell boundary or inside a cell.  The
    # range test reads only the best cells of the fixed values, so every
    # fixed pair with the same best cells must keep the same running cells
    # in the reference, which tries every combo; the rules are symmetric
    # in the two fixed coordinates, so pairs are taken once
    seen = set()
    for k in range(4):
        values = [F(j, 2 * 3**k) for j in range(2 * 3**k + 1)]
        ones = ((1 << 8 * k) - 1) // 255
        splits = [ternary._stage_digits(v.numerator, v.denominator, ternary.triadic_exponent(v.denominator), k)
                  for v in values]
        words = [ternary._words(split, ones) for split in splits]
        assert all(free == (best == 0) for (_, _, free), (_, _, best) in zip(splits, words))
        classes = {}
        for u, v in combinations_with_replacement(range(len(values)), 2):
            fixed = values[u], values[v]
            cells = tuple(
                _reference_segment_in_stage(AxisSegment(0, fixed, F(i, 3**k), F(i + 1, 3**k)), k, space)
                for i in range(3**k)
            )
            assert classes.setdefault((words[u][2], words[v][2]), cells) == cells, (fixed, k)
        for (a, b), cells in classes.items():
            for lo, hi in combinations(range(len(values)), 2):
                ref = all(cells[floor(values[lo] * 3**k):ceil(values[hi] * 3**k)])
                assert ternary._range_kept(space, a, b, words[lo][0], words[hi][1]) == ref, (a, b, lo, hi, k)
                seen.add((k, ref))
    assert seen == {(k, ref) for k in range(1, 4) for ref in (True, False)} | {(0, True)}


def test_digit_bytes_are_the_digits_of_the_index():
    # every k across the four-digit steps of the digit table and past the
    # halving of k > 64; the extreme indices and random ones between
    rng = random.Random(14)
    for k in range(71):
        for i in {0, 1, 80 % 3**k, 81 % 3**k, 3**k - 1, *(rng.randrange(3**k) for _ in range(20))}:
            assert _digit_bytes(i, k) == bytes(_digits_of_index(i, k)), (i, k)


def _fixed_coordinate(rng, k):
    kind = rng.randrange(4)
    if kind == 0:
        return F(rng.randint(0, 3**k), 3**k)
    if kind == 1:
        return F(rng.randint(0, 3 ** (k + 1)), 3 ** (k + 1))
    if kind == 2:
        return rng.choice((F(0), F(1), F(1, 2)))
    return _random_unit_fraction(rng, 200)


@pytest.fixture(scope="module")
def interval_corpus():
    """(segment, k, space, reference verdict) for every [L, H] interval of
    running cells at k <= 4, over seeded axes and fixed pairs.

    A segment meets the same cells whether it ends on the grid or inside its
    end cell, so both kinds of ends appear, and the reference verdict of
    [L, H] is that of its cells, each decided once by the reference.
    """
    rng = random.Random(2024)
    out = []
    for k in range(5):
        scale = 3**k
        for _ in range(6):
            axis = rng.randrange(3)
            fixed = (_fixed_coordinate(rng, k), _fixed_coordinate(rng, k))
            for space in ("sponge", "carpet2"):
                cells = [
                    _reference_segment_in_stage(AxisSegment(axis, fixed, F(i, scale), F(i + 1, scale)), k, space)
                    for i in range(scale)
                ]
                for lo in range(scale):
                    for hi in range(lo, scale):
                        seg = AxisSegment(
                            axis,
                            fixed,
                            F(2 * lo + 1, 2 * scale) if (lo + hi) % 2 else F(lo, scale),
                            F(2 * hi + 1, 2 * scale) if hi % 2 else F(hi + 1, scale),
                        )
                        out.append((seg, k, space, all(cells[lo:hi + 1])))
    return out


def test_segment_in_stage_matches_reference_on_every_running_interval(interval_corpus):
    wrong = [(seg, k, space) for seg, k, space, ref in interval_corpus if segment_in_stage(seg, k, space) != ref]
    assert wrong == []


def test_segment_reference_corpus_is_not_trivial(interval_corpus):
    # every count of fixed-digit combos meets both verdicts in both spaces
    cases = {(seg.fixed, k, space, ref) for seg, k, space, ref in interval_corpus}
    seen = {
        (len(ternary_digits(fixed[0], k)) * len(ternary_digits(fixed[1], k)), space, ref)
        for fixed, k, space, ref in cases
    }
    assert seen == {(c, s, v) for c in (1, 2, 4) for s in ("sponge", "carpet2") for v in (True, False)}


def _segment_rationals(k):
    return st.one_of(
        st.integers(min_value=0, max_value=3 ** (k + 1)).map(lambda j: F(j, 3 ** (k + 1))),
        st.fractions(min_value=0, max_value=1, max_denominator=200),
    )


random_segments = st.integers(min_value=0, max_value=7).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.integers(min_value=0, max_value=2),
        st.tuples(_segment_rationals(k), _segment_rationals(k)),
        st.lists(_segment_rationals(k), min_size=2, max_size=2, unique=True).map(sorted),
        st.sampled_from(("sponge", "carpet2")),
    )
)


@given(random_segments)
def test_segment_in_stage_matches_reference_on_random_segments(case):
    k, axis, fixed, (lo, hi), space = case
    seg = AxisSegment(axis, fixed, lo, hi)
    assert segment_in_stage(seg, k, space) == _reference_segment_in_stage(seg, k, space)


def test_triadic_ambiguity_is_existential():
    # 1/3 has a representation with a digit 1, but membership holds anyway
    assert in_cantor(F(1, 3))
    assert in_cantor(F(2, 3))
    assert in_carpet_face(F(1, 3), F(1, 3))
    # stage predicates see both prefixes too
    assert in_cantor_stage(F(1, 3), 5)
    assert in_carpet_face_stage(F(1, 3), F(1, 3), 5)
    assert in_sponge_stage(F(1, 3), F(1, 3), F(1, 3), 5)
    assert in_carpet2_stage(F(1, 3), F(1, 3), F(1, 3), 5)


# short preperiods and periods, rich in 1s, so non-members are common; tails
# of 0s or 2s give triadic points with two representations
_digits = st.lists(st.sampled_from((0, 1, 1, 2)), max_size=3).map(tuple)
small_period_points = st.sampled_from([("cantor", 1), ("carpet_face", 2), ("sponge", 3), ("carpet2", 3)]).flatmap(
    lambda sd: st.tuples(
        st.just(sd[0]),
        st.lists(
            st.builds(TernaryExpansion, _digits, _digits.filter(bool)).map(TernaryExpansion.value),
            min_size=sd[1], max_size=sd[1],
        ).map(tuple),
    )
)


@given(small_period_points)
@settings(max_examples=150)
def test_refutation_cells_hold_the_point_and_are_removed_at_their_stage(case):
    space, point = case
    assume(not membership(point, space))
    failed_stage, cells = limit_certificate(point, space)[1]
    assert failed_stage == max(c.stage for c in cells)
    # in the stage before the deepest cell, outside from that stage on
    assert oracle_profile(point, failed_stage, space) == [True] * failed_stage + [False]
    for c in cells:
        assert all(lo <= x <= hi for x, (lo, hi) in zip(point, c.cell))
        assert all(hi - lo == F(1, 3**c.stage) for lo, hi in c.cell)
        center = tuple((lo + hi) / 2 for lo, hi in c.cell)
        assert oracle_profile(center, c.stage, space) == [True] * c.stage + [False]


# --- limit decisions from residue classes against the scan they replaced -----

def _reference_first_bad(combo, space):
    """First violating position of a representation combo, or None, by a scan
    of every position through the joint preperiod and one joint period: the
    O(lcm of periods) loop the residue-class rule replaced."""
    bad = _BAD[space]
    pre = max(len(e.preperiod) for e in combo)
    per = lcm(*(len(e.period) for e in combo))
    for i in range(1, pre + per + 1):
        if tuple(_digit(e, i) for e in combo) in bad:
            return i
    return None


def _reference_expansions(x):
    """Long division with a table of the remainders seen, the expansion
    routine the table-free one replaced."""
    if x == 0:
        return (TernaryExpansion((), (0,)),)
    if x == 1:
        return (TernaryExpansion((), (2,)),)
    num, den = x.numerator, x.denominator
    seen, digits, rem = {}, [], num
    while rem not in seen:
        seen[rem] = len(digits)
        d, rem = divmod(rem * 3, den)
        digits.append(d)
    start = seen[rem]
    high = TernaryExpansion(tuple(digits[:start]), tuple(digits[start:]))
    if not _is_pow3(den):
        return (high,)
    head = digits[:start]
    return (high, TernaryExpansion(tuple(head[:-1] + [head[-1] - 1]), (2,)))


SPACE_DIMS = [("cantor", 1), ("carpet_face", 2), ("sponge", 3), ("carpet2", 3)]
ORACLE_DEPTH = 12


def _check_limit_point(point, space):
    """The new limit path against the reference scan and the subdivision
    oracle; returns the point's verdict."""
    combos = list(product(*(expansions(c) for c in point)))
    assert combos == list(product(*(_reference_expansions(c) for c in point)))
    firsts = []
    for combo in combos:
        want = _reference_first_bad(combo, space)
        assert _breaks(combo, space) == (want is not None), (combo, space)
        if want is not None:
            assert _first_bad(combo, space) == want, (combo, space)
        firsts.append(want)
    verdict = membership(point, space)
    assert verdict == (None in firsts)
    # stage k keeps the point iff some combo breaks no rule up to position k
    profile = [any(t is None or t > k for t in firsts) for k in range(ORACLE_DEPTH + 1)]
    assert oracle_profile(point, ORACLE_DEPTH, space) == profile, (point, space)
    return verdict


def _periodic(pre, period):
    return TernaryExpansion(pre, period).value()


# small periods and preperiods, rich in 1s; coprime periods, so the joint
# period is their product; triadic points, with two representations each
_small_digits = st.lists(st.sampled_from((0, 1, 1, 2)), max_size=4).map(tuple)
_small_point = st.builds(_periodic, _small_digits, _small_digits.filter(bool))
_coprime_point = st.sampled_from((2, 3, 5, 7, 11)).flatmap(
    lambda p: st.builds(_periodic, _small_digits, st.lists(st.sampled_from((0, 1, 2)), min_size=p, max_size=p))
)
_triadic_point = st.integers(min_value=0, max_value=6).flatmap(
    lambda j: st.integers(min_value=0, max_value=3**j).map(lambda i: F(i, 3**j))
)
limit_points = st.sampled_from(SPACE_DIMS).flatmap(
    lambda sd: st.tuples(
        st.just(sd[0]),
        st.lists(st.one_of(_small_point, _coprime_point, _triadic_point), min_size=sd[1], max_size=sd[1])
        .map(tuple),
    )
)


@given(limit_points)
@settings(max_examples=300)
def test_limit_verdicts_match_reference_scan_and_oracle(case):
    space, point = case
    _check_limit_point(point, space)


def _corpus_point(rng, kind):
    if kind == "small":
        digits = lambda n: tuple(rng.choice((0, 1, 1, 2)) for _ in range(n))
        return _periodic(digits(rng.randint(0, 4)), digits(rng.randint(1, 4)))
    if kind == "coprime":
        p = rng.choice((2, 3, 5, 7, 11, 13))
        return _periodic((), tuple(rng.choice((0, 1, 2)) for _ in range(p)))
    if kind == "triadic":
        j = rng.randint(0, 6)
        return F(rng.randint(0, 3**j), 3**j)
    return _random_unit_fraction(rng, 200)


def test_limit_corpus_matches_reference_and_reaches_both_verdicts():
    rng = random.Random(0x1E517)
    verdicts = {space: set() for space, _ in SPACE_DIMS}
    for _ in range(150):
        for space, dim in SPACE_DIMS:
            point = tuple(
                _corpus_point(rng, rng.choice(("small", "coprime", "triadic", "random"))) for _ in range(dim)
            )
            verdicts[space].add(_check_limit_point(point, space))
    assert all(v == {True, False} for v in verdicts.values())


def _one_hot(pre, p, r, filler=0):
    """Expansion with preperiod ``pre`` and one 1 in its period, at offset r."""
    return TernaryExpansion(pre, tuple(1 if i == r else filler for i in range(p)))


# pairs of periods with a common factor, and preperiods of 0 and 1 digits
PERIOD_PAIRS = [(2, 4), (4, 6), (6, 9), (6, 10)]


@pytest.mark.parametrize("pa,pb", PERIOD_PAIRS)
def test_pair_rule_on_every_residue_pair(pa, pb):
    # carpet_face meets on axes 0 and 1; sponge on any two of its three axes,
    # the third free of 1s; carpet2 on the pair when the third axis is all 1s
    none, all_ones = TernaryExpansion((), (2,)), TernaryExpansion((), (1,))
    for pre_a, pre_b in product(((), (0,)), ((), (2,))):
        for ra, rb in product(range(pa), range(pb)):
            a, b = _one_hot(pre_a, pa, ra), _one_hot(pre_b, pb, rb, filler=2)
            combos = [("carpet_face", (a, b)), ("carpet2", (a, b, all_ones)), ("carpet2", (all_ones, a, b))]
            combos += [("sponge", c) for c in ((a, b, none), (a, none, b), (none, a, b))]
            for space, combo in combos:
                want = _reference_first_bad(combo, space)
                assert _breaks(combo, space) == (want is not None), (space, combo)
                if want is not None:
                    assert _first_bad(combo, space) == want


@pytest.mark.parametrize("periods", [(2, 4, 6), (4, 6, 9)])
def test_triple_rule_on_every_residue_triple(periods):
    # carpet2 needs one position where all three axes hold a 1
    seen = set()
    for residues in product(*(range(p) for p in periods)):
        combo = tuple(_one_hot((0,) * (i % 2), p, r) for i, (p, r) in enumerate(zip(periods, residues)))
        want = _reference_first_bad(combo, "carpet2")
        assert _breaks(combo, "carpet2") == (want is not None), combo
        seen.add(want is not None)
    assert seen == {True, False}


def test_expansion_digits_are_bytes_and_equal_their_tuple_form():
    high, low = expansions(F(1, 3))
    assert (high.preperiod, high.period, low.preperiod, low.period) == (b"\1", b"\0", b"\0", b"\2")
    assert high == TernaryExpansion((1,), (0,))
    (quarter,) = expansions(F(1, 4))
    assert quarter == TernaryExpansion((), (0, 2)) and list(quarter.period) == [0, 2]
    with pytest.raises(ValueError):
        TernaryExpansion((), (3,))
    with pytest.raises(ValueError):
        TernaryExpansion((1,), ())


def _block_point(digits):
    """The purely periodic point 0.(digits) in base 3."""
    n = 0
    for d in digits:
        n = 3 * n + d
    return F(n, 3 ** len(digits) - 1)


def _huge_period_digits():
    """Periods 2 * 10007 and 2 * 10009: the joint period is about 2 * 10**8
    positions, but x's 1s sit at even offsets and y's at odd ones, so the
    classes never meet modulo gcd = 2."""
    rng = random.Random(10007)
    xs = [rng.choice((0, 1)) if i % 2 == 0 else rng.choice((0, 2)) for i in range(2 * 10007)]
    ys = [rng.choice((0, 1)) if i % 2 == 1 else rng.choice((0, 2)) for i in range(2 * 10009)]
    return xs, ys


def test_limit_query_with_huge_joint_period_answers():
    xs, ys = _huge_period_digits()
    x, y = _block_point(xs), _block_point(ys)
    (ex,), (ey,) = expansions(x), expansions(y)
    assert (len(ex.preperiod), len(ex.period), len(ey.preperiod), len(ey.period)) == (0, 20014, 0, 20018)
    assert in_sponge(x, y, F(0))
    assert satisfying_expansions((x, y, F(0)), "sponge") == (ex, ey, TernaryExpansion((), (0,)))
    # one 1 of y shifted onto an even offset meets x's class of that parity
    r = ys.index(1)
    ys[r], ys[r + 1] = 0, 1
    assert not in_sponge(x, _block_point(ys), F(0))


def test_refutation_at_a_far_first_violation_holds_the_point():
    # the shifted pair above: its first violation is at position 20,021,
    # and each cell corner is built from a 20,021-digit prefix
    xs, ys = _huge_period_digits()
    r = ys.index(1)
    ys[r], ys[r + 1] = 0, 1
    point = (_block_point(xs), _block_point(ys), F(0))
    failed_stage, cells = limit_certificate(point, "sponge")[1]
    assert failed_stage == 20021
    assert all(c.stage == 20021 for c in cells)
    for c in cells:
        assert all(lo <= x <= hi and hi - lo == F(1, 3**c.stage) for x, (lo, hi) in zip(point, c.cell))


def _digit_sum(prefix):
    """The base-3 value of a digit prefix, term by term: O(t^2) for t digits."""
    t = len(prefix)
    return sum(d * 3 ** (t - 1 - i) for i, d in enumerate(prefix))


def test_index_of_digits_inverts_digits_of_index():
    rng = random.Random(3)
    for k in [*range(8), 63, 64, 65, 129, 200, 1000]:
        for _ in range(20):
            ds = tuple(rng.randrange(3) for _ in range(k))
            assert _index_of_digits(ds) == _index_of_digits(bytes(ds)) == _digit_sum(ds)
            assert _digits_of_index(_index_of_digits(ds), k) == ds


def test_value_of_a_period_past_the_string_conversion_limit():
    # int(str, 3) refuses more than 4,300 digits
    rng = random.Random(5001)
    pre = bytes(rng.randrange(3) for _ in range(7))
    per = bytes(rng.randrange(3) for _ in range(5001))
    want = (_digit_sum(pre) + F(_digit_sum(per), 3 ** len(per) - 1)) / 3 ** len(pre)
    assert TernaryExpansion(pre, per).value() == want


@given(small_period_points)
@settings(max_examples=100)
def test_refutation_cells_match_the_digit_sum_formula(case):
    space, point = case
    assume(not membership(point, space))
    _, cells = limit_certificate(point, space)[1]
    combos = list(product(*(expansions(c) for c in point)))
    assert len(cells) == len(combos)
    for combo, c in zip(combos, cells):
        t = _reference_first_bad(combo, space)
        assert c.stage == t
        assert [lo for lo, _ in c.cell] == [F(_digit_sum([_digit(e, i) for i in range(1, t + 1)]), 3**t) for e in combo]
    k = max(c.stage for c in cells)
    _, cells = stage_certificate(point, k, space)[1]
    found = [(combo, t) for combo, t in _stage_scan([ternary_digits(c, k) for c in point], space)]
    assert [c.stage for c in cells] == [t for _, t in found]
    for (combo, t), c in zip(found, cells):
        assert [lo for lo, _ in c.cell] == [F(_digit_sum(p[:t]), 3**t) for p in combo]


# --- early accept: enough 1-free coordinates settle the point -----------------

_free_periodic = st.lists(st.sampled_from((0, 2)), min_size=1, max_size=8).map(_block_point)
# 0 and 1, triadics with two expansions, 1-free periodic points, points with
# 1s in their digits and denominators where 3 has order 5003 and 5004
_early_coordinate = st.one_of(
    st.sampled_from((F(0), F(1), F(1, 4), F(3, 4))),
    _triadic_point,
    _free_periodic,
    _small_point,
    st.sampled_from((10007, 10009)).flatmap(lambda d: st.integers(min_value=0, max_value=d).map(lambda a: F(a, d))),
)
early_points = st.sampled_from(SPACE_DIMS).flatmap(
    lambda sd: st.tuples(st.just(sd[0]), st.lists(_early_coordinate, min_size=sd[1], max_size=sd[1]).map(tuple))
)


@given(early_points)
@settings(max_examples=300)
def test_membership_is_the_witness_scan_in_every_space(case):
    space, point = case
    assert membership(point, space) == (satisfying_expansions(point, space) is not None)


@pytest.fixture
def periods_made(monkeypatch):
    """The denominators of every period that _period_digits computes."""
    made = []
    period_digits = ternary._period_digits

    def counted(start, d):
        made.append(d)
        return period_digits(start, d)

    monkeypatch.setattr(ternary, "_period_digits", counted)
    return made


def test_enough_one_free_coordinates_leave_the_rest_unexpanded(periods_made):
    big = F(1, 1000003)
    # 0 and 2/3 = 0.2000... are 1-free: two of three settle the sponge
    assert in_sponge(F(2, 3), F(0), big)
    # one 1-free coordinate settles the carpet face and carpet2, wherever it is
    assert in_carpet_face(big, F(3, 4))
    assert in_carpet2(big, big, F(2, 3))
    assert periods_made == [4]
    # 1/2 = 0.111... is not 1-free, so the sponge needs every coordinate
    point = (F(0), F(1, 2), F(1, 10007))
    assert in_sponge(*point) == (satisfying_expansions(point, "sponge") is not None)
    assert periods_made.count(10007) == 2


def _free_fixed(k):
    """Fixed coordinates with a stage-k cell whose digits hold no 1."""
    return st.one_of(
        st.sampled_from((F(0), F(1), F(1, 4), F(3, 4))),
        _free_periodic,
        st.lists(st.sampled_from((0, 2)), min_size=k, max_size=k + 1).map(
            lambda ds: F(_index_of_digits(ds), 3 ** len(ds))
        ),
    )


def _free_fixed_pair(k, space):
    """Two fixed coordinates, both with a 1-free cell for the sponge, one of
    them (either) for carpet2."""
    other = _free_fixed(k) if space == "sponge" else _segment_rationals(k)
    return st.tuples(_free_fixed(k), other).flatmap(lambda ab: st.sampled_from((ab, ab[::-1])))


free_fixed_segments = st.tuples(st.integers(min_value=0, max_value=7), st.sampled_from(("sponge", "carpet2"))).flatmap(
    lambda ks: st.tuples(
        st.just(ks[0]),
        st.integers(min_value=0, max_value=2),
        _free_fixed_pair(*ks),
        st.lists(_segment_rationals(ks[0]), min_size=2, max_size=2, unique=True).map(sorted),
        st.just(ks[1]),
    )
)


@given(free_fixed_segments)
def test_segment_with_enough_one_free_fixed_coordinates_matches_reference(case):
    k, axis, fixed, (lo, hi), space = case
    seg = AxisSegment(axis, fixed, lo, hi)
    assert _reference_segment_in_stage(seg, k, space)
    assert _walk(seg, k, space) and segment_in_stage(seg, k, space)


# --- point predicates on integers: one check and one split per coordinate ----

@pytest.mark.parametrize("query", [
    lambda p: membership(p, "nope"),
    lambda p: membership_stage(p, 2, "nope"),
    lambda p: stage_profile(p, 2, "nope"),
    lambda p: satisfying_expansions(p, "nope"),
    lambda p: stage_certificate(p, 2, "nope"),
    lambda p: limit_certificate(p, "nope"),
], ids=["membership", "membership_stage", "stage_profile", "satisfying_expansions", "stage_certificate",
        "limit_certificate"])
def test_unknown_space_is_a_value_error_naming_the_spaces(query):
    with pytest.raises(ValueError, match="unknown space 'nope'; expected one of cantor, carpet_face, sponge, carpet2"):
        query((F(0),))


def test_satisfying_expansions_checks_the_point_like_membership():
    with pytest.raises(ValueError, match="sponge expects 3 coordinates"):
        satisfying_expansions((F(0), F(0)), "sponge")
    with pytest.raises(ValueError, match=r"coordinate out of \[0,1\]"):
        satisfying_expansions((F(0), F(4, 3), F(0)), "sponge")
    with pytest.raises(ValueError, match=r"coordinate out of \[0,1\]"):
        membership((F(-1, 3),), "cantor")


@pytest.fixture
def point_work(monkeypatch):
    """Counts of the work a point predicate does: denominators split,
    TernaryExpansion objects made, ``expansions`` calls and stage scans."""
    work = {"split": [], "expansions_made": 0, "expansions_calls": 0, "scans": 0}
    split_three, post_init, stage_scan, expand = (
        ternary._split_three, TernaryExpansion.__post_init__, ternary._stage_scan, ternary.expansions,
    )

    def made(self):
        work["expansions_made"] += 1
        post_init(self)

    def called(x):
        work["expansions_calls"] += 1
        return expand(x)

    def scanned(options, space):
        work["scans"] += 1
        return stage_scan(options, space)

    monkeypatch.setattr(ternary, "_split_three", lambda den: work["split"].append(den) or split_three(den))
    monkeypatch.setattr(TernaryExpansion, "__post_init__", made)
    monkeypatch.setattr(ternary, "expansions", called)
    monkeypatch.setattr(ternary, "_stage_scan", scanned)
    return work


def test_dust_point_builds_no_expansion_and_splits_each_denominator_once(point_work, periods_made):
    # criterion 2: x, y with 12 digits 0 and 2 settle the sponge; z has a
    # period of 1,000,002 digits and is never expanded
    rng = random.Random(2)
    x, y = (F(sum(rng.choice((0, 2)) * 3**i for i in range(12)), 3**12) for _ in range(2))
    z = F(5, 1000003)
    assert in_sponge(x, y, z)
    assert sorted(point_work["split"]) == sorted([x.denominator, y.denominator, z.denominator])
    assert point_work["expansions_made"] == point_work["expansions_calls"] == 0
    assert periods_made == []


def test_a_triadic_head_is_one_free_unless_a_1_comes_before_its_last_digit(periods_made):
    # 1/3 = 0.1 = 0.0222... and 7/9 = 0.21 = 0.20222... are 1-free through
    # their other expansion: they settle the sponge, and 1/10007 is not expanded
    assert in_sponge(F(1, 3), F(7, 9), F(1, 10007))
    assert periods_made == []
    # 4/9 = 0.11 = 0.10222... holds a 1 either way, so 1/10007 is read
    point = (F(4, 9), F(0), F(1, 10007))
    assert in_sponge(*point) == (satisfying_expansions(point, "sponge") is not None)
    assert periods_made == [10007, 10007]


def test_a_point_the_shortcut_does_not_settle_is_expanded_once_into_objects(point_work, periods_made):
    # 1/2 = 0.111... and 1/5 = 0.(0121) in base 3: only 1/3 = 0.0222... is
    # 1-free, so the sponge scans the combos of 1/3's two expansions, 1/2's
    # and 1/5's, made from the digits the shortcut read
    point = (F(1, 3), F(1, 2), F(1, 5))
    assert in_sponge(*point) == (satisfying_expansions(point, "sponge") is not None)
    assert sorted(periods_made) == [2, 2, 5, 5]
    assert point_work["split"] == [3, 2, 5] * 2
    assert point_work["expansions_made"] == 2 * 4 and point_work["expansions_calls"] == 0


def test_stage_queries_with_enough_one_free_cells_run_no_scan(point_work):
    # 2/9 = 0.02 and 1/4 = 0.0202... have 1-free cells at every stage; 1/2 = 0.111... has none
    point = (F(2, 9), F(1, 2), F(1, 4))
    assert membership_stage(point, 6, "sponge") and stage_profile(point, 6, "sponge") == [True] * 7
    assert point_work["scans"] == 0
    assert not membership_stage((F(1, 2), F(1, 2), F(1, 4)), 6, "sponge")
    assert point_work["scans"] == 1
    # the witness is still the first combo of the scan, as tuples of digits
    assert stage_certificate(point, 3, "sponge")[0] == ((0, 2, 0), (1, 1, 1), (0, 2, 0))


def _one_free_cell_coordinate(k):
    """Coordinates with a stage-k cell whose digits hold no 1."""
    return st.one_of(
        st.sampled_from((F(0), F(1), F(1, 4), F(3, 4))),
        _free_periodic,
        st.lists(st.sampled_from((0, 2)), min_size=0, max_size=k + 1).map(
            lambda ds: F(_index_of_digits(ds), 3 ** len(ds))
        ),
    )


# (N + 1/4) / 3**L: the L digits of N, rich in 1s, then 0.(02), so its cells
# at stages up to L hold N's digits
_planted_coordinate = st.lists(st.sampled_from((0, 1, 1, 2)), min_size=1, max_size=6).map(
    lambda ds: (_index_of_digits(ds) + F(1, 4)) / 3 ** len(ds)
)
stage_points = st.tuples(st.sampled_from(SPACE_DIMS), st.integers(min_value=0, max_value=5)).flatmap(
    lambda sdk: st.tuples(
        st.just(sdk[0][0]),
        st.just(sdk[1]),
        st.lists(
            st.one_of(_one_free_cell_coordinate(sdk[1]), _planted_coordinate, _triadic_point, unit_fractions),
            min_size=sdk[0][1], max_size=sdk[0][1],
        ).map(tuple),
    )
)


@given(stage_points)
@settings(max_examples=300)
def test_stage_verdict_witness_and_oracle_agree_in_every_space(case):
    space, k, point = case
    verdict = subdivision_oracle(point, k, space)
    assert membership_stage(point, k, space) == (stage_certificate(point, k, space)[0] is not None) == verdict
    assert stage_profile(point, k, space) == oracle_profile(point, k, space)
    if not verdict:
        failed_stage, _ = stage_certificate(point, k, space)[1]
        assert failed_stage <= k


def _stage_corpus_coordinate(rng, k):
    kind = rng.randrange(4)
    if kind == 0:  # planted digits rich in 1s, then 0.(02)
        ds = [rng.choice((0, 1, 1, 2)) for _ in range(rng.randint(1, k + 1))]
        return (_index_of_digits(ds) + F(1, 4)) / 3 ** len(ds)
    if kind == 1:  # a 1-free stage-k cell
        return F(_index_of_digits([rng.choice((0, 2)) for _ in range(k)]), 3**k)
    if kind == 2:
        j = rng.randint(0, k)
        return F(rng.randint(0, 3**j), 3**j)
    return _random_unit_fraction(rng, 200)


def test_stage_corpus_reaches_the_early_accept_the_scan_and_non_members():
    # the early accept (enough 1-free cells), members found only by the
    # scan, and non-members, in every space where the rule allows each
    rng = random.Random(0x57A6E)
    seen = {space: set() for space, _ in SPACE_DIMS}
    for _ in range(200):
        for space, dim in SPACE_DIMS:
            k = rng.randint(1, 6)
            point = tuple(_stage_corpus_coordinate(rng, k) for _ in range(dim))
            verdict = subdivision_oracle(point, k, space)
            assert membership_stage(point, k, space) == (stage_certificate(point, k, space)[0] is not None) == verdict
            assert stage_profile(point, k, space) == oracle_profile(point, k, space)
            _, free = ternary._stage_options(point, k)
            seen[space].add("early" if free >= ternary._FREE_ENOUGH[space] else "scan" if verdict else "out")
    # one coordinate's cells hold a 1 exactly where the Cantor rule removes them
    assert seen.pop("cantor") == {"early", "out"}
    assert all(classes == {"early", "scan", "out"} for classes in seen.values())
