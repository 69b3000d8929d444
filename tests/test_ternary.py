import random
from fractions import Fraction as F
from math import ceil, floor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spongeknots.oracle import oracle_profile, subdivision_oracle
from spongeknots.ternary import (
    AxisSegment,
    TernaryExpansion,
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
    membership,
    membership_stage,
    refutation,
    segment_in_stage,
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


def _expansion_prefixes(x, k):
    out = []
    for e in expansions(x):
        if e.prefix(k) not in out:
            out.append(e.prefix(k))
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
    failed_stage, cells = refutation(point, space)
    assert failed_stage == max(c.stage for c in cells)
    # in the stage before the deepest cell, outside from that stage on
    assert oracle_profile(point, failed_stage, space) == [True] * failed_stage + [False]
    for c in cells:
        assert all(lo <= x <= hi for x, (lo, hi) in zip(point, c.cell))
        assert all(hi - lo == F(1, 3**c.stage) for lo, hi in c.cell)
        center = tuple((lo + hi) / 2 for lo, hi in c.cell)
        assert oracle_profile(center, c.stage, space) == [True] * c.stage + [False]
