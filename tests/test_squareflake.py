from fractions import Fraction as F

import pytest

from spongeknots.invariants import is_simple
from spongeknots.squareflake import replaced_count, squareflake
from spongeknots.ternary import AxisSegment, segment_in_stage
from oracle import closed_polyline, segment_from_endpoints


def test_stage_zero_is_unit_square():
    s = squareflake(0)
    assert s.polyline.vertices == (
        (0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0),
    )
    assert s.replaced == ()


def test_stage_one_vertices():
    s = squareflake(1)
    vs = set(s.polyline.vertices)
    for v in [(1, F(1, 3), 0), (F(2, 3), F(1, 3), 0), (F(2, 3), F(2, 3), 0), (1, F(2, 3), 0)]:
        assert v in vs
    assert len(s.polyline) == 8


def test_stage_two_detours():
    s = squareflake(2)
    removed = {(seg.lo, seg.hi) for seg, _ in s.replaced}
    assert removed == {(F(1, 9), F(2, 9)), (F(7, 9), F(8, 9))}
    for _, path in s.replaced:
        assert all(p[0] in (F(8, 9), 1) for p in path)


def test_replaced_count():
    assert replaced_count(1) == 1
    assert replaced_count(2) == 2
    assert replaced_count(5) == 16
    with pytest.raises(ValueError):
        replaced_count(0)
    for m in range(1, 7):
        assert len(squareflake(m).replaced) == replaced_count(m)


def test_vertex_count_formula():
    for m in range(0, 9):
        assert len(squareflake(m).polyline) == 4 + 4 * (2**m - 1)


@pytest.mark.parametrize("m", range(0, 7))
def test_simple(m):
    assert is_simple(squareflake(m).polyline)


@pytest.mark.parametrize("m", range(0, 6))
def test_contained_in_stage_m(m):
    for a, b in squareflake(m).polyline.segments():
        assert segment_in_stage(segment_from_endpoints(a, b), m, "sponge")


def _segment_set(poly):
    return {frozenset((a, b)) for a, b in poly.segments()}


@pytest.mark.parametrize("m", range(1, 7))
def test_stability_outside_replaced_thirds(m):
    prev = squareflake(m - 1)
    cur = squareflake(m)
    old = _segment_set(prev.polyline)
    new = _segment_set(cur.polyline)
    # segments added at stage m: detour paths plus the two split end thirds
    touched = set()
    added = set()
    for seg, path in cur.replaced:
        (alo, ahi) = (seg.lo, seg.hi)
        third = ahi - alo
        lo, hi = alo - third, ahi + third
        touched.add(frozenset(((F(1), hi, F(0)), (F(1), lo, F(0)))))
        added.add(frozenset(((F(1), hi, F(0)), (F(1), ahi, F(0)))))
        added.add(frozenset(((F(1), alo, F(0)), (F(1), lo, F(0)))))
        for a, b in zip(path, path[1:]):
            added.add(frozenset((a, b)))
    assert old - touched == new - added
    assert touched <= old
    assert added <= new


ZERO, ONE = F(0), F(1)


def _reference_squareflake(m):
    """Stage by stage: find each surviving right-edge interval by rescanning
    the whole curve and insert its middle-third detour there."""
    verts = [(ZERO, ZERO, ZERO), (ZERO, ONE, ZERO), (ONE, ONE, ZERO), (ONE, ZERO, ZERO)]
    intervals = [(ZERO, ONE)]  # surviving right-edge intervals, as (lo, hi)
    replaced = ()
    for stage in range(1, m + 1):
        depth_x = F(3**stage - 1, 3**stage)
        targets = {}
        next_intervals = []
        for lo, hi in intervals:
            third = (hi - lo) / 3
            a, b = lo + third, hi - third  # removed middle third (a, b)
            targets[(hi, lo)] = (a, b)
            next_intervals.append((lo, a))
            next_intervals.append((b, hi))
        new_verts = []
        replaced = []
        n = len(verts)
        for i in range(n):
            v = verts[i]
            w = verts[(i + 1) % n]
            new_verts.append(v)
            if v[0] == ONE and w[0] == ONE and (v[1], w[1]) in targets:
                a, b = targets[(v[1], w[1])]
                # traversal on the edge runs downward: v[1] = hi, w[1] = lo
                detour = ((ONE, b, ZERO), (depth_x, b, ZERO), (depth_x, a, ZERO), (ONE, a, ZERO))
                new_verts.extend(detour)
                replaced.append((AxisSegment(1, (ONE, ZERO), a, b), detour))
        assert len(replaced) == len(targets), "missed a surviving edge segment"
        verts = new_verts
        intervals = next_intervals
        replaced = tuple(sorted(replaced, key=lambda r: r[0].lo))
    return closed_polyline(tuple(verts)), replaced


@pytest.mark.parametrize("m", range(0, 9))
def test_squareflake_matches_the_per_stage_rescan(m):
    s = squareflake(m)
    poly, replaced = _reference_squareflake(m)
    assert s.polyline.vertices == poly.vertices
    assert s.replaced == replaced
