import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spongeknots.geometry import box_meet, seg_seg_2d, seg_seg_3d
from spongeknots.grid import catalog
from spongeknots.invariants import (
    NonGenericProjection,
    _build_diagram,
    _depth_at,
    _projection_maps,
    determinant,
    determinant_minor,
    diagram_from_grid,
    generic_directions,
    is_simple,
    project,
    project_generic,
    tricolorings,
)
from spongeknots.polyline import closed_polyline
from spongeknots.squareflake import squareflake
from spongeknots.wildknot import KnotAssignment, approximant


def square(z=0):
    return closed_polyline([(0, 0, z), (1, 0, z), (1, 1, z), (0, 1, z)])


def test_is_simple_square():
    assert is_simple(square())


def test_is_simple_rejects_planar_crossing():
    # bowtie: two segments cross transversally
    p = closed_polyline([(0, 0, 0), (1, 1, 0), (1, 0, 0), (0, 1, 0)])
    assert not is_simple(p)


def test_is_simple_rejects_backtrack_overlap():
    p = closed_polyline([(0, 0, 0), (2, 0, 0), (1, 0, 0), (1, 1, 0)])
    assert not is_simple(p)


def test_is_simple_rejects_revisited_vertex():
    # vertex (0,0,0) appears twice, non-consecutively
    p = closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 0), (-1, 1, 0), (-1, 0, 0)])
    assert not is_simple(p)


def test_is_simple_oblique():
    p = closed_polyline([(0, 0, 0), (1, 2, 3), (2, 0, 1), (1, -1, 2)])
    assert is_simple(p)


def test_project_planar_curve_has_no_crossings():
    d = project(square(), (0, 0, 1))
    assert d.crossing_count == 0
    assert determinant(d) == 1
    assert tricolorings(d) == 3


def test_project_direction_parallel_to_plane_collapses():
    # direction lies in the square's plane: several segments collapse or overlap
    with pytest.raises(NonGenericProjection):
        project(square(), (1, 0, 0))


def test_project_collapses_depth_connectors():
    # a 3D rectangle seen along x: two segments collapse, leaving a 2-gon -> error
    p = closed_polyline([(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)])
    with pytest.raises(NonGenericProjection):
        project(p, (1, 0, 0))


def test_depth_tie_detected():
    # flat figure-X at one depth cannot be projected along z (true intersection)
    p = closed_polyline([(0, 0, 0), (1, 1, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(NonGenericProjection):
        project(p, (0, 0, 1))


def trefoil_diagram():
    return diagram_from_grid(catalog("trefoil"))


def test_determinant_both_routes_agree():
    for name, det in [("unknot", 1), ("trefoil", 3), ("figure-eight", 5)]:
        d = diagram_from_grid(catalog(name))
        assert determinant(d) == det
        assert determinant(d, color_class=1) == det
        assert determinant_minor(d) == det


def test_tricoloring_counts():
    assert tricolorings(diagram_from_grid(catalog("unknot"))) == 3
    assert tricolorings(trefoil_diagram()) == 9
    assert tricolorings(diagram_from_grid(catalog("figure-eight"))) == 3


def test_tricolorings_power_of_three():
    for name in ("unknot", "trefoil", "figure-eight"):
        t = tricolorings(diagram_from_grid(catalog(name)))
        assert t >= 3
        while t % 3 == 0:
            t //= 3
        assert t == 1


def test_project_generic_finds_direction_for_oblique_curve():
    p = closed_polyline([(0, 0, 0), (1, 2, 3), (2, 0, 1), (1, -1, 2)])
    d, direction = project_generic(p)
    assert determinant(d) == determinant_minor(d)


# ---------------------------------------------------------------------------
# pair meets: integer boxes and the exact Fraction routines agree
# ---------------------------------------------------------------------------

@st.composite
def _axis_segment(draw, dim):
    """Integer endpoints of an axis-parallel segment on the grid 0..4."""
    a = draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim))
    axis = draw(st.integers(0, dim - 1))
    end = draw(st.integers(0, 4).filter(lambda c: c != a[axis]))
    b = list(a)
    b[axis] = end
    return tuple(a), tuple(b)


def _box(a, b):
    return tuple(map(min, a, b)), tuple(map(max, a, b))


def _ninths(p):
    return tuple(F(c, 9) for c in p)


def _box_meet_agrees(s1, s2):
    dim = len(s1[0])
    seg_seg = seg_seg_3d if dim == 3 else seg_seg_2d
    want = seg_seg(*map(_ninths, s1), *map(_ninths, s2))
    hit = box_meet(_box(*s1), _box(*s2))
    if hit is None:
        assert want is None
        return None
    lo, hi = map(_ninths, hit)
    if lo == hi:
        assert want == ("point", lo)
    else:
        assert want is not None and want[0] == "overlap" and set(want[1]) == {lo, hi}
    return want[0]


@settings(max_examples=400)
@given(_axis_segment(2), _axis_segment(2))
def test_box_meet_matches_seg_seg_2d(s1, s2):
    _box_meet_agrees(s1, s2)


@settings(max_examples=400)
@given(_axis_segment(3), _axis_segment(3))
def test_box_meet_matches_seg_seg_3d(s1, s2):
    _box_meet_agrees(s1, s2)


@pytest.mark.parametrize("s1,s2,kind", [
    (((0, 0), (2, 0)), ((2, 0), (2, 3)), "point"),  # shared endpoint
    (((0, 0), (3, 0)), ((1, 0), (4, 0)), "overlap"),  # collinear overlap
    (((0, 1), (3, 1)), ((2, 1), (2, 4)), "point"),  # T-junction
    (((0, 1), (3, 1)), ((2, 0), (2, 4)), "point"),  # crossing
    (((0, 0), (3, 0)), ((0, 1), (3, 1)), None),  # parallel, apart
    (((0, 0, 1), (2, 0, 1)), ((2, 0, 1), (2, 0, 4)), "point"),  # shared endpoint
    (((0, 2, 2), (3, 2, 2)), ((1, 2, 2), (4, 2, 2)), "overlap"),  # collinear overlap
    (((0, 1, 1), (3, 1, 1)), ((2, 1, 1), (2, 4, 1)), "point"),  # T-junction
    (((0, 1, 1), (3, 1, 1)), ((2, 0, 1), (2, 4, 1)), "point"),  # crossing
    (((0, 1, 1), (3, 1, 1)), ((2, 0, 2), (2, 4, 2)), None),  # skew
])
def test_box_meet_on_each_kind_of_meet(s1, s2, kind):
    assert _box_meet_agrees(s1, s2) == kind


# The O(n^2) Fraction code that is_simple and project ran before they
# shared _meets, kept as the oracle: every pair goes through seg_seg_*.

def _reference_is_simple(p):
    verts = p.vertices
    n = len(verts)
    segs = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            r = seg_seg_3d(*segs[i], *segs[j])
            if r is None:
                continue
            if r[0] == "overlap":
                return False
            if not ((j == i + 1) or (i == 0 and j == n - 1)):
                return False
            if r[1] != (verts[j] if j == i + 1 else verts[0]):
                return False
    return True


def _reference_project(p, direction):
    proj, depth = _projection_maps(direction)
    verts = p.vertices
    n = len(verts)
    images = [proj(v) for v in verts]
    walk, seg_of = [], []
    for i in range(n):
        if images[i] != images[(i + 1) % n]:
            walk.append(images[i])
            seg_of.append(i)
    reduced, red_seg = [], []
    for q in range(len(walk)):
        if not (reduced and walk[q] == reduced[-1]):
            reduced.append(walk[q])
            red_seg.append(seg_of[q])
    if len(reduced) >= 2 and reduced[0] == reduced[-1]:
        reduced.pop()
        red_seg.pop()
    m = len(reduced)
    if m < 3:
        raise NonGenericProjection("projection collapses the curve")
    events = []
    for i in range(m):
        a_i, b_i = reduced[i], reduced[(i + 1) % m]
        for j in range(i + 1, m):
            a_j, b_j = reduced[j], reduced[(j + 1) % m]
            r = seg_seg_2d(a_i, b_i, a_j, b_j)
            if r is None:
                continue
            if r[0] == "overlap":
                raise NonGenericProjection(f"collinear overlap of segments {i} and {j}")
            x = r[1]
            if (j == i + 1) or (i == 0 and j == m - 1):
                continue
            if x in (a_i, b_i, a_j, b_j):
                raise NonGenericProjection(f"segments {i} and {j} touch at an endpoint")
            di = _depth_at(p, red_seg[i], proj, depth, x)
            dj = _depth_at(p, red_seg[j], proj, depth, x)
            if di == dj:
                raise NonGenericProjection(f"depth tie between segments {i} and {j}")
            events.append((i, j, x, di < dj))
    seen = set()
    for (_, _, x, _) in events:
        if x in seen:
            raise NonGenericProjection(f"triple point at {x}")
        seen.add(x)
    return _build_diagram(tuple(reduced), tuple(events), "projection")


def _outcome(f, *args):
    try:
        return f(*args)
    except NonGenericProjection as e:
        return ("NonGenericProjection", str(e))


# the depth axis, and the first sheared directions project_generic tries
VIEWS = [d for d, _ in zip(generic_directions(), range(4))]


def _assert_matches_reference(poly):
    assert is_simple(poly) == _reference_is_simple(poly)
    for direction in VIEWS:
        assert _outcome(project, poly, direction) == _outcome(_reference_project, poly, direction)


def _random_walk(rng, steps, oblique):
    """Closed lattice walk in {0..3}^3 / 3; ``oblique`` allows diagonal steps."""
    v = (0, 0, 0)
    pts = [v]
    for _ in range(steps):
        if oblique and rng.random() < 0.3:
            w = tuple(rng.randint(0, 3) for _ in range(3))
        else:
            ax = rng.randrange(3)
            w = tuple(rng.randint(0, 3) if k == ax else c for k, c in enumerate(v))
        if w != v:
            pts.append(w)
            v = w
    for ax in range(3):  # return to the start along the axes
        w = tuple(0 if k <= ax else c for k, c in enumerate(v))
        if w != v:
            pts.append(w)
            v = w
    pts.pop()  # the walk is back at (0, 0, 0)
    return pts


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.booleans())
def test_is_simple_and_project_match_reference_on_random_walks(seed, steps, oblique):
    pts = _random_walk(random.Random(seed), steps, oblique)
    assume(len(pts) >= 3)
    _assert_matches_reference(closed_polyline([tuple(F(c, 3) for c in p) for p in pts]))


def test_reference_corpus_is_not_trivial():
    # the random walks reach simple and non-simple curves, diagrams and
    # every genericity failure
    rng = random.Random(7)
    simple, outcomes = set(), set()
    for _ in range(300):
        pts = _random_walk(rng, rng.randint(2, 14), rng.random() < 0.5)
        if len(pts) < 3:
            continue
        poly = closed_polyline([tuple(F(c, 3) for c in p) for p in pts])
        simple.add(is_simple(poly))
        for direction in VIEWS[:2]:
            r = _outcome(project, poly, direction)
            outcomes.add(r[1].split(" ")[0] if isinstance(r, tuple) else "diagram")
    assert simple == {True, False}
    assert {"diagram", "collinear", "segments", "depth", "projection"} <= outcomes


@pytest.mark.parametrize("m", range(5))
def test_is_simple_and_project_match_reference_on_squareflakes(m):
    _assert_matches_reference(squareflake(m).polyline)


@pytest.mark.parametrize("m", [1, 2])
def test_is_simple_and_project_match_reference_on_uniform_approximants(m):
    a = approximant(KnotAssignment.uniform("trefoil", m), m)
    assert is_simple(a.polyline) == _reference_is_simple(a.polyline)
    for direction in VIEWS[:2]:
        assert _outcome(project, a.polyline, direction) == _outcome(_reference_project, a.polyline, direction)


def test_is_simple_and_project_match_reference_on_oblique_curves():
    for poly in (
        closed_polyline([(0, 0, 0), (1, 2, 3), (2, 0, 1), (1, -1, 2)]),
        closed_polyline([(0, 0, 0), (1, 1, 0), (1, 0, 0), (0, 1, 0)]),
        closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (F(1, 2), F(1, 2), 1), (0, 1, 0)]),
    ):
        _assert_matches_reference(poly)
