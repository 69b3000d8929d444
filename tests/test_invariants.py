import random
from fractions import Fraction as F
from functools import cmp_to_key
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spongeknots import invariants
from spongeknots.geometry import add3, box_meet, cross2, dot3, norm_sq3, running_axis, scale3, sub2, sub3
from spongeknots.grid import catalog, catalog_names
from spongeknots.invariants import (
    NonGenericProjection,
    _checkerboard,
    _meet,
    _meets,
    determinant,
    diagram_from_grid,
    generic_directions,
    is_simple,
    project,
    project_generic,
    tricolorings,
)
from spongeknots.squareflake import squareflake
from spongeknots.wildknot import KnotAssignment, approximant, wild_set_plan
from oracle import closed_polyline, determinant_minor


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


def generic_views(poly):
    """(diagram, direction) of each generic projection of poly, in the
    order of ``generic_directions``: the first is project_generic's."""
    for direction in generic_directions():
        d = _outcome(project, poly, direction)
        if not isinstance(d, tuple):
            yield d, direction


# ---------------------------------------------------------------------------
# the exact Fraction intersection routines, kept as the reference that the
# integer meets are checked against
# ---------------------------------------------------------------------------

def cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot2(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _interval_overlap(a_lo, a_hi, b_lo, b_hi):
    """Overlap of two closed 1D intervals, or None."""
    lo = max(a_lo, b_lo)
    hi = min(a_hi, b_hi)
    if lo > hi:
        return None
    return (lo, hi)


def seg_seg_3d(a, b, c, d):
    """Exact intersection of closed 3D segments [a,b] and [c,d] of Fraction
    points: None, ("point", p), or ("overlap", (p, q)) with p != q."""
    u = sub3(b, a)
    v = sub3(d, c)
    if u == (0, 0, 0) or v == (0, 0, 0):
        raise ValueError("degenerate segment")
    w = sub3(c, a)
    uxv = cross3(u, v)
    if uxv == (0, 0, 0):
        # parallel; collinear iff w parallel to u as well
        if cross3(w, u) != (0, 0, 0):
            return None
        # project both segments to the parameter line of [a,b]
        uu = norm_sq3(u)
        t_c = dot3(w, u) / uu
        t_d = dot3(sub3(d, a), u) / uu
        ov = _interval_overlap(F(0), F(1), min(t_c, t_d), max(t_c, t_d))
        if ov is None:
            return None
        p = add3(a, scale3(u, ov[0]))
        q = add3(a, scale3(u, ov[1]))
        if p == q:
            return ("point", p)
        return ("overlap", (p, q))
    # skew or intersecting lines: intersect iff coplanar
    if dot3(w, uxv) != 0:
        return None
    denom = norm_sq3(uxv)
    s = dot3(cross3(w, v), uxv) / denom
    t = dot3(cross3(w, u), uxv) / denom
    if 0 <= s <= 1 and 0 <= t <= 1:
        return ("point", add3(a, scale3(u, s)))
    return None


def seg_seg_2d(a, b, c, d):
    """Exact intersection of closed 2D segments; same result shape as seg_seg_3d."""
    u = sub2(b, a)
    v = sub2(d, c)
    if u == (0, 0) or v == (0, 0):
        raise ValueError("degenerate segment")
    w = sub2(c, a)
    denom = cross2(u, v)
    if denom == 0:
        if cross2(w, u) != 0:
            return None
        uu = dot2(u, u)
        t_c = dot2(w, u) / uu
        t_d = dot2(sub2(d, a), u) / uu
        ov = _interval_overlap(F(0), F(1), min(t_c, t_d), max(t_c, t_d))
        if ov is None:
            return None
        p = (a[0] + u[0] * ov[0], a[1] + u[1] * ov[0])
        q = (a[0] + u[0] * ov[1], a[1] + u[1] * ov[1])
        if p == q:
            return ("point", p)
        return ("overlap", (p, q))
    s = cross2(w, v) / denom
    t = cross2(w, u) / denom
    if 0 <= s <= 1 and 0 <= t <= 1:
        return ("point", (a[0] + u[0] * s, a[1] + u[1] * s))
    return None


def _segment_param(a, b, x):
    """How far the point x of the segment [a, b] lies along it, a Fraction."""
    k = next(k for k in range(len(a)) if a[k] != b[k])
    return F(x[k] - a[k]) / (b[k] - a[k])


def _fraction_walk(d):
    """A diagram's walk in its view coordinates, as Fractions."""
    return tuple((F(x, d.unit), F(y, d.unit)) for x, y in d.walk)


def _point_at(a, b, s):
    """The point s along the segment [a, b]."""
    return tuple(p + (q - p) * s for p, q in zip(a, b))


def _fraction_events(d):
    """A diagram's crossings as (i, j, point, over_is_i), each point a
    Fraction pair s / den along walk segment i."""
    walk, m = _fraction_walk(d), len(d.walk)
    return tuple((i, j, _point_at(walk[i], walk[(i + 1) % m], F(s, den)), over) for i, j, den, s, _, over in d.events)


def crossing_points(d):
    """Each crossing's point in the diagram's view coordinates."""
    return [x for _, _, x, _ in _fraction_events(d)]


# ---------------------------------------------------------------------------
# one pair meet on integers against the Fraction routines
# ---------------------------------------------------------------------------

def _assert_meet_matches_reference(a, b, c, d):
    seg_seg = seg_seg_3d if len(a) == 3 else seg_seg_2d
    want = seg_seg(*(tuple(map(F, v)) for v in (a, b, c, d)))
    got = _meet(a, b, c, d)
    if want is None or want[0] == "overlap":
        assert got == (want[0] if want else None)
        return
    den, s, t = got
    assert den > 0 and 0 <= s <= den and 0 <= t <= den
    assert _point_at(a, b, F(s, den)) == _point_at(c, d, F(t, den)) == want[1]


def _segment_pair(randint, dim):
    """Endpoints a, b, c, d of two integer segments in ``dim`` dimensions,
    as ``randint(lo, hi)`` picks them: on the grid 0..3, or one time in
    three with [c, d] on the line of [a, b].  Either may be degenerate."""
    a, b, c, d = (tuple(randint(0, 3) for _ in range(dim)) for _ in range(4))
    if randint(0, 2) == 0:
        u = tuple(q - p for p, q in zip(a, b))
        g = gcd(*u) or 1
        k, length = randint(-2, 3), randint(-2, 2)
        c = tuple(p + k * x // g for p, x in zip(a, u))
        d = tuple(p + length * x // g for p, x in zip(c, u))
    return a, b, c, d


@settings(max_examples=500)
@given(st.data(), st.sampled_from([2, 3]))
def test_meet_matches_reference(data, dim):
    a, b, c, d = _segment_pair(lambda lo, hi: data.draw(st.integers(lo, hi)), dim)
    assume(a != b and c != d)
    _assert_meet_matches_reference(a, b, c, d)


def _meet_kind(a, b, c, d):
    """The kind of meet of two Fraction segments, read off the reference."""
    u, v, w = sub3(b, a), sub3(d, c), sub3(c, a)
    meet = seg_seg_3d(a, b, c, d)
    parallel = cross3(u, v) == (0, 0, 0)
    if meet is None:
        if parallel:
            return "parallel apart" if cross3(w, u) != (0, 0, 0) else "collinear apart"
        return "skew" if dot3(w, cross3(u, v)) else "coplanar apart"
    if meet[0] == "overlap":
        return "collinear overlap"
    if parallel:
        return "collinear point"
    return "touch" if meet[1] in (a, b, c, d) else "crossing"


def test_meet_corpus_reaches_every_kind():
    # segment pairs drawn as the hypothesis test draws them meet in every
    # way _meet tells apart
    rng = random.Random(18)
    kinds = {2: set(), 3: set()}
    for _ in range(3000):
        dim = rng.choice([2, 3])
        a, b, c, d = _segment_pair(rng.randint, dim)
        if a == b or c == d:
            continue
        _assert_meet_matches_reference(a, b, c, d)
        kinds[dim].add(_meet_kind(*(tuple(map(F, v + (0,) * (3 - dim))) for v in (a, b, c, d))))
    every = {"parallel apart", "collinear apart", "coplanar apart", "collinear overlap", "collinear point",
             "touch", "crossing"}
    assert kinds[2] == every
    assert kinds[3] == every | {"skew"}


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
# shared _meets, kept as the oracle: every pair goes through seg_seg_*,
# and the view is taken in Fractions.

def _projection_maps(direction):
    d = tuple(F(c) for c in direction)
    if d == (0, 0, 0):
        raise ValueError("direction must be nonzero")
    for ax in (2, 1, 0):
        if d[ax] != 0:
            break
    keep = [i for i in range(3) if i != ax]

    def proj(v):
        t = v[ax] / d[ax]
        return (v[keep[0]] - t * d[keep[0]], v[keep[1]] - t * d[keep[1]])

    def depth(v):
        return v[ax] / d[ax]

    return proj, depth


def _depth_at(p, orig_seg, proj, depth, x):
    a = p.vertices[orig_seg]
    b = p.vertices[(orig_seg + 1) % len(p.vertices)]
    t = _segment_param(proj(a), proj(b), x)
    return depth(a) + t * (depth(b) - depth(a))


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
    walk, events = tuple(reduced), tuple(events)
    return walk, events, _reference_arcs(walk, events)


def _drawn(d):
    """A diagram as _reference_project draws it: its walk and crossings in
    Fractions, and its arcs."""
    walk, events = _fraction_walk(d), _fraction_events(d)
    return walk, events, (d.n_arcs, [(c.over_arc, c.under_in, c.under_out, e[2]) for c, e in zip(d.crossings, events)])


def _outcome(f, *args):
    try:
        return f(*args)
    except NonGenericProjection as e:
        return ("NonGenericProjection", str(e))


def _drawn_projection(poly, direction):
    return _drawn(project(poly, direction))


# the depth axis, and the first sheared directions project_generic tries;
# then views along x and y, with a negative depth component, and with
# Fraction components, so the image's sign follows the depth component's
VIEWS = [d for d, _ in zip(generic_directions(), range(4))] + [
    (1, 0, 0), (0, -1, 0), (-3, 2, -6), (F(1, 2), F(-1, 3), F(5, 7)),
]


def _assert_matches_reference(poly):
    assert is_simple(poly) == _reference_is_simple(poly)
    for direction in VIEWS:
        assert _outcome(_drawn_projection, poly, direction) == _outcome(_reference_project, poly, direction)


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
    # every genericity failure, and every view gives diagrams with crossings
    rng = random.Random(7)
    simple, outcomes, crossed = set(), set(), set()
    for _ in range(300):
        pts = _random_walk(rng, rng.randint(2, 14), rng.random() < 0.5)
        if len(pts) < 3:
            continue
        poly = closed_polyline([tuple(F(c, 3) for c in p) for p in pts])
        simple.add(is_simple(poly))
        for direction in VIEWS:
            r = _outcome(project, poly, direction)
            if direction in VIEWS[:2]:
                outcomes.add(r[1].split(" ")[0] if isinstance(r, tuple) else "diagram")
            if not isinstance(r, tuple) and r.crossing_count:
                crossed.add(direction)
    assert simple == {True, False}
    assert {"diagram", "collinear", "segments", "depth", "projection"} <= outcomes
    assert crossed == set(VIEWS)


@pytest.mark.parametrize("m", range(5))
def test_is_simple_and_project_match_reference_on_squareflakes(m):
    _assert_matches_reference(squareflake(m).polyline)


@pytest.mark.parametrize("m", [1, 2])
def test_is_simple_and_project_match_reference_on_uniform_approximants(m):
    a = approximant(KnotAssignment.uniform("trefoil", m), m)
    assert is_simple(a.polyline) == _reference_is_simple(a.polyline)
    for direction in VIEWS[:2]:
        assert _outcome(_drawn_projection, a.polyline, direction) == _outcome(
            _reference_project, a.polyline, direction
        )


def test_is_simple_and_project_match_reference_on_oblique_curves():
    for poly in (
        closed_polyline([(0, 0, 0), (1, 2, 3), (2, 0, 1), (1, -1, 2)]),
        closed_polyline([(0, 0, 0), (1, 1, 0), (1, 0, 0), (0, 1, 0)]),
        closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (F(1, 2), F(1, 2), 1), (0, 1, 0)]),
    ):
        _assert_matches_reference(poly)


# ---------------------------------------------------------------------------
# arc numbering against the passage loop it replaced
# ---------------------------------------------------------------------------

def _reference_arcs(walk, events):
    """(n_arcs, [(over_arc, under_in, under_out, point)]) from the loop
    _build_diagram ran before it counted under passages: passages in curve
    order, then each run between two unders labelled one at a time."""
    m = len(walk)
    if not events:
        return 1, []
    per_seg = [[] for _ in range(m)]
    for cid, (i, j, x, over_is_i) in enumerate(events):
        a_i, b_i = walk[i], walk[(i + 1) % m]
        a_j, b_j = walk[j], walk[(j + 1) % m]
        per_seg[i].append((_segment_param(a_i, b_i, x), cid, over_is_i))
        per_seg[j].append((_segment_param(a_j, b_j, x), cid, not over_is_i))
    passages = []
    for i in range(m):
        for t, cid, over in sorted(per_seg[i], key=lambda e: e[0]):
            passages.append((cid, over))
    n_pass = len(passages)
    unders = [q for q, (cid, over) in enumerate(passages) if not over]
    n_arcs = len(unders)
    arc_at = [None] * n_pass
    for r in range(n_arcs):
        start = unders[r]
        end = unders[(r + 1) % n_arcs]
        q = (start + 1) % n_pass
        while True:
            arc_at[q] = (r + 1) % n_arcs
            if q == end:
                break
            q = (q + 1) % n_pass
    over_arc, under_in, under_out = {}, {}, {}
    for q, (cid, over) in enumerate(passages):
        if over:
            over_arc[cid] = arc_at[q]
        else:
            under_in[cid] = arc_at[q]
            under_out[cid] = (arc_at[q] + 1) % n_arcs
    return n_arcs, [(over_arc[c], under_in[c], under_out[c], x) for c, (_, _, x, _) in enumerate(events)]


def _assert_arcs_match(d):
    walk, events, arcs = _drawn(d)
    assert arcs == _reference_arcs(walk, events)


def test_arcs_match_reference_on_catalog_grids_and_mirrors():
    for name in catalog_names():
        for g in (catalog(name), catalog(name).mirrored()):
            _assert_arcs_match(diagram_from_grid(g))


def _corpus_diagrams():
    """Diagrams of the random walks of test_reference_corpus_is_not_trivial,
    along every view."""
    rng = random.Random(7)
    for _ in range(300):
        pts = _random_walk(rng, rng.randint(2, 14), rng.random() < 0.5)
        if len(pts) < 3:
            continue
        poly = closed_polyline([tuple(F(c, 3) for c in p) for p in pts])
        for direction in VIEWS:
            d = _outcome(project, poly, direction)
            if not isinstance(d, tuple):
                yield d


def test_arcs_match_reference_on_reference_corpus():
    diagrams = 0
    for d in _corpus_diagrams():
        _assert_arcs_match(d)
        diagrams += d.crossing_count > 0
    assert diagrams > 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_arcs_match_reference_on_uniform_approximants(m):
    d, _ = project_generic(approximant(KnotAssignment.uniform("trefoil", m), m).polyline)
    _assert_arcs_match(d)


# ---------------------------------------------------------------------------
# the orthogonal sweep in _meets against the all-pairs loop it replaced
# ---------------------------------------------------------------------------

def _reference_meets(walk, boxed=False):
    """The O(n^2) loop _meets ran before the sweep: every pair of segments,
    axis-parallel pairs as integer boxes, every other pair through seg_seg_*.
    Each meet is given as _meets gives it, its point as the Fraction
    parameters (s, t) along the two segments, and neighbours that meet at
    their shared vertex are dropped.  With ``boxed``, pairs whose bounding
    boxes do not meet are skipped first, as the loop before the oblique
    sweep did: the same hits, sooner."""
    n = len(walk)
    scale = lcm(*(c.denominator for v in walk for c in v))
    ints = [tuple(c.numerator * (scale // c.denominator) for c in v) for v in walk]
    boxes = [
        (tuple(map(min, a, b)), tuple(map(max, a, b)))
        if sum(s != t for s, t in zip(a, b)) == 1 else None
        for a, b in zip(ints, ints[1:] + ints[:1])
    ]
    seg_seg = seg_seg_3d if len(walk[0]) == 3 else seg_seg_2d
    for i in range(n):
        box_i = boxes[i]
        for j in range(i + 1, n):
            box_j = boxes[j]
            if box_i is None or box_j is None:
                if boxed and not _bounding_boxes_meet(walk, i, j):
                    continue
                meet = seg_seg(walk[i], walk[(i + 1) % n], walk[j], walk[(j + 1) % n])
            else:
                hit = box_meet(box_i, box_j)
                if hit is None:
                    continue
                lo, hi = (tuple(F(c, scale) for c in corner) for corner in hit)
                meet = ("point", lo) if hit[0] == hit[1] else ("overlap", (lo, hi))
            if meet is None:
                continue
            if meet[0] == "overlap":
                yield i, j, "overlap"
                continue
            x = meet[1]
            if (j == i + 1 and x == walk[j]) or (i == 0 and j == n - 1 and x == walk[0]):
                continue
            yield i, j, tuple(_segment_param(walk[k], walk[(k + 1) % n], x) for k in (i, j))


def _scaled(walk):
    """The walk times the lcm of its denominators, as ints: what _meets takes."""
    scale = lcm(*(F(c).denominator for v in walk for c in v))
    return [tuple(int(F(c) * scale) for c in v) for v in walk]


def _with_params(meets):
    """_meets' output, each point meet (den, s, t) as (s / den, t / den)."""
    return [(i, j, meet if meet == "overlap" else (F(meet[1], meet[0]), F(meet[2], meet[0]))) for i, j, meet in meets]


def _assert_meets_match(walk):
    # both on the scaled walk, the reference's as Fractions: the same pairs
    # in the same order, meeting in the same points
    ints = _scaled(walk)
    assert _with_params(_meets(ints)) == list(_reference_meets([tuple(map(F, v)) for v in ints]))


def _lattice_walk(rng, dim, steps, oblique=0):
    """Closed walk on the grid {0..3}^dim / 3 with ``steps`` axis steps and
    ``oblique`` diagonal jumps.  The grid is small, so segments overlap,
    touch and cross often, and many sweep events share a coordinate."""
    jumps = set(rng.sample(range(steps + oblique), oblique))
    v = (0,) * dim
    pts = [v]
    for step in range(steps + oblique):
        if step in jumps:
            axes = rng.sample(range(dim), rng.randint(2, dim))
        else:
            axes = [rng.randrange(dim)]
        w = tuple((c + rng.randint(1, 3)) % 4 if k in axes else c for k, c in enumerate(v))
        pts.append(w)
        v = w
    for ax in range(dim):  # back to the start along the axes
        w = tuple(0 if k <= ax else c for k, c in enumerate(v))
        if w != v:
            pts.append(w)
            v = w
    pts.pop()  # the walk is back at the origin
    return [tuple(F(c, 3) for c in p) for p in pts]


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3]), st.integers(2, 30), st.integers(0, 2))
def test_meets_matches_reference_on_lattice_walks(rng, dim, steps, oblique):
    walk = _lattice_walk(rng, dim, steps, oblique)
    assume(len(walk) >= 3)
    _assert_meets_match(walk)


def _hit_kind(meet):
    if meet == "overlap":
        return "overlap"
    den, s, t = meet
    return {2: "endpoint", 1: "T-junction", 0: "crossing"}[(s in (0, den)) + (t in (0, den))]


def test_lattice_walk_corpus_reaches_every_kind_of_hit():
    rng = random.Random(11)
    kinds = {2: set(), 3: set()}
    oblique_hits = 0
    for _ in range(200):
        dim = rng.choice([2, 3])
        walk = _lattice_walk(rng, dim, rng.randint(2, 30), rng.randint(0, 2))
        if len(walk) < 3:
            continue
        walk, n = _scaled(walk), len(walk)
        for i, j, meet in _meets(walk):
            if all(sum(s != t for s, t in zip(walk[k], walk[(k + 1) % n])) == 1 for k in (i, j)):
                kinds[dim].add(_hit_kind(meet))
            else:
                oblique_hits += 1
    assert kinds[2] == kinds[3] == {"overlap", "endpoint", "T-junction", "crossing"}
    assert oblique_hits > 0


# sweep-event ties on the line x = 1 (x = 1 / 3 before scaling): horizontal
# segments end and start there while vertical ones sit there, and the walk
# meets itself on that line away from its own corners
TIES = [
    # one horizontal ends and three start at x = 1; two verticals overlap there
    [(0, 0), (1, 0), (1, 2), (2, 2), (2, 3), (1, 3), (1, 1), (3, 1), (3, 4), (0, 4)],
    # the walk passes (1, 1) twice: two horizontals end or start there, two verticals end there
    [(0, 1), (1, 1), (1, 0), (3, 0), (3, 2), (1, 2), (1, 1), (2, 1), (2, 3), (0, 3)],
    # the first walk in the plane z = 1, closed through z = 0
    [(0, 0, 1), (1, 0, 1), (1, 2, 1), (2, 2, 1), (2, 3, 1), (1, 3, 1), (1, 1, 1), (3, 1, 1), (3, 1, 0),
     (0, 1, 0), (0, 0, 0)],
]


@pytest.mark.parametrize("walk", TIES, ids=["starts-and-ends", "revisited-corner", "3d-plane"])
def test_meets_matches_reference_at_sweep_ties(walk):
    _assert_meets_match([tuple(F(c, 3) for c in p) for p in walk])
    # a point meet of non-neighbours on the line x = 1
    assert any(
        meet != "overlap" and _point_at(walk[i], walk[(i + 1) % len(walk)], F(meet[1], meet[0]))[0] == 1
        for i, j, meet in _meets(walk)
    )


@pytest.mark.parametrize("walk", [
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (F(1, 2), F(1, 2), 1), (0, 1, 0)],
    [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 0, 0), (0, 2, 0)],
    [(0, 0), (2, 0), (0, 2), (2, 2), (1, 0), (1, 3), (0, 3)],
    [(0, 0, 0), (1, 2, 3), (2, 0, 1), (1, -1, 2)],
], ids=["one-oblique", "oblique-through-vertex", "two-oblique-crossing", "all-oblique"])
def test_meets_matches_reference_with_oblique_segments(walk):
    _assert_meets_match([tuple(F(c) for c in p) for p in walk])


def _view(p, direction=(0, 0, 1)):
    """The reduced planar walk ``project`` sends to _meets along ``direction``."""
    proj, _ = _projection_maps(direction)
    walk = []
    for v in p.vertices:
        w = proj(v)
        if not walk or w != walk[-1]:
            walk.append(w)
    if walk[0] == walk[-1]:
        walk.pop()
    return walk


CONSTRUCTIONS = {
    "squareflake": squareflake,
    "uniform": lambda m: approximant(KnotAssignment.uniform("trefoil", m), m),
    "wild-plan": lambda m: approximant(wild_set_plan([F(0), F(1)], "trefoil", m), m),
}


@pytest.mark.parametrize("kind,m", [
    *(("squareflake", m) for m in range(1, 7)),
    *(("uniform", m) for m in range(1, 4)),
    *(("wild-plan", m) for m in range(1, 5)),
])
def test_meets_matches_reference_on_constructions(kind, m):
    poly = CONSTRUCTIONS[kind](m).polyline
    _assert_meets_match(poly.vertices)
    _assert_meets_match(_view(poly))


def _counting(monkeypatch, name):
    """A list that grows by one item per call of ``invariants.<name>`` while
    the patch holds, each call's result."""
    calls, f = [], getattr(invariants, name)

    def counted(*args):
        calls.append(f(*args))
        return calls[-1]

    monkeypatch.setattr(invariants, name, counted)
    return calls


def _axis_parallel(walk, k):
    return running_axis(walk[k], walk[(k + 1) % len(walk)]) is not None


def _collinear_neighbours(walk):
    """The pairs (i, j), i < j, of neighbouring segments along one axis."""
    n = len(walk)
    axes = [running_axis(walk[k], walk[(k + 1) % n]) for k in range(n)]
    return {tuple(sorted((k, (k + 1) % n))) for k in range(n) if axes[k] is not None and axes[k] == axes[k + 1 - n]}


def test_is_simple_calls_box_meet_once_per_axis_parallel_hit(monkeypatch):
    # the sweep sends on only pairs that can overlap or meet away from a
    # shared vertex: none on the simple squareflake, where every box hit is
    # a perpendicular neighbour pair and the all-pairs loop made n(n-1)/2
    # calls; on the tie walks one call per yielded axis-parallel pair and
    # per collinear neighbour pair
    poly = squareflake(8).polyline
    calls = _counting(monkeypatch, "box_meet")
    assert list(_meets(poly.integer_form.points)) == []
    assert is_simple(poly)
    assert calls == []
    for walk in TIES:
        del calls[:]
        yielded = {(i, j) for i, j, _ in _meets(walk) if _axis_parallel(walk, i) and _axis_parallel(walk, j)}
        assert yielded
        assert len(calls) == len(yielded | _collinear_neighbours(walk))


def _grid_walks(dim, sizes):
    """Every closed axis-parallel walk on {0, 1, 2}^dim with a vertex count
    in ``sizes``, as lists of int points: each step, the closing one too,
    changes exactly one coordinate, so no vertex repeats the one before it."""
    stack = [[v] for v in product(range(3), repeat=dim)]
    while stack:
        walk = stack.pop()
        if len(walk) in sizes and running_axis(walk[-1], walk[0]) is not None:
            yield walk
        if len(walk) < max(sizes):
            v = walk[-1]
            stack += [walk + [v[:k] + (c,) + v[k + 1:]] for k in range(dim) for c in range(3) if c != v[k]]


def test_meets_matches_reference_on_every_small_grid_walk(monkeypatch):
    # every walk of 3 to 6 vertices on the 3 x 3 grid and of 3 to 5 on the
    # 3 x 3 x 3 one: n = 3, where every pair is a neighbour pair, n = 4,
    # where |i - j| = n - 1 is the wrap pair, and the wrap pair (0, n - 1)
    # perpendicular, collinear, and folding back; box_meet sees each
    # yielded pair and each collinear neighbour pair once, and no other
    calls = _counting(monkeypatch, "box_meet")
    walks = wraps = 0
    kinds = set()
    for dim, sizes in ((2, range(3, 7)), (3, range(3, 6))):
        for walk in _grid_walks(dim, sizes):
            n = len(walk)
            del calls[:]
            meets = _with_params(_meets(walk))
            assert meets == list(_reference_meets(walk)), walk
            assert len(calls) == len({(i, j) for i, j, _ in meets} | _collinear_neighbours(walk)), walk
            walks += 1
            wraps += (0, n - 1, "overlap") in meets
            first, last = (running_axis(walk[k], walk[(k + 1) % n]) for k in (0, n - 1))
            kinds.add((n, "collinear" if first == last else "perpendicular"))
    # closed walks of length L on the rook's graph: the trace of A^L
    assert walks == (36 + 324 + 900 + 4356) + (162 + 2430 + 7290)
    assert wraps > 0
    # three axis steps close up only along one line
    want = {(n, kind) for n in range(3, 7) for kind in ("collinear", "perpendicular")}
    assert kinds == want - {(3, "perpendicular")}


def test_sweep_work_counts_on_squareflakes(monkeypatch):
    # deterministic work counts, no timing: the perpendicular sweep inserts
    # each x-running segment once (only the axis pair (0, 1) occurs in the
    # plane), so inserts grow with n, and no pair reaches the candidate list
    inserts = _counting(monkeypatch, "insort")
    axis_pairs = _counting(monkeypatch, "_axis_meets")
    oblique_pairs = _counting(monkeypatch, "_oblique_partners")
    counts = {}
    for m in range(5, 9):
        walk = squareflake(m).polyline.integer_form.points
        del inserts[:]
        assert list(_meets(walk)) == []
        counts[m] = len(inserts)
    n = len(walk)
    assert counts[8] == sum(walk[k][0] != walk[(k + 1) % n][0] for k in range(n)) == 512
    assert all(counts[m + 1] <= 2.5 * counts[m] for m in range(5, 8))
    assert len(axis_pairs) == 4 and all(pairs == [] for pairs in axis_pairs)
    assert oblique_pairs == []


def fraction_counter(monkeypatch):
    """A list that counts every Fraction built while the patch holds."""
    built = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    return built


def test_is_simple_builds_no_fraction(monkeypatch):
    # simplicity, projection, diagrams and invariants all run on integers;
    # the inputs are built before the count starts
    poly = squareflake(8).polyline
    uniform = {m: CONSTRUCTIONS["uniform"](m) for m in (2, 3)}
    det = uniform[3].expected_determinant()
    sheared = _scaled(_view(uniform[2].polyline, (3, 2, 6)))  # oblique planar pairs
    grids = [catalog(name) for name in catalog_names()]
    built = fraction_counter(monkeypatch)
    assert is_simple(poly)
    d, _ = project_generic(uniform[3].polyline)
    assert determinant(d) == determinant_minor(d) == det
    assert tricolorings(d) == 3 * det  # 22 trefoils: 3^23 colourings
    with pytest.raises(NonGenericProjection, match="segments 4 and 19 touch at an endpoint"):
        project(uniform[2].polyline, (3, 2, 6))
    assert any(meet != "overlap" for _, _, meet in _meets(sheared))
    assert [determinant(diagram_from_grid(g)) for g in grids] == [5, 3, 1]
    assert built == []


def test_meets_box_tests_only_pairs_whose_x_ranges_overlap(monkeypatch):
    # the uniform m = 4 curve seen along (3, 2, 6): the projected depth
    # connectors are oblique, and only pairs that overlap along x reach box_meet
    walk = _scaled(_view(CONSTRUCTIONS["uniform"](4).polyline, (3, 2, 6)))
    n = len(walk)
    xs = [sorted((walk[i][0], walk[(i + 1) % n][0])) for i in range(n)]
    overlapping = sum(xs[i][0] <= xs[j][1] and xs[j][0] <= xs[i][1] for i in range(n) for j in range(i + 1, n))
    want = list(_reference_meets([tuple(map(F, v)) for v in walk], boxed=True))
    calls = 0

    def counting_box_meet(box1, box2):
        nonlocal calls
        calls += 1
        return box_meet(box1, box2)

    monkeypatch.setattr(invariants, "box_meet", counting_box_meet)
    assert _with_params(_meets(walk)) == want
    assert len(want) < calls <= overlapping < n * (n - 1) // 4


def _bounding_boxes_meet(walk, i, j):
    n = len(walk)
    (a, b), (c, d) = (walk[i], walk[(i + 1) % n]), (walk[j], walk[(j + 1) % n])
    return all(min(c[k], d[k]) <= max(a[k], b[k]) and min(a[k], b[k]) <= max(c[k], d[k]) for k in range(len(a)))


OBLIQUE_WALKS = {
    "sheared-uniform-2": lambda: _view(CONSTRUCTIONS["uniform"](2).polyline, (3, 2, 6)),
    "3d-lattice-oblique": lambda: _lattice_walk(random.Random(5), 3, 40, 6),
}


@pytest.mark.parametrize("name", OBLIQUE_WALKS)
def test_meets_calls_meet_once_per_pair_that_needs_it(monkeypatch, name):
    # pairs with an oblique segment reach _meet only when their integer
    # bounding boxes meet, the rest are skipped, and axis-parallel pairs
    # reach it only for the parameters of a point hit of non-neighbours
    walk = _scaled(OBLIQUE_WALKS[name]())
    n = len(walk)
    axis_parallel = [sum(s != t for s, t in zip(walk[i], walk[(i + 1) % n])) == 1 for i in range(n)]
    oblique_pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if not (axis_parallel[i] and axis_parallel[j])
    ]
    boxes_meet = sum(_bounding_boxes_meet(walk, i, j) for i, j in oblique_pairs)
    want = list(_reference_meets([tuple(map(F, v)) for v in walk]))
    axis_points = sum(meet != "overlap" and axis_parallel[i] and axis_parallel[j] for i, j, meet in want)
    calls = {True: 0, False: 0}  # by whether both segments are axis-parallel

    def counting_meet(a, b, c, d):
        calls[running_axis(a, b) is not None and running_axis(c, d) is not None] += 1
        return _meet(a, b, c, d)

    monkeypatch.setattr(invariants, "_meet", counting_meet)
    assert _with_params(_meets(walk)) == want
    assert calls[False] == boxes_meet < len(oblique_pairs)
    assert calls[True] == axis_points


# ---------------------------------------------------------------------------
# faces traced from the crossing order against the plane arrangement
# ---------------------------------------------------------------------------

def _dir_cmp(d1, d2):
    """CCW angular order starting just above the +x axis."""
    def half(d):
        return 0 if (d[1] > 0 or (d[1] == 0 and d[0] > 0)) else 1

    h1, h2 = half(d1), half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    c = cross2(d1, d2)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


class _Arrangement:
    """Planar subdivision of the diagram walk split at crossing points: the
    Fraction geometry ``determinant`` read its faces from before it traced
    them from the crossing order."""

    def __init__(self, d):
        walk, points = _fraction_walk(d), crossing_points(d)
        m = len(walk)
        edges = []
        for i, seg in enumerate(d.passes):
            pts = [walk[i], *(points[cid] for cid, _ in seg), walk[(i + 1) % m]]
            edges.extend(zip(pts, pts[1:]))
        self.edges = edges
        # half-edges: (point_from, point_to); twin = reversed
        out = {}
        for a, b in edges:
            out.setdefault(a, []).append(b)
            out.setdefault(b, []).append(a)
        for v, nbrs in out.items():
            nbrs.sort(key=cmp_to_key(lambda p, q: _dir_cmp(sub2(p, v), sub2(q, v))))
            for p, q in zip(nbrs, nbrs[1:]):
                if sub2(p, v) == sub2(q, v):
                    raise ValueError("overlapping edges at a vertex")
        self.out = out
        self._build_faces()

    def _next_halfedge(self, h):
        a, b = h
        nbrs = self.out[b]
        back = a
        idx = nbrs.index(back)
        return (b, nbrs[(idx - 1) % len(nbrs)])

    def _build_faces(self):
        face_of = {}
        faces = []
        for a, b in self.edges:
            for h in ((a, b), (b, a)):
                if h in face_of:
                    continue
                fid = len(faces)
                cycle = []
                cur = h
                while cur not in face_of:
                    face_of[cur] = fid
                    cycle.append(cur)
                    cur = self._next_halfedge(cur)
                faces.append(cycle)
        self.face_of = face_of
        self.faces = faces
        areas = []
        for cycle in faces:
            s = F(0)
            for (a, b) in cycle:
                s += cross2(a, b)
            areas.append(s / 2)
        self.areas = areas
        negs = [i for i, s in enumerate(areas) if s < 0]
        if len(negs) != 1:
            raise ValueError("arrangement is not a single connected diagram")
        self.outer = negs[0]

    def two_coloring(self):
        """0/1 colors per face, alternating across every edge; outer gets 0."""
        nf = len(self.faces)
        color = [None] * nf
        color[self.outer] = 0
        stack = [self.outer]
        adj = [[] for _ in range(nf)]
        for a, b in self.edges:
            f1 = self.face_of[(a, b)]
            f2 = self.face_of[(b, a)]
            adj[f1].append(f2)
            adj[f2].append(f1)
        while stack:
            f = stack.pop()
            for g in adj[f]:
                if color[g] is None:
                    color[g] = 1 - color[f]
                    stack.append(g)
                elif color[g] == color[f]:
                    raise ValueError("diagram faces are not checkerboard colorable")
        return color


def _outgoing_along(arr, v, direction):
    for w in arr.out[v]:
        d = sub2(w, v)
        if cross2(d, direction) == 0 and dot2(d, direction) > 0:
            return (v, w)
    raise ValueError(f"no outgoing edge at {v} along {direction}")


def _reference_faces(d):
    """(arrangement face of each dart of ``_checkerboard``, arrangement
    colours): dart 2k leaves passage k along the walk, dart 2k + 1 leaves
    passage k + 1 against it."""
    arr = _Arrangement(d)
    walk, points = _fraction_walk(d), crossing_points(d)
    m = len(walk)
    passages = [(i, cid) for i, seg in enumerate(d.passes) for cid, _ in seg]
    faces = []
    for q, (i, cid) in enumerate(passages):
        j, cid_next = passages[(q + 1) % len(passages)]
        ahead = _outgoing_along(arr, points[cid], sub2(walk[(i + 1) % m], walk[i]))
        back = _outgoing_along(arr, points[cid_next], sub2(walk[j], walk[(j + 1) % m]))
        faces += [arr.face_of[ahead], arr.face_of[back]]
    assert len(set(faces)) == len(arr.faces)
    return faces, arr.two_coloring()


def _kinks(d):
    """Pieces that start and end at the same crossing."""
    cids = [cid for seg in d.passes for cid, _ in seg]
    return sum(a == b for a, b in zip(cids, cids[1:] + cids[:1]))


def _assert_faces_match(d):
    # the same faces and classes, numbered alike, so the Goeritz matrix is
    # the one the arrangement gave, entry for entry
    face, color, _ = _checkerboard(d)
    ref_face, ref_color = _reference_faces(d)
    assert face == ref_face
    assert len(set(face)) == d.crossing_count + 2
    assert color == ref_color


def test_faces_match_reference_on_catalog_grids_and_mirrors():
    for name in catalog_names():
        for g in (catalog(name), catalog(name).mirrored()):
            d = diagram_from_grid(g)
            if d.crossing_count:
                _assert_faces_match(d)


def test_faces_match_reference_on_reference_corpus():
    diagrams = kinks = 0
    for d in _corpus_diagrams():
        if d.crossing_count:
            _assert_faces_match(d)
            diagrams += 1
            kinks += _kinks(d) > 0
    assert diagrams > 0 and kinks > 0


@pytest.mark.parametrize("knot", ["trefoil", "figure-eight"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_faces_match_reference_on_uniform_approximants(m, knot):
    d, _ = project_generic(approximant(KnotAssignment.uniform(knot, m), m).polyline)
    _assert_faces_match(d)


# ---------------------------------------------------------------------------
# sparse exact elimination against the dense reference
# ---------------------------------------------------------------------------

def _bareiss_det(mat) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination;
    Bareiss 1968): the dense reference for ``invariants._sparse_det``."""
    m = [row[:] for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _sparse_rows(mat):
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


def _dense_goeritz_minor(d, color_class):
    """The Goeritz matrix over the regions of ``color_class``, dense, less
    its first row and column: the minor whose |det| ``determinant`` is."""
    face, color, rings = _checkerboard(d)
    regions = [f for f, c in enumerate(color) if c == color_class]
    index = {f: k for k, f in enumerate(regions)}
    g = [[0] * len(regions) for _ in regions]
    for ring in rings:
        f_swept, f_other, f_swept_op, f_other_op = (face[h] for h in ring)
        if color[f_swept] == color_class:
            ia, ib, eta = index[f_swept], index[f_swept_op], 1
        else:
            ia, ib, eta = index[f_other], index[f_other_op], -1
        if ia != ib:
            g[ia][ib] -= eta
            g[ib][ia] -= eta
    for k, row in enumerate(g):
        row[k] = -sum(row[t] for t in range(len(row)) if t != k)
    return [row[1:] for row in g[1:]]


def _coloring_matrix(d):
    """Integer crossing relations, dense: row per crossing, 2*over - in - out = 0."""
    rows = []
    for c in d.crossings:
        row = [0] * d.n_arcs
        row[c.over_arc] += 2
        row[c.under_in] -= 1
        row[c.under_out] -= 1
        rows.append(row)
    return rows


def _dense_coloring_minor(d):
    """The crossing-relation matrix less its first row and column: the minor
    whose |det| ``determinant_minor`` is."""
    return [row[1:] for row in _coloring_matrix(d)[1:]]


def _dense_rank_mod3(mat) -> int:
    """Rank over GF(3) of an integer matrix by dense Gauss-Jordan elimination:
    the reference for ``invariants._rank_mod3``."""
    mat = [[v % 3 for v in row] for row in mat]
    rows = len(mat)
    cols = len(mat[0]) if mat else 0
    rank = 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if mat[i][c] % 3 != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 if mat[r][c] % 3 == 1 else 2
        mat[r] = [(v * inv) % 3 for v in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c] % 3 != 0:
                f = mat[i][c]
                mat[i] = [(a - f * b) % 3 for a, b in zip(mat[i], mat[r])]
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def _assert_tricolorings_match_dense_reference(d):
    """``tricolorings`` and the relations it reads against the dense matrix."""
    mat = _coloring_matrix(d)
    assert invariants.crossing_relations(d) == _sparse_rows(mat)
    want = 3 if d.crossing_count == 0 else 3 ** (d.n_arcs - _dense_rank_mod3(mat))
    assert tricolorings(d) == want
    return want


def _assert_routes_match_dense_reference(d):
    if d.crossing_count == 0:  # no faces to trace: both routes give 1
        assert determinant(d) == determinant(d, color_class=1) == determinant_minor(d) == 1
        return 1
    want = abs(_bareiss_det(_dense_coloring_minor(d)))
    assert determinant_minor(d) == want
    for color_class in (0, 1):
        assert abs(_bareiss_det(_dense_goeritz_minor(d, color_class))) == want
        assert determinant(d, color_class) == want
    return want


@st.composite
def _integer_matrices(draw):
    """Square integer matrices of order at most 12: dense, sparse, singular
    (one row a combination of two others) or with a zero diagonal."""
    n = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["dense", "sparse", "singular", "zero-diagonal"]))
    entry = st.integers(-1000, 1000) if kind == "dense" else st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -2, 3, 7))
    mat = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if kind == "singular" and n >= 2:
        i, j = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        mat[-1] = [a * x + b * y for x, y in zip(mat[i], mat[j])]
        mat = draw(st.permutations(mat))
    if kind == "zero-diagonal":
        for k in range(n):
            mat[k][k] = 0
    return kind, mat


@settings(max_examples=400, deadline=None)
@given(_integer_matrices())
# pivots other than +-1 scale the rows they clear; an empty matrix, a zero
# leading entry and an empty column each take their own path
@example(("dense", []))
@example(("sparse", [[0]]))
@example(("dense", [[2, 3], [3, 2]]))
@example(("zero-diagonal", [[0, 1], [1, 0]]))
@example(("singular", [[4, 6, 2], [6, 9, 3], [1, 1, 1]]))
@example(("singular", [[1, 0, 2], [3, 0, 4], [5, 0, 6]]))
@example(("dense", [[6, 4, 0], [4, 6, 2], [0, 2, 6]]))
def test_sparse_det_matches_dense_reference(case):
    kind, mat = case
    want = abs(_bareiss_det(mat))
    if kind == "singular" and len(mat) >= 2:
        assert want == 0
    assert invariants._sparse_det(_sparse_rows(mat)) == want


def test_both_routes_match_dense_reference_on_catalog_knots_and_mirrors():
    for name in catalog_names():
        for g in (catalog(name), catalog(name).mirrored()):
            d = diagram_from_grid(g)
            assert _assert_routes_match_dense_reference(d) == determinant(diagram_from_grid(catalog(name)))


@settings(max_examples=400, deadline=None)
@given(_integer_matrices(), st.integers(0, 3))
# a column of zeros, a row of multiples of 3 and a rank lost only mod 3
@example(("sparse", [[0, 1], [0, 2]]), 0)
@example(("dense", [[3, 6], [1, 2]]), 0)
@example(("dense", [[1, 1], [1, 4]]), 0)
def test_sparse_rank_mod_3_matches_dense_reference(case, extra):
    # square matrices with ``extra`` more rows, each a sum of two others
    # and so of no new rank
    _, mat = case
    for k in range(extra if mat else 0):
        mat = mat + [[a + b for a, b in zip(mat[k % len(mat)], mat[-1])]]
    assert invariants._rank_mod3(_sparse_rows(mat)) == _dense_rank_mod3(mat)


def test_tricolorings_match_dense_reference_on_catalog_knots_and_mirrors():
    for name in catalog_names():
        want = tricolorings(diagram_from_grid(catalog(name)))
        for g in (catalog(name), catalog(name).mirrored()):
            assert _assert_tricolorings_match_dense_reference(diagram_from_grid(g)) == want


APPROXIMANTS = {
    "uniform-trefoil": CONSTRUCTIONS["uniform"],
    "uniform-figure-eight": lambda m: approximant(KnotAssignment.uniform("figure-eight", m), m),
    "wild-plan": CONSTRUCTIONS["wild-plan"],
}


@pytest.mark.parametrize("kind", sorted(APPROXIMANTS))
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_both_routes_give_the_expected_determinant_of_approximants(kind, m):
    a = APPROXIMANTS[kind](m)
    d, _ = project_generic(a.polyline)
    det = a.expected_determinant()
    assert determinant(d) == determinant(d, color_class=1) == determinant_minor(d) == det
    if m <= 3:
        assert _assert_routes_match_dense_reference(d) == det
        _assert_tricolorings_match_dense_reference(d)


def test_determinant_of_uniform_trefoil_approximant_of_stage_7():
    d, _ = project_generic(CONSTRUCTIONS["uniform"](7).polyline)
    assert determinant(d) == 3**381


def test_determinant_minor_of_uniform_trefoil_approximant_of_stage_5():
    d, _ = project_generic(CONSTRUCTIONS["uniform"](5).polyline)
    assert determinant_minor(d) == 3**93


def test_tricolorings_of_uniform_trefoil_approximant_of_stage_5():
    # 93 trefoils: nullity 94 over GF(3); the dense elimination took 0.24 s
    d, _ = project_generic(CONSTRUCTIONS["uniform"](5).polyline)
    assert tricolorings(d) == 3**94


def test_elimination_work_counts_on_uniform_approximants(monkeypatch):
    # deterministic work counts, no timing: each row update touches the
    # pivot row's entries and the one it clears, so with no fill the entries
    # touched grow with the crossings, about 2x per stage; dense elimination
    # would grow about 8x
    touched, clear = [], invariants._clear

    def counted(row, a, pivot, *args):
        touched.append(len(pivot) + 1)
        return clear(row, a, pivot, *args)

    monkeypatch.setattr(invariants, "_clear", counted)
    routes = (determinant, lambda d: determinant(d, color_class=1), determinant_minor)
    counts = {}
    for m in range(3, 7):
        a = CONSTRUCTIONS["uniform"](m)
        d, _ = project_generic(a.polyline)
        counts[m] = []
        for route in routes:
            del touched[:]
            assert route(d) == a.expected_determinant()
            counts[m].append((len(touched), sum(touched)))
    # (row updates, entries touched) per route: class 0's Goeritz minor is
    # diagonal, so it takes no row update at all
    assert counts[6] == [(0, 0), (189, 378), (252, 693)]
    for route in (1, 2):
        assert all(counts[m + 1][route][1] <= 2.5 * counts[m][route][1] for m in range(3, 6))


@pytest.mark.parametrize("color_class", [2, -1, None])
def test_determinant_rejects_a_class_other_than_0_or_1(monkeypatch, color_class):
    traced = _counting(monkeypatch, "_checkerboard")
    with pytest.raises(ValueError, match=r"0 \(the unbounded face's class\) or 1"):
        determinant(trefoil_diagram(), color_class)
    assert traced == []
