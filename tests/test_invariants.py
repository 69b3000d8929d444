import random
from fractions import Fraction as F
from functools import cmp_to_key
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spongeknots import geometry, invariants
from spongeknots.geometry import box_meet, cross2, dot2, seg_seg_2d, seg_seg_3d, sub2
from spongeknots.grid import catalog, catalog_names
from spongeknots.invariants import (
    NonGenericProjection,
    _build_diagram,
    _checkerboard,
    _meets,
    _segment_param,
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
from spongeknots.wildknot import KnotAssignment, approximant, wild_set_plan


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
    return _build_diagram(tuple(reduced), tuple(events))


def _outcome(f, *args):
    try:
        return f(*args)
    except NonGenericProjection as e:
        return ("NonGenericProjection", str(e))


# the depth axis, and the first sheared directions project_generic tries;
# then views along x and y, with a negative depth component, and with
# Fraction components, so the image's sign follows the depth component's
VIEWS = [d for d, _ in zip(generic_directions(), range(4))] + [
    (1, 0, 0), (0, -1, 0), (-3, 2, -6), (F(1, 2), F(-1, 3), F(5, 7)),
]


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
        assert _outcome(project, a.polyline, direction) == _outcome(_reference_project, a.polyline, direction)


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
    want = _reference_arcs(d.walk, d.events)
    assert (d.n_arcs, [(c.over_arc, c.under_in, c.under_out, c.point) for c in d.crossings]) == want


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
    With ``boxed``, pairs whose bounding boxes do not meet are skipped first,
    as the loop before the oblique sweep did: the same hits, sooner."""
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
                if meet is not None:
                    yield i, j, meet
                continue
            hit = box_meet(box_i, box_j)
            if hit is None:
                continue
            lo, hi = (tuple(F(c, scale) for c in corner) for corner in hit)
            yield i, j, ("point", lo) if hit[0] == hit[1] else ("overlap", (lo, hi))


def _scaled(walk):
    """The walk times the lcm of its denominators, as ints: what _meets takes."""
    scale = lcm(*(F(c).denominator for v in walk for c in v))
    return [tuple(int(F(c) * scale) for c in v) for v in walk]


def _assert_meets_match(walk):
    # both on the scaled walk, the reference's as Fractions: the same pairs
    # in the same order, meeting in the same points
    ints = _scaled(walk)
    assert list(_meets(ints)) == list(_reference_meets([tuple(map(F, v)) for v in ints]))


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


def _hit_kind(walk, i, j, meet):
    kind, x = meet
    if kind == "overlap":
        return "overlap"
    n = len(walk)
    ends = [x in (walk[k], walk[(k + 1) % n]) for k in (i, j)]
    return {2: "endpoint", 1: "T-junction", 0: "crossing"}[sum(ends)]


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
                kinds[dim].add(_hit_kind(walk, i, j, meet))
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
    n = len(walk)
    assert any(meet[0] == "point" and meet[1][0] == 1 and 1 < j - i < n - 1 for i, j, meet in _meets(walk))


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


def test_is_simple_calls_box_meet_once_per_axis_parallel_hit(monkeypatch):
    # the sweep sends only meeting pairs to box_meet: one call per adjacent
    # pair on the simple squareflake, where the all-pairs loop made n(n-1)/2
    poly = squareflake(8).polyline
    hits = len(list(_meets(poly.integer_form.points)))
    calls = 0

    def counting_box_meet(box1, box2):
        nonlocal calls
        calls += 1
        return box_meet(box1, box2)

    monkeypatch.setattr(invariants, "box_meet", counting_box_meet)
    assert is_simple(poly)
    assert calls == hits == len(poly) == 1024


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
    poly = squareflake(8).polyline
    built = fraction_counter(monkeypatch)
    assert is_simple(poly)
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
    assert list(_meets(walk)) == want
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
def test_meets_calls_seg_seg_once_per_oblique_pair_with_meeting_boxes(monkeypatch, name):
    # pairs with an oblique segment reach seg_seg_* only when their integer
    # bounding boxes meet; the rest are skipped with no Fraction arithmetic
    walk = _scaled(OBLIQUE_WALKS[name]())
    n = len(walk)
    axis_parallel = [sum(s != t for s, t in zip(walk[i], walk[(i + 1) % n])) == 1 for i in range(n)]
    oblique_pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if not (axis_parallel[i] and axis_parallel[j])
    ]
    boxes_meet = sum(_bounding_boxes_meet(walk, i, j) for i, j in oblique_pairs)
    want = list(_reference_meets([tuple(map(F, v)) for v in walk]))
    seg_seg = "seg_seg_3d" if len(walk[0]) == 3 else "seg_seg_2d"
    calls = 0

    def counting_seg_seg(*args):
        nonlocal calls
        calls += 1
        return getattr(geometry, seg_seg)(*args)

    monkeypatch.setattr(invariants, seg_seg, counting_seg_seg)
    assert list(_meets(walk)) == want
    assert calls == boxes_meet < len(oblique_pairs)


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
        m = len(d.walk)
        edges = []
        for i, seg in enumerate(d.passes):
            pts = [d.walk[i], *(d.events[cid][2] for cid, _ in seg), d.walk[(i + 1) % m]]
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
    m = len(d.walk)
    passages = [(i, cid) for i, seg in enumerate(d.passes) for cid, _ in seg]
    faces = []
    for q, (i, cid) in enumerate(passages):
        j, cid_next = passages[(q + 1) % len(passages)]
        ahead = _outgoing_along(arr, d.events[cid][2], sub2(d.walk[(i + 1) % m], d.walk[i]))
        back = _outgoing_along(arr, d.events[cid_next][2], sub2(d.walk[j], d.walk[(j + 1) % m]))
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
