from collections import defaultdict
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongeknots import wildknot
from spongeknots.embed import cube_edge, embed_grid, embed_into_box, place
from spongeknots.geometry import Cube
from spongeknots.grid import catalog
from spongeknots.invariants import determinant, is_simple, project_generic
from spongeknots.squareflake import squareflake
from spongeknots.ternary import AxisSegment, verify_containment
from spongeknots.wildknot import (
    TRIVIAL,
    KnotAssignment,
    SpliceSite,
    approximant,
    flat_unknot,
    sites,
    sponge_stage_of_ledger,
    wild_set_plan,
    _splice_sites,
    _summand_stage,
)
from oracle import (
    axis_form,
    clearance,
    closed_polyline,
    contains_point,
    cube_of,
    cube_rationals,
    determinant_minor,
    embed_into_cube,
    interiors_meet,
    neighborhood_census,
    segment_endpoints,
    site_edge,
    splice,
)
from test_invariants import fraction_counter


def test_stage1_sites_match_construction_coordinates():
    [bottom, left, top] = sites(1)
    assert segment_endpoints(site_edge(bottom)) == ((F(7, 9), F(1, 3), 0), (F(8, 9), F(1, 3), 0))
    assert segment_endpoints(site_edge(left)) == ((F(2, 3), F(4, 9), 0), (F(2, 3), F(5, 9), 0))
    assert segment_endpoints(site_edge(top)) == ((F(7, 9), F(2, 3), 0), (F(8, 9), F(2, 3), 0))
    assert all(cube_rationals(s.cube)[1] == F(1, 9) for s in (bottom, left, top))


def test_stage2_sites_match_construction_coordinates():
    expected = [
        ((F(25, 27), F(1, 9), 0), (F(26, 27), F(1, 9), 0)),
        ((F(8, 9), F(4, 27), 0), (F(8, 9), F(5, 27), 0)),
        ((F(25, 27), F(2, 9), 0), (F(26, 27), F(2, 9), 0)),
        ((F(25, 27), F(7, 9), 0), (F(26, 27), F(7, 9), 0)),
        ((F(8, 9), F(22, 27), 0), (F(8, 9), F(23, 27), 0)),
        ((F(25, 27), F(8, 9), 0), (F(26, 27), F(8, 9), 0)),
    ]
    got = [segment_endpoints(site_edge(s)) for s in sites(2)]
    assert got == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_site_counts_and_disjoint_cubes(m):
    ss = sites(m)
    assert len(ss) == 3 * 2 ** (m - 1)
    for i in range(len(ss)):
        for j in range(i + 1, len(ss)):
            assert not interiors_meet(ss[i].cube, ss[j].cube)


def test_site_cubes_survive_their_stage():
    from spongeknots.embed import check_surviving_cube

    for m in (1, 2, 3):
        for s in sites(m):
            assert check_surviving_cube(s.cube) == m + 1


def _reference_sites(m):
    """(site, its edge T) placed from digit products: the stage-m squares
    sit at y = (3k + 1) / 3^m, k running over the {0, 2}-digit numbers."""
    s = F(1, 3 ** (m + 1))
    edge_x = 1 - F(1, 3**m)
    squares = []
    for digits in product((0, 2), repeat=m - 1):
        k = 0
        for d in digits:
            k = 3 * k + d
        squares.append(k)
    out = []
    for k in sorted(squares):
        y1, y2 = F(3 * k + 1, 3**m), F(3 * k + 2, 3**m)
        index = len(out) + 1
        out += [
            (SpliceSite(m, index, "bottom", cube_of((1 - 2 * s, y1, F(0)), s), "x-edge-low"),
             AxisSegment(0, (y1, F(0)), 1 - 2 * s, 1 - s)),
            (SpliceSite(m, index + 1, "left", cube_of((edge_x, y1 + s, F(0)), s), "y-edge"),
             AxisSegment(1, (edge_x, F(0)), y1 + s, y1 + 2 * s)),
            (SpliceSite(m, index + 2, "top", cube_of((1 - 2 * s, y2 - s, F(0)), s), "x-edge-high"),
             AxisSegment(0, (y2, F(0)), 1 - 2 * s, 1 - s)),
        ]
    return out


@pytest.mark.parametrize("m", range(1, 8))
def test_sites_match_the_digit_formula(m):
    assert [(site, site_edge(site)) for site in sites(m)] == _reference_sites(m)


def _reference_flat_unknot(site):
    """The low one-ninth cell of the site cube's face, one quad per kind."""
    (cx, cy, cz), s = cube_rationals(site.cube)
    w = s / 3
    if site.kind == "bottom":
        quad = [(cx, cy), (cx + w, cy), (cx + w, cy + w), (cx, cy + w)]
        mark = ((cx, cy, cz), (cx + w, cy, cz))
    elif site.kind == "left":
        quad = [(cx, cy), (cx, cy + w), (cx + w, cy + w), (cx + w, cy)]
        mark = ((cx, cy, cz), (cx, cy + w, cz))
    else:
        y = cy + s
        quad = [(cx, y), (cx + w, y), (cx + w, y - w), (cx, y - w)]
        mark = ((cx, y, cz), (cx + w, y, cz))
    return tuple((x, y, cz) for x, y in quad), mark


@pytest.mark.parametrize("m", [1, 2, 3])
def test_flat_unknot_matches_the_hand_written_quads(m):
    for site in sites(m):
        got = flat_unknot(site)
        t = got.marks["splice"]
        mark = tuple(sorted((got.vertices[t], got.vertices[(t + 1) % len(got)])))
        assert (got.vertices, mark) == _reference_flat_unknot(site)
        assert got.marks["stage"] == 0


def test_flat_unknot_rejects_an_unknown_site_kind():
    with pytest.raises(ValueError, match="unknown site kind 'custom'"):
        flat_unknot(_custom_site(F(1, 9), F(2, 9), (F(-1, 9), F(1, 9), F(0))))


def _custom_site(t_lo, t_hi, corner):
    # free-standing site for connected sums next to the unit cube, on the
    # line x = z = 0 along y from t_lo to t_hi
    return SpliceSite(0, 0, "custom", cube_of(corner, t_hi - t_lo), "y-edge-high")


def _connected_sum(base_name, summand_name):
    base, _ = embed_grid(catalog(base_name))
    site = _custom_site(F(1, 9), F(2, 9), (F(-1, 9), F(1, 9), F(0)))
    summand = embed_into_box(catalog(summand_name), site.cube, "y-edge-high", k=2)
    return splice(base, site, summand)


def test_splice_trefoil_trefoil_multiplicative():
    result = _connected_sum("trefoil", "trefoil")
    assert is_simple(result)
    d, _ = project_generic(result)
    assert determinant(d) == 9
    assert determinant_minor(d) == 9


def test_splice_trefoil_figure_eight_multiplicative():
    result = _connected_sum("trefoil", "figure-eight")
    assert is_simple(result)
    d, _ = project_generic(result)
    assert determinant(d) == 15
    assert determinant_minor(d) == 15


def test_splice_with_unknot_keeps_determinant():
    base, _ = embed_grid(catalog("trefoil"))
    d0, _ = project_generic(base)
    before = determinant(d0)
    site = _custom_site(F(1, 9), F(2, 9), (F(-1, 9), F(1, 9), F(0)))
    result = splice(base, site, flat_unknot_at(site))
    assert is_simple(result)
    d1, _ = project_generic(result)
    assert determinant(d1) == before == 3


def flat_unknot_at(site):
    # rectangle bulging away from the unit cube (negative x side)
    t = site_edge(site)
    w = (t.hi - t.lo) / 3
    x0 = t.fixed[0]
    verts = (
        (x0, t.lo, F(0)),
        (x0 - w, t.lo, F(0)),
        (x0 - w, t.lo + w, F(0)),
        (x0, t.lo + w, F(0)),
    )
    return closed_polyline(verts, {"splice": 3})  # from (x0, t.lo + w) to (x0, t.lo)


def test_splice_rejects_mark_outside_t():
    base, _ = embed_grid(catalog("trefoil"))
    site = _custom_site(F(1, 9), F(2, 9), (F(-1, 9), F(1, 9), F(0)))
    bad_summand = embed_into_box(catalog("unknot"), cube_of((F(-1, 9), F(2, 9), F(0)), F(1, 9)), "y-edge-high", k=1)
    with pytest.raises(ValueError):
        splice(base, site, bad_summand)


def test_splice_rejects_summand_meeting_base_outside_t():
    base, _ = embed_grid(catalog("trefoil"))
    # cube on the inside: the base's second column crosses it
    site = SpliceSite(0, 0, "custom", cube_of((F(0), F(1, 9), F(0)), F(1, 9)), "y-edge")
    summand = embed_into_box(catalog("unknot"), site.cube, "y-edge", k=1)
    with pytest.raises(ValueError):
        splice(base, site, summand)


# splice inputs: T, the edge x = z = 0 along y over [1/3, 2/3], runs on the
# base's left edge, and the site cube hangs off it on the negative-x side
# (or on the inside)
_OUT = SpliceSite(0, 0, "custom", cube_of((F(-1, 3), F(1, 3), F(0)), F(1, 3)), "y-edge-high")
_IN = SpliceSite(0, 0, "custom", cube_of((F(0), F(1, 3), F(0)), F(1, 3)), "y-edge")
_SQUARE = [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)]
_FLAT = [(0, F(4, 9), 0), (F(-1, 9), F(4, 9), 0), (F(-1, 9), F(5, 9), 0), (0, F(5, 9), 0)]

_GOOD_MARK = {"splice": 3}  # the segment from _FLAT[3] to _FLAT[0]

# one input per ValueError of splice, in the order splice checks them
SPLICE_ERRORS = {
    "no-mark": (_SQUARE, _OUT, _FLAT, {}, "summand carries no splice mark"),
    "mark-not-a-segment": (_SQUARE, _OUT, _FLAT, {"splice": 4}, "splice mark is not a segment of the summand"),
    "mark-off-line": (_SQUARE, _OUT, _FLAT, {"splice": 0}, "splice mark is not on the site segment"),
    "mark-leaves-t": (_SQUARE, _OUT, [(0, F(2, 9), 0), (F(-1, 9), F(2, 9), 0), _FLAT[2], _FLAT[3]], _GOOD_MARK,
                      "splice mark leaves the site segment"),
    "no-carrier": ([(0, 0, 0), (0, F(1, 2), 0), (1, F(1, 2), 0), (1, 0, 0)], _OUT, _FLAT, _GOOD_MARK,
                   "site segment does not lie on the base curve"),
    "oblique-base": ([(0, 0, 0), (0, 1, 0), (1, 0, 0)], _OUT, _FLAT, _GOOD_MARK,
                     "approximant segments must be axis-aligned"),
    "base-in-cube": ([(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, F(1, 2), 0), (F(1, 6), F(1, 2), 0), (F(1, 6), 0, 0)],
                     _IN, _FLAT, _GOOD_MARK, "base meets the splice cube outside T at segment 3"),
    "summand-leaves-cube": (_SQUARE, _OUT, [_FLAT[0], (F(-1, 2), F(4, 9), 0), (F(-1, 2), F(5, 9), 0), _FLAT[3]],
                            _GOOD_MARK, "summand leaves the splice cube"),
    "mark-at-base-vertex": (
        [(0, 0, 0), (0, F(1, 3), 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)], _OUT,
        [(0, F(1, 3), 0), (F(-1, 9), F(1, 3), 0), (F(-1, 9), F(4, 9), 0), (0, F(4, 9), 0)],
        _GOOD_MARK, "splice mark touches a base vertex"),
}


@pytest.mark.parametrize("base, site, summand, marks, message", SPLICE_ERRORS.values(), ids=SPLICE_ERRORS.keys())
def test_splice_errors_name_the_first_broken_rule(base, site, summand, marks, message):
    with pytest.raises(ValueError) as exc:
        splice(closed_polyline(base), site, closed_polyline(summand, marks))
    assert str(exc.value) == message


def test_the_unbroken_splice_error_input_splices():
    good = splice(closed_polyline(_SQUARE), _OUT, closed_polyline(_FLAT, _GOOD_MARK))
    assert good.vertices == (_SQUARE[0], *_FLAT, *_SQUARE[1:])


# ---------------------------------------------------------------------------
# the one-pass splice against the site-by-site reference
# ---------------------------------------------------------------------------

_OTHER_AXES = ((1, 2), (0, 2), (0, 1))


def _reference_splice(base, site, summand):
    """One site at a time: every segment's axis form, a scan for the
    carrier, a scan clearing every segment against the site cube, and a
    fresh polyline."""
    if "splice" not in summand.marks:
        raise ValueError("summand carries no splice mark")
    sverts = summand.vertices
    sn = len(sverts)
    t = summand.marks["splice"]
    if not 0 <= t < sn:
        raise ValueError("splice mark is not a segment of the summand")
    u, v = sverts[t], sverts[(t + 1) % sn]
    T = site_edge(site)
    ax = T.axis
    for p in (u, v):
        if tuple(p[i] for i in _OTHER_AXES[ax]) != T.fixed:
            raise ValueError("splice mark is not on the site segment")
        if not (T.lo <= p[ax] <= T.hi):
            raise ValueError("splice mark leaves the site segment")
    verts = base.vertices
    n = len(verts)
    forms = [axis_form(verts[i], verts[(i + 1) % n]) for i in range(n)]
    carrier = next(
        (i for i, f in enumerate(forms)
         if f is not None and f[0] == ax and f[1] == T.fixed and f[2] <= T.lo and T.hi <= f[3]),
        None,
    )
    if carrier is None:
        raise ValueError("site segment does not lie on the base curve")
    near, side = cube_rationals(site.cube)
    far = tuple(c + side for c in near)
    for i, form in enumerate(forms):
        if form is None:
            raise ValueError("approximant segments must be axis-aligned")
        fax, fixed, lo, hi = form
        (o1, o2), (f1, f2) = _OTHER_AXES[fax], fixed
        if not (near[o1] <= f1 <= far[o1] and near[o2] <= f2 <= far[o2]):
            continue
        clo, chi = max(lo, near[fax]), min(hi, far[fax])
        if clo <= chi and not (fax == ax and fixed == T.fixed and T.lo <= clo and chi <= T.hi):
            raise ValueError(f"base meets the splice cube outside T at segment {i}")
    for w in summand.vertices:
        if not contains_point(site.cube, w):
            raise ValueError("summand leaves the splice cube")
    _, _, c_lo, c_hi = forms[carrier]
    if not (c_lo < min(u[ax], v[ax]) and max(u[ax], v[ax]) < c_hi):
        raise ValueError("splice mark touches a base vertex")
    forward = verts[(carrier + 1) % n][ax] > verts[carrier][ax]
    path = sverts[t + 1:] + sverts[:t + 1]
    if (u[ax] < v[ax]) == forward:
        path = path[::-1]
    return closed_polyline(verts[: carrier + 1] + path + verts[carrier + 1:], dict(base.marks))


def _reference_pairs(assign, m, include_trivial=False):
    """(site, summand) in splice order, each summand embedded on its own."""
    pairs = []
    for q in range(1, m + 1):
        for site in sites(q):
            name, mirror = assign.get(q, site.index)
            if name != TRIVIAL:
                g = catalog(name).mirrored() if mirror else catalog(name)
                pairs.append((site, embed_into_cube(g, site.cube, site.orientation, k=_summand_stage(g.n))))
            elif include_trivial:
                pairs.append((site, flat_unknot(site)))
    return pairs


def _reference_loop(base, pairs):
    for site, summand in pairs:
        base = _reference_splice(base, site, summand)
    return base


def _reference_approximant(assign, m, include_trivial=False):
    """The stage-m curve spliced one site at a time."""
    return _reference_loop(squareflake(m).polyline, _reference_pairs(assign, m, include_trivial))


def _outcome(fn, *args):
    """The vertices fn returns, or the message of the ValueError it raises."""
    try:
        return fn(*args).vertices
    except ValueError as e:
        return str(e)


_FORMS = {
    "uniform": lambda m: (KnotAssignment.uniform("trefoil", m), False),
    "plan": lambda m: (wild_set_plan([F(0), F(1)], "trefoil", m), False),
    "include-trivial": lambda m: (wild_set_plan([F(0), F(1)], "trefoil", m), True),
}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("form", sorted(_FORMS))
def test_approximant_matches_the_site_by_site_reference(form, m):
    assign, include_trivial = _FORMS[form](m)
    a = approximant(assign, m, include_trivial)
    assert a.polyline.vertices == _reference_approximant(assign, m, include_trivial).vertices


def _reference_orient(unit, cube, orientation):
    """The unit point in the cube, each orientation spelled out in Fractions."""
    X, Y, Z = unit
    local = {"y-edge": (X, Y, Z), "y-edge-high": (1 - X, Y, Z), "x-edge-low": (Y, X, Z),
             "x-edge-high": (Y, 1 - X, Z)}[orientation]
    corner, side = cube_rationals(cube)
    return tuple(corner[i] + side * local[i] for i in range(3))


_ORIENTATIONS = ["y-edge", "y-edge-high", "x-edge-low", "x-edge-high"]
_cube_coordinates = st.fractions(min_value=F(-2), max_value=F(2), max_denominator=30)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ORIENTATIONS), st.tuples(*[_cube_coordinates] * 3),
       st.fractions(min_value=F(1, 30), max_value=F(3), max_denominator=30), st.sampled_from(["trefoil", "figure-eight"]))
def test_placed_summand_is_the_unit_summand_oriented_into_the_cube(orientation, corner, side, knot):
    # one integer affine map per coordinate gives the Fraction images, and
    # the integer form kept with them is the one they give; the splice mark,
    # a segment on the unit edge (x=0, z=0), keeps its index, and the unit
    # edge goes onto the cube edge the orientation names
    g = catalog(knot)
    unit = embed_into_box(g, Cube(1, (0, 0, 0), 1), "y-edge", _summand_stage(g.n))
    site = SpliceSite(1, 1, "custom", cube_of(corner, side), orientation)
    placed = place(unit, site.cube, site.orientation)
    assert placed.vertices == tuple(_reference_orient(v, site.cube, orientation) for v in unit.vertices)
    t = unit.marks["splice"]
    assert placed.marks["splice"] == t
    assert all(unit.vertices[i][0] == unit.vertices[i][2] == 0 for i in (t, (t + 1) % len(unit)))
    ax, fixed, lo, hi = cube_edge(site.cube, orientation)
    ends = [tuple(F(c, site.cube.scale) for c in (*fixed[:ax], end, *fixed[ax:])) for end in (lo, hi)]
    assert sorted(ends) == sorted(_reference_orient(p, site.cube, orientation) for p in ((0, 0, 0), (0, 1, 0)))
    assert placed.integer_form == closed_polyline(placed.vertices).integer_form
    assert embed_into_box(g, site.cube, orientation, _summand_stage(g.n)).vertices == placed.vertices


def test_splicing_makes_no_fraction(monkeypatch):
    # the walk, the checks and the curve it gives all stay on integers
    calls = []
    real = wildknot._splice_sites
    monkeypatch.setattr(wildknot, "_splice_sites", lambda base, pairs: calls.append((base, pairs)) or real(base, pairs))
    a = approximant(wild_set_plan([F(0), F(1)], "trefoil", 3), 3, include_trivial=True)
    ((base, pairs),) = calls
    built = fraction_counter(monkeypatch)
    assert real(base, pairs) == a.polyline
    assert built == []


def test_a_uniform_approximant_makes_no_fraction_outside_its_squareflake(monkeypatch):
    # sites, cubes, splice marks and the splice are all integers; only the
    # squareflake's stage-m detour records hold Fractions
    built = fraction_counter(monkeypatch)
    inside = []
    real = wildknot.squareflake

    def counted(m):
        start = len(built)
        stage = real(m)
        inside.append(len(built) - start)
        return stage

    monkeypatch.setattr(wildknot, "squareflake", counted)
    approximant(KnotAssignment.uniform("trefoil", 5), 5)
    assert inside == [32] and len(built) == 32  # one per distinct value of the 16 records


@pytest.mark.parametrize("assign, m, include_trivial, stage", [
    (KnotAssignment.uniform("trefoil", 5), 5, False, 8),
    (wild_set_plan([F(0), F(1)], "trefoil", 7), 7, False, 10),
    (wild_set_plan([F(0), F(1)], "trefoil", 4), 4, True, 7),
    (KnotAssignment.all_trivial(3), 3, True, 3),
], ids=["uniform-5", "plan-7", "plan-4-include-trivial", "all-trivial-3"])
def test_the_sponge_stage_is_the_one_the_ledger_gives(assign, m, include_trivial, stage):
    # the largest of m and q + 1 + k over nontrivial entries: a trefoil
    # takes Cantor stage k = 2, in a stage-(q + 1) site cube
    a = approximant(assign, m, include_trivial)
    assert a.sponge_stage == sponge_stage_of_ledger(a.m, a.ledger) == stage
    assert all(verify_containment(a.polyline, stage))


def test_approximant_embeds_each_summand_once(monkeypatch):
    calls = []
    real = wildknot.embed_into_box
    monkeypatch.setattr(wildknot, "embed_into_box", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    entries = {(q, s.index): ("trefoil", s.index % 2 == 0) for q in (1, 2, 3) for s in sites(q)}
    a = approximant(KnotAssignment(3, entries), 3)
    assert a.spliced_count() == 21 and len(calls) == 2  # plain and mirror trefoil


def _flat_site(x, t_lo, t_hi):
    """Site on the line x, z = 0 along y, its cube off toward smaller x."""
    side = t_hi - t_lo
    return SpliceSite(0, 0, "custom", cube_of((x - side, t_lo, F(0)), side), "y-edge-high")


def _flat_quad(x, lo, hi, depth):
    """Rectangle from the segment x, y in [lo, hi] out to x - depth; the segment is its mark."""
    quad = [(x, lo, 0), (x - depth, lo, 0), (x - depth, hi, 0), (x, hi, 0)]
    return closed_polyline(quad, {"splice": 3})


_HALF_SQUARE = [(F(1, 2), 0, 0), (F(1, 2), 1, 0), (1, 1, 0), (1, 0, 0)]


def test_a_second_site_on_a_carrier_is_refused():
    # two sites on the base's one segment x = 1/2: site by site, the second
    # splices into a piece of it; a carrier takes one splice
    pairs = [
        (_flat_site(F(1, 2), lo, hi), _flat_quad(F(1, 2), lo + F(1, 27), hi - F(1, 27), F(1, 27)))
        for lo, hi in [(F(1, 9), F(2, 9)), (F(4, 9), F(5, 9))]
    ]
    base = closed_polyline(_HALF_SQUARE)
    assert len(_reference_loop(base, pairs)) == 4 + 2 * 4
    assert _outcome(_splice_sites, base, pairs[:1]) == _reference_loop(base, pairs[:1]).vertices
    assert _outcome(_splice_sites, base, pairs) == "base segment already carries a splice"


def test_a_site_on_an_earlier_summand_is_refused():
    # the second site's T lies on the first summand's far side x = 1/6 and
    # on no base segment: site by site, it splices into the summand
    pairs = [
        (_flat_site(F(1, 2), F(1, 3), F(2, 3)), _flat_quad(F(1, 2), F(4, 9), F(5, 9), F(1, 3))),
        (_flat_site(F(1, 6), F(13, 27), F(14, 27)), _flat_quad(F(1, 6), F(13, 27), F(14, 27), F(1, 27))),
    ]
    base = closed_polyline(_HALF_SQUARE)
    assert len(_reference_loop(base, pairs)) == 12
    assert _outcome(_splice_sites, base, pairs) == "site segment does not lie on the base curve"


@pytest.mark.parametrize("m", range(1, 8))
def test_each_site_lies_in_a_base_segment_of_its_own(m):
    # what the one-pass splice relies on: every site of stages 1..m has its
    # T inside exactly one segment of squareflake(m), and no segment holds two
    verts = squareflake(m).polyline.vertices
    lines = defaultdict(list)  # (axis, fixed coordinates) -> [(lo, hi, segment)]
    for i, (a, b) in enumerate(zip(verts, verts[1:] + verts[:1])):
        ax, fixed, lo, hi = axis_form(a, b)
        lines[ax, fixed].append((lo, hi, i))
    carriers = []
    for q in range(1, m + 1):
        for site in sites(q):
            t = site_edge(site)
            held = [i for lo, hi, i in lines[t.axis, t.fixed] if lo <= t.lo and t.hi <= hi]
            assert len(held) == 1
            carriers += held
    assert len(set(carriers)) == len(carriers) == 3 * (2**m - 1)


def _shifted(poly, dx):
    verts = [(x + dx, y, z) for x, y, z in poly.vertices]
    return closed_polyline(verts, {"splice": poly.marks["splice"]})


def _broken(pairs, k, make):
    return pairs[:k] + [(pairs[k][0], make(*pairs[k]))] + pairs[k + 1:]


_BROKEN = {
    "no-mark": lambda site, s: closed_polyline(s.vertices, {}),
    "leaves-cube": lambda site, s: _shifted(s, -cube_rationals(site.cube)[1] / 2),
    "mark-not-a-segment": lambda site, s: closed_polyline(s.vertices, {"splice": len(s)}),
    # the bottom cube's whole face: it touches the next (left) site cube
    "touches-the-next-cube": lambda site, s: _face(*cube_rationals(site.cube)),
}


def _face(corner, side):
    """The cube's face z = corner z, marked along its low-y side."""
    x, y, z = corner
    return closed_polyline([corner, (x, y + side, z), (x + side, y + side, z), (x + side, y, z)], {"splice": 3})


@pytest.mark.parametrize("how", sorted(_BROKEN))
@pytest.mark.parametrize("k", [0, 3, 7])
def test_one_broken_summand_raises_what_the_reference_raises(how, k):
    base = squareflake(2).polyline
    pairs = _broken(_reference_pairs(KnotAssignment.uniform("trefoil", 2), 2), k, _BROKEN[how])
    expected = _outcome(_reference_loop, base, pairs)
    assert isinstance(expected, str)
    assert _outcome(_splice_sites, base, pairs) == expected


def test_a_summand_touching_a_later_cube_is_named_by_its_segment():
    base = squareflake(1).polyline
    pairs = _broken(_reference_pairs(KnotAssignment.uniform("trefoil", 1), 1, True), 0, _BROKEN["touches-the-next-cube"])
    message = "base meets the splice cube outside T at segment 6"  # the summand side x = 7/9
    assert _outcome(_reference_loop, base, pairs) == message
    assert _outcome(_splice_sites, base, pairs) == message


# a site on a side of the square [1/3, 2/3]^2 at z = 1/3, at most one per
# side, with a rectangle summand bulging off it; all on the 1/729 grid, and
# short enough to stay in the unit cube.  T is the edge an orientation
# names, on the cube's low-z face, so the cube lies above T and off one
# side of it in its plane
_N, _A, _B = 729, 243, 486
_SQUARE_HOSTS = [  # (axis, fixed coordinates, lo, hi) of the square's sides
    (1, (_A, _A), _A, _B), (0, (_B, _A), _A, _B), (1, (_B, _A), _A, _B), (0, (_A, _A), _A, _B),
]
# axis of T -> (orientation, the side of T its cube lies on along the other axis of the plane)
_EDGE_SIDES = {1: [("y-edge", 1), ("y-edge-high", -1)], 0: [("x-edge-low", 1), ("x-edge-high", -1)]}


@st.composite
def _site_pairs(draw):
    hosts = draw(st.permutations(_SQUARE_HOSTS))[:draw(st.integers(1, 4))]
    pairs = []
    for ax, fixed, lo, hi in hosts:
        t_lo = draw(st.integers(lo, hi - 3))
        t_hi = draw(st.integers(t_lo + 3, min(hi, t_lo + 54)))
        side = t_hi - t_lo
        orientation, sign = draw(st.sampled_from(_EDGE_SIDES[ax]))
        across = 1 - ax
        corner = [0, 0, 0]
        corner[ax] = t_lo
        corner[across] = fixed[0] - (side if sign < 0 else 0)
        corner[2] = fixed[1]
        bulge = draw(st.sampled_from([(across, sign), (2, 1)]))
        third = 3 - ax - bulge[0]
        m_lo = draw(st.integers(t_lo, t_hi - 1))
        m_hi = draw(st.integers(m_lo + 1, t_hi))
        slip = draw(st.sampled_from((0, 0, 0, 0, 0, 0, -1, 1)))  # now and then a mark leaving T
        m_lo, m_hi = m_lo + min(slip, 0), m_hi + max(slip, 0)
        depth = bulge[1] * draw(st.integers(1, side + 2))
        quad = []
        for along, out in ((m_lo, 0), (m_lo, depth), (m_hi, depth), (m_hi, 0)):
            p = list(corner)
            p[ax] = along
            p[bulge[0]] = fixed[_OTHER_AXES[ax].index(bulge[0])] + out
            p[third] = fixed[_OTHER_AXES[ax].index(third)]
            quad.append(tuple(F(c, _N) for c in p))
        site = SpliceSite(0, 0, "custom", Cube(_N, tuple(corner), side), orientation)
        pairs.append((site, closed_polyline(tuple(quad), {"splice": 3})))
    return pairs


@given(_site_pairs())
@settings(max_examples=300, deadline=None)
def test_one_pass_splicing_matches_the_reference_on_random_sites(pairs):
    base = closed_polyline([(F(x, _N), F(y, _N), F(1, 3)) for x, y in ((_A, _A), (_A, _B), (_B, _B), (_B, _A))])
    assert _outcome(_splice_sites, base, pairs) == _outcome(_reference_loop, base, pairs)


def test_double_splice_structure():
    a = approximant(KnotAssignment.uniform("trefoil", 1), 1)
    assert a.spliced_count() == 3
    assert is_simple(a.polyline)
    assert a.expected_determinant() == 27


def test_approximant_all_trefoil_stage1():
    a = approximant(KnotAssignment.uniform("trefoil", 1), 1)
    d, _ = project_generic(a.polyline)
    assert determinant(d) == 27
    assert all(verify_containment(a.polyline, a.sponge_stage))


def test_approximant_all_trefoil_stage2():
    a = approximant(KnotAssignment.uniform("trefoil", 2), 2)
    assert a.spliced_count(1) == 3
    assert a.spliced_count(2) == 6
    assert a.expected_determinant() == 3**9
    assert is_simple(a.polyline)
    d, _ = project_generic(a.polyline)
    assert determinant(d) == 3**9


def test_approximant_ledger_counts_stage3():
    a = approximant(KnotAssignment.uniform("trefoil", 3), 3)
    assert [a.spliced_count(q) for q in (1, 2, 3)] == [3, 6, 12]
    assert len(a.ledger) == 3 + 6 + 12
    assert is_simple(a.polyline)


def test_all_trivial_assignment():
    a = approximant(KnotAssignment.all_trivial(2), 2, include_trivial=True)
    assert a.spliced_count() == 9
    assert a.expected_determinant() == 1
    assert is_simple(a.polyline)
    d, _ = project_generic(a.polyline)
    assert determinant(d) == 1
    lean = approximant(KnotAssignment.all_trivial(2), 2)
    assert lean.spliced_count() == 0
    assert len(lean.polyline) == 16  # bare squareflake


def test_mirror_assignment_tracked_and_splices():
    entries = {(1, 1): ("trefoil", True), (1, 2): ("trefoil", False)}
    a = approximant(KnotAssignment(1, entries), 1)
    mirrored = [e for e in a.ledger if e.mirror]
    assert len(mirrored) == 1 and mirrored[0].index == 1
    assert is_simple(a.polyline)
    d, _ = project_generic(a.polyline)
    assert determinant(d) == 9


def test_summand_segments_disjoint_across_sites():
    a = approximant(KnotAssignment.uniform("trefoil", 2), 2)
    # simplicity of the whole spliced curve already implies pairwise
    # disjointness of the summand segment sets; check the cubes too
    entries = [e for e in a.ledger if e.spliced]
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            assert not interiors_meet(entries[i].cube, entries[j].cube)


def test_wild_set_plan_single_target():
    plan = wild_set_plan([F(0)], "trefoil", 3)
    assert len(plan.entries) == 3  # one site per stage
    a = approximant(plan, 3)
    assert a.spliced_count() == 3


def test_wild_set_plan_two_targets_two_stages():
    plan = wild_set_plan([F(0), F(1)], "trefoil", 2)
    assert len(plan.entries) == 4
    assert (1, 1) in plan.entries and (1, 3) in plan.entries


def test_wild_set_plan_empty():
    plan = wild_set_plan([], "trefoil", 3)
    assert plan.entries == {}


def test_wild_set_plan_rejects_non_cantor_targets():
    with pytest.raises(ValueError):
        wild_set_plan([F(1, 2)], "trefoil", 2)
    with pytest.raises(ValueError):
        wild_set_plan([F(0), F(0)], "trefoil", 2)


@pytest.mark.parametrize(
    "target",
    # triadic (two expansions: 1/3, 2/3, 2/9, 7/9) and non-triadic Cantor points
    [F(0), F(1), F(1, 3), F(2, 3), F(2, 9), F(7, 9), F(1, 4), F(3, 4), F(1, 10), F(3, 10)],
)
def test_wild_set_plan_chases_the_target_through_its_cantor_intervals(target):
    m = 6
    plan = wild_set_plan([target], "trefoil", m)
    assert sorted(q for q, _ in plan.entries) == list(range(1, m + 1))
    # decode each stage's site into a Cantor digit: the lower third adjoins
    # the square's bottom site (offset 1), the upper third its top (offset 3)
    lo, rank = F(0), 0
    for (q, index) in sorted(plan.entries):
        assert (index - 1) // 3 == rank
        d = {1: 0, 3: 2}[index - 3 * rank]
        lo += F(d, 3**q)
        rank = 2 * rank + d // 2
    assert lo <= target <= lo + F(1, 3**m)


def test_census_monotone_toward_target():
    target = F(1)
    plan = wild_set_plan([target], "trefoil", 5)
    a = approximant(plan, 5)
    p = (F(1), target, F(0))
    counts = [neighborhood_census(a, p, F(1, 3**j)) for j in range(0, 5)]
    assert all(c >= 1 for c in counts)
    assert counts == sorted(counts, reverse=True)


def test_census_zero_away_from_targets():
    plan = wild_set_plan([F(0)], "trefoil", 3)
    a = approximant(plan, 3)
    far = (F(0), F(0), F(1))
    c2 = clearance(a, far)
    below = c2 * F(9, 10)
    # radius^2 below the clearance: no cube fits
    r = F(1, 2)
    while r * r >= below:
        r /= 2
    assert neighborhood_census(a, far, r) == 0


def test_census_all_trivial_zero():
    a = approximant(KnotAssignment.all_trivial(2), 2, include_trivial=True)
    assert neighborhood_census(a, (F(1), F(1, 3), F(0)), F(1)) == 0
