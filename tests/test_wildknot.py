from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongeknots import wildknot
from spongeknots.embed import embed_grid, embed_into_box, embed_into_cube, verify_containment
from spongeknots.geometry import Cube, axis_form
from spongeknots.grid import catalog
from spongeknots.invariants import determinant, determinant_minor, is_simple, project_generic
from spongeknots.polyline import ClosedPolyline3, closed_polyline
from spongeknots.squareflake import squareflake
from spongeknots.ternary import AxisSegment
from spongeknots.wildknot import (
    TRIVIAL,
    KnotAssignment,
    SpliceSite,
    approximant,
    clearance,
    flat_unknot,
    neighborhood_census,
    sites,
    splice,
    wild_set_plan,
    _splice_sites,
    _summand_stage,
)


def test_stage1_sites_match_construction_coordinates():
    [bottom, left, top] = sites(1)
    assert bottom.T.endpoints() == ((F(7, 9), F(1, 3), 0), (F(8, 9), F(1, 3), 0))
    assert left.T.endpoints() == ((F(2, 3), F(4, 9), 0), (F(2, 3), F(5, 9), 0))
    assert top.T.endpoints() == ((F(7, 9), F(2, 3), 0), (F(8, 9), F(2, 3), 0))
    assert all(s.cube.side == F(1, 9) for s in (bottom, left, top))


def test_stage2_sites_match_construction_coordinates():
    expected = [
        ((F(25, 27), F(1, 9), 0), (F(26, 27), F(1, 9), 0)),
        ((F(8, 9), F(4, 27), 0), (F(8, 9), F(5, 27), 0)),
        ((F(25, 27), F(2, 9), 0), (F(26, 27), F(2, 9), 0)),
        ((F(25, 27), F(7, 9), 0), (F(26, 27), F(7, 9), 0)),
        ((F(8, 9), F(22, 27), 0), (F(8, 9), F(23, 27), 0)),
        ((F(25, 27), F(8, 9), 0), (F(26, 27), F(8, 9), 0)),
    ]
    got = [s.T.endpoints() for s in sites(2)]
    assert got == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_site_counts_and_disjoint_cubes(m):
    ss = sites(m)
    assert len(ss) == 3 * 2 ** (m - 1)
    for i in range(len(ss)):
        for j in range(i + 1, len(ss)):
            assert not ss[i].cube.interior_intersects_cube(ss[j].cube)


def test_site_cubes_survive_their_stage():
    from spongeknots.embed import check_surviving_cube

    for m in (1, 2, 3):
        for s in sites(m):
            assert check_surviving_cube(s.cube) == m + 1


def _reference_sites(m):
    """Sites placed from digit products: the stage-m squares sit at
    y = (3k + 1) / 3^m, k running over the {0, 2}-digit numbers."""
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
            SpliceSite(m, index, "bottom", AxisSegment(0, (y1, F(0)), 1 - 2 * s, 1 - s),
                       Cube((1 - 2 * s, y1, F(0)), s), "x-edge-low"),
            SpliceSite(m, index + 1, "left", AxisSegment(1, (edge_x, F(0)), y1 + s, y1 + 2 * s),
                       Cube((edge_x, y1 + s, F(0)), s), "y-edge"),
            SpliceSite(m, index + 2, "top", AxisSegment(0, (y2, F(0)), 1 - 2 * s, 1 - s),
                       Cube((1 - 2 * s, y2 - s, F(0)), s), "x-edge-high"),
        ]
    return out


@pytest.mark.parametrize("m", range(1, 8))
def test_sites_match_the_digit_formula(m):
    assert sites(m) == _reference_sites(m)


def _reference_flat_unknot(site):
    """The low one-ninth cell of the site cube's face, one quad per kind."""
    cx, cy, cz = site.cube.corner
    s = site.cube.side
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
        assert (got.vertices, got.marks["splice"]) == _reference_flat_unknot(site)
        assert got.marks["stage"] == 0


def test_flat_unknot_rejects_an_unknown_site_kind():
    with pytest.raises(ValueError, match="unknown site kind 'custom'"):
        flat_unknot(_custom_site(F(1, 9), F(2, 9), (F(-1, 9), F(1, 9), F(0))))


def _custom_site(t_lo, t_hi, corner):
    # free-standing site for connected sums next to the unit cube
    t = AxisSegment(1, (F(0), F(0)), t_lo, t_hi)
    return SpliceSite(0, 0, "custom", t, Cube(corner, t_hi - t_lo), "y-edge-high")


def _connected_sum(base_name, summand_name):
    base, _ = embed_grid(catalog(base_name))
    site = _custom_site(F(1, 9), F(2, 9), (F(-1, 9), F(1, 9), F(0)))
    summand = embed_into_box(
        catalog(summand_name), site.cube.corner, site.cube.side, "y-edge-high", k=2
    )
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
    t = site.T
    w = (t.hi - t.lo) / 3
    x0 = t.fixed[0]
    verts = (
        (x0, t.lo, F(0)),
        (x0 - w, t.lo, F(0)),
        (x0 - w, t.lo + w, F(0)),
        (x0, t.lo + w, F(0)),
    )
    return ClosedPolyline3(verts, {"splice": ((x0, t.lo, F(0)), (x0, t.lo + w, F(0)))})


def test_splice_rejects_mark_outside_t():
    base, _ = embed_grid(catalog("trefoil"))
    site = _custom_site(F(1, 9), F(2, 9), (F(-1, 9), F(1, 9), F(0)))
    bad_summand = embed_into_box(
        catalog("unknot"), (F(-1, 9), F(2, 9), F(0)), F(1, 9), "y-edge-high", k=1
    )
    with pytest.raises(ValueError):
        splice(base, site, bad_summand)


def test_splice_rejects_summand_meeting_base_outside_t():
    base, _ = embed_grid(catalog("trefoil"))
    # cube on the inside: the base's second column crosses it
    t = AxisSegment(1, (F(0), F(0)), F(1, 9), F(2, 9))
    site = SpliceSite(0, 0, "custom", t, Cube((F(0), F(1, 9), F(0)), F(1, 9)), "y-edge")
    summand = embed_into_box(catalog("unknot"), site.cube.corner, site.cube.side, "y-edge", k=1)
    with pytest.raises(ValueError):
        splice(base, site, summand)


# splice inputs: T runs along y on the base's left edge x = z = 0, and the
# site cube hangs off it on the negative-x side (or on the inside)
_T = AxisSegment(1, (F(0), F(0)), F(1, 3), F(2, 3))
_OUT = SpliceSite(0, 0, "custom", _T, Cube((F(-1, 3), F(1, 3), F(0)), F(1, 3)), "y-edge-high")
_IN = SpliceSite(0, 0, "custom", _T, Cube((F(0), F(1, 3), F(0)), F(1, 3)), "y-edge")
_SQUARE = [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)]
_FLAT = [(0, F(4, 9), 0), (F(-1, 9), F(4, 9), 0), (F(-1, 9), F(5, 9), 0), (0, F(5, 9), 0)]


def _mark(a, b):
    return {"splice": tuple(tuple(F(c) for c in p) for p in (a, b))}


_GOOD_MARK = _mark(_FLAT[0], _FLAT[3])

# one input per ValueError of splice, in the order splice checks them
SPLICE_ERRORS = {
    "no-mark": (_SQUARE, _OUT, _FLAT, {}, "summand carries no splice mark"),
    "mark-off-line": (_SQUARE, _OUT, _FLAT, _mark(_FLAT[1], _FLAT[0]), "splice mark is not on the site segment"),
    "mark-leaves-t": (_SQUARE, _OUT, _FLAT, _mark((0, F(2, 9), 0), _FLAT[0]), "splice mark leaves the site segment"),
    "no-carrier": ([(0, 0, 0), (0, F(1, 2), 0), (1, F(1, 2), 0), (1, 0, 0)], _OUT, _FLAT, _GOOD_MARK,
                   "site segment does not lie on the base curve"),
    "oblique-base": ([(0, 0, 0), (0, 1, 0), (1, 0, 0)], _OUT, _FLAT, _GOOD_MARK,
                     "approximant segments must be axis-aligned"),
    "base-in-cube": ([(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, F(1, 2), 0), (F(1, 6), F(1, 2), 0), (F(1, 6), 0, 0)],
                     _IN, _FLAT, _GOOD_MARK, "base meets the splice cube outside T at segment 3"),
    "base-runs-past-t": (_SQUARE, SpliceSite(0, 0, "custom", AxisSegment(1, (F(0), F(0)), F(1, 3), F(5, 9)),
                                             _OUT.cube, "y-edge-high"),
                         _FLAT, _GOOD_MARK, "base meets the splice cube outside T at segment 0"),
    "summand-leaves-cube": (_SQUARE, _OUT, [_FLAT[0], (F(-1, 2), F(4, 9), 0), (F(-1, 2), F(5, 9), 0), _FLAT[3]],
                            _GOOD_MARK, "summand leaves the splice cube"),
    "degenerate-mark": (_SQUARE, _OUT, _FLAT, _mark(_FLAT[0], _FLAT[0]), "degenerate splice mark"),
    "mark-at-base-vertex": (
        [(0, 0, 0), (0, F(1, 3), 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)], _OUT,
        [(0, F(1, 3), 0), (F(-1, 9), F(1, 3), 0), (F(-1, 9), F(4, 9), 0), (0, F(4, 9), 0)],
        _mark((0, F(1, 3), 0), (0, F(4, 9), 0)), "splice mark touches a base vertex"),
    "mark-not-a-segment": (_SQUARE, _OUT, _FLAT, _mark(_FLAT[0], (0, F(1, 2), 0)),
                           "splice mark is not a segment of the summand"),
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
    u, v = summand.marks["splice"]
    T = site.T
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
    near = site.cube.corner
    far = tuple(c + site.cube.side for c in near)
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
        if not site.cube.contains_point(w):
            raise ValueError("summand leaves the splice cube")
    if u == v:
        raise ValueError("degenerate splice mark")
    _, _, c_lo, c_hi = forms[carrier]
    if not (c_lo < min(u[ax], v[ax]) and max(u[ax], v[ax]) < c_hi):
        raise ValueError("splice mark touches a base vertex")
    forward = verts[(carrier + 1) % n][ax] > verts[carrier][ax]
    first, last = (u, v) if (u[ax] < v[ax]) == forward else (v, u)
    sverts = summand.vertices
    sn = len(sverts)
    pairs = ((sverts[t], sverts[(t + 1) % sn]) for t in range(sn))
    t = next((t for t, pair in enumerate(pairs) if pair in ((first, last), (last, first))), None)
    if t is None:
        raise ValueError("splice mark is not a segment of the summand")
    path = sverts[t + 1:] + sverts[:t + 1]
    if sverts[t] == first:
        path = path[::-1]
    return ClosedPolyline3(verts[: carrier + 1] + path + verts[carrier + 1:], dict(base.marks))


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
    return tuple(cube.corner[i] + cube.side * local[i] for i in range(3))


_ORIENTATIONS = ["y-edge", "y-edge-high", "x-edge-low", "x-edge-high"]
_cube_coordinates = st.fractions(min_value=F(-2), max_value=F(2), max_denominator=30)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_ORIENTATIONS), st.tuples(*[_cube_coordinates] * 3),
       st.fractions(min_value=F(1, 30), max_value=F(3), max_denominator=30), st.sampled_from(["trefoil", "figure-eight"]))
def test_placed_summand_is_the_unit_summand_oriented_into_the_cube(orientation, corner, side, knot):
    # one integer affine map per coordinate gives the Fraction images, and
    # the integer form kept with them is the one they give
    g = catalog(knot)
    unit = embed_into_box(g, (F(0),) * 3, F(1), "y-edge", _summand_stage(g.n))
    site = SpliceSite(1, 1, "custom", AxisSegment(0, (F(0), F(0)), F(0), F(1)), Cube(corner, side), orientation)
    placed = wildknot._placed(unit, site)
    assert placed.vertices == tuple(_reference_orient(v, site.cube, orientation) for v in unit.vertices)
    assert placed.marks["splice"] == tuple(sorted(
        _reference_orient(v, site.cube, orientation) for v in unit.marks["splice"]))
    assert placed.integer_form == ClosedPolyline3(placed.vertices).integer_form
    assert embed_into_box(g, corner, side, orientation, _summand_stage(g.n)).vertices == placed.vertices


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
    return SpliceSite(0, 0, "custom", AxisSegment(1, (x, F(0)), t_lo, t_hi),
                      Cube((x - side, t_lo, F(0)), side), "y-edge-high")


def _flat_quad(x, lo, hi, depth):
    """Rectangle from the segment x, y in [lo, hi] out to x - depth; the segment is its mark."""
    quad = [(x, lo, 0), (x - depth, lo, 0), (x - depth, hi, 0), (x, hi, 0)]
    return closed_polyline(quad, _mark(quad[0], quad[3]))


_HALF_SQUARE = [(F(1, 2), 0, 0), (F(1, 2), 1, 0), (1, 1, 0), (1, 0, 0)]


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
def test_sites_sharing_a_carrier_go_in_walk_order(order):
    spec = [(F(1, 9), F(2, 9)), (F(4, 9), F(5, 9)), (F(7, 9), F(8, 9))]
    pairs = [
        (_flat_site(F(1, 2), lo, hi), _flat_quad(F(1, 2), lo + F(1, 27), hi - F(1, 27), F(1, 27)))
        for lo, hi in (spec[k] for k in order)
    ]
    base = closed_polyline(_HALF_SQUARE)
    got = _splice_sites(base, pairs)
    assert got.vertices == _reference_loop(base, pairs).vertices
    ys = [y for x, y, _ in got.vertices if x == F(1, 2)]
    assert ys == sorted(ys) and len(got) == 4 + 3 * 4


def test_a_site_on_an_earlier_summand_splices_into_it():
    pairs = [
        (_flat_site(F(1, 2), F(1, 3), F(2, 3)), _flat_quad(F(1, 2), F(4, 9), F(5, 9), F(1, 3))),
        (_flat_site(F(1, 6), F(13, 27), F(14, 27)), _flat_quad(F(1, 6), F(13, 27), F(14, 27), F(1, 27))),
    ]
    base = closed_polyline(_HALF_SQUARE)
    got = _splice_sites(base, pairs)
    assert got.vertices == _reference_loop(base, pairs).vertices
    assert len(got) == 12 and is_simple(got)


def _shifted(poly, dx):
    verts = [(x + dx, y, z) for x, y, z in poly.vertices]
    return closed_polyline(verts, {"splice": tuple((x + dx, y, z) for x, y, z in poly.marks["splice"])})


def _broken(pairs, k, make):
    return pairs[:k] + [(pairs[k][0], make(*pairs[k]))] + pairs[k + 1:]


_BROKEN = {
    "no-mark": lambda site, s: ClosedPolyline3(s.vertices, {}),
    "leaves-cube": lambda site, s: _shifted(s, -site.cube.side / 2),
    "mark-not-a-segment": lambda site, s: ClosedPolyline3(
        s.vertices, {"splice": (site.T.endpoints()[0], site.T.endpoints()[1])}),
    # the bottom cube's whole face: it touches the next (left) site cube
    "touches-the-next-cube": lambda site, s: closed_polyline(
        [site.cube.corner, (site.cube.corner[0], site.cube.corner[1] + site.cube.side, 0),
         (site.cube.corner[0] + site.cube.side, site.cube.corner[1] + site.cube.side, 0),
         (site.cube.corner[0] + site.cube.side, site.cube.corner[1], 0)],
        {"splice": (site.cube.corner, (site.cube.corner[0] + site.cube.side, site.cube.corner[1], 0))}),
}


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


# a site on a side of the square [1/3, 2/3]^2 at z = 1/3, or on the far
# side of an earlier summand, with a rectangle summand bulging off it; all
# on the 1/729 grid, and short enough to stay in the unit cube
_N, _A, _B = 729, 243, 486
_SQUARE_HOSTS = [  # (axis, fixed coordinates, lo, hi) of the square's sides
    (1, (_A, _A), _A, _B), (0, (_B, _A), _A, _B), (1, (_B, _A), _A, _B), (0, (_A, _A), _A, _B),
]


@st.composite
def _site_pairs(draw):
    hosts = list(_SQUARE_HOSTS)
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        ax, fixed, lo, hi = draw(st.sampled_from(hosts))
        t_lo = draw(st.integers(lo, hi - 3))
        t_hi = draw(st.integers(t_lo + 3, min(hi, t_lo + 54)))
        side = t_hi - t_lo
        bulge = draw(st.sampled_from([(b, sgn) for b in range(3) if b != ax for sgn in (1, -1)]))
        third = 3 - ax - bulge[0]
        corner = [0, 0, 0]
        corner[ax] = t_lo
        for o, f in zip(_OTHER_AXES[ax], fixed):
            corner[o] = f
        corner[bulge[0]] -= side if bulge[1] < 0 else 0
        corner[third] -= draw(st.sampled_from([0, side]))
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
        mark = (quad[0], quad[3]) if draw(st.booleans()) else (quad[3], quad[0])
        t = AxisSegment(ax, tuple(F(f, _N) for f in fixed), F(t_lo, _N), F(t_hi, _N))
        site = SpliceSite(0, 0, "custom", t, Cube(tuple(F(c, _N) for c in corner), F(side, _N)), "y-edge")
        pairs.append((site, ClosedPolyline3(tuple(quad), {"splice": mark})))
        far_fixed = tuple(int(c * _N) for c in (quad[1][o] for o in _OTHER_AXES[ax]))
        hosts.append((ax, far_fixed, m_lo, m_hi) if m_hi - m_lo >= 3 else hosts[0])
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
            assert not entries[i].cube.interior_intersects_cube(entries[j].cube)


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
