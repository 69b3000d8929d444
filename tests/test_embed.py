import io
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction as F
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spongeknots import checks, embed, serialize, ternary

from spongeknots.embed import (
    embed_grid,
    embed_into_box,
    embed_into_cube,
    stage_for,
    verify_containment,
)
from spongeknots.geometry import Cube
from spongeknots.grid import catalog, catalog_names
from spongeknots.invariants import (
    determinant,
    determinant_minor,
    diagram_from_grid,
    is_simple,
    project,
    tricolorings,
)
from spongeknots.geometry import axis_form
from spongeknots.polyline import closed_polyline
from spongeknots.squareflake import squareflake
from spongeknots.ternary import (
    AxisSegment, cantor_endpoints, cantor_numerators, segment_in_stage, triadic_exponent,
)
from spongeknots.wildknot import KnotAssignment, approximant, wild_set_plan
from test_invariants import crossing_points, fraction_counter, generic_views
from test_ternary import _reference_segment_in_stage

SRC = Path(__file__).resolve().parents[1] / "src"


def test_stage_for():
    assert stage_for(2) == 0
    assert stage_for(5) == 2  # 2^3 = 8 >= 5, 2^2 = 4 < 5
    assert stage_for(8) == 2  # boundary: 2^3 = 8
    assert stage_for(9) == 3
    with pytest.raises(ValueError):
        stage_for(0)


def test_unknot_embedding():
    poly, rep = embed_grid(catalog("unknot"))
    assert rep.stage == 0
    assert len(poly) == 8  # 4n segments
    assert all(verify_containment(poly, rep.stage))
    assert is_simple(poly)


@pytest.mark.parametrize(
    "name,n,det",
    [("trefoil", 5, 3), ("figure-eight", 6, 5)],
)
def test_knot_embeddings(name, n, det):
    g = catalog(name)
    poly, rep = embed_grid(g)
    assert rep.stage == 2  # 2^(2+1) = 8 endpoints suffice
    assert len(poly) == 4 * n
    assert all(verify_containment(poly, rep.stage))
    assert is_simple(poly)
    d = project(poly, (0, 0, 1))
    assert determinant(d) == det
    assert determinant_minor(d) == det


def test_endpoints_are_smallest_cantor_endpoints():
    _, rep = embed_grid(catalog("trefoil"))
    assert rep.endpoints == (0, F(1, 9), F(2, 9), F(1, 3), F(2, 3))
    assert rep.endpoints == tuple(sorted(rep.endpoints))


def test_stage_override():
    g = catalog("unknot")
    poly, rep = embed_grid(g, k=2)
    assert rep.stage == 2
    assert all(verify_containment(poly, rep.stage))
    assert is_simple(poly)
    with pytest.raises(ValueError):
        embed_grid(catalog("trefoil"), k=1)  # 4 endpoints < 5
    with pytest.raises(ValueError, match="stage must be >= 0"):
        embed_grid(catalog("trefoil"), k=-5)  # not "only 0.0625 endpoints"


@pytest.mark.parametrize("name", catalog_names())
def test_first_endpoints_are_the_first_cantor_endpoints(name):
    n = catalog(name).n
    for k in range(stage_for(n), 9):
        want = tuple(cantor_endpoints(k)[:n])
        assert tuple(F(c, 3**k) for c in cantor_numerators(k, n)) == want
        assert embed_grid(catalog(name), k)[1].endpoints == want
    assert cantor_numerators(3, 16) == cantor_numerators(3) == [c * 27 for c in cantor_endpoints(3)]


def _limited_run(argv, cwd):
    """The CLI in a child process with 1 GB of address space and 10 s."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "spongeknots.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=10, preexec_fn=limit)


def test_an_embedding_at_a_deep_stage_builds_and_verifies_promptly(tmp_path):
    # the endpoints are made directly: no 2**41 of them are listed first
    build = _limited_run(["build", "embed", "--knot", "trefoil", "--stage", "40", "--out", "."], tmp_path)
    verify = _limited_run(["verify", "embed-trefoil.json"], tmp_path)
    for proc in (build, verify):
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines and all(": PASS" in line for line in lines), proc.stdout
    assert "containment: PASS (stage 40)" in verify.stdout


def test_crossing_fidelity_depth_projection():
    g = catalog("figure-eight")
    poly, rep = embed_grid(g)
    planar = diagram_from_grid(g)
    diagram = project(poly, (0, 0, 1))
    p = {v: rep.endpoints[v - 1] for v in range(1, g.n + 1)}
    expected = {(p[col], p[row]) for col, row in crossing_points(planar)}
    got = set(crossing_points(diagram))
    assert got == expected
    # columns live on the front face z=0, rows on the back face z=1, and the
    # viewer looks along +z: every crossing keeps the vertical strand over,
    # which the projected diagram realizes as front-under-back depth order.
    assert diagram.crossing_count == planar.crossing_count


def test_invariant_preservation_grid_vs_projection():
    for name in ("unknot", "trefoil", "figure-eight"):
        g = catalog(name)
        poly, _ = embed_grid(g)
        d_grid = diagram_from_grid(g)
        d_proj = project(poly, (0, 0, 1))
        assert determinant(d_grid) == determinant(d_proj)
        assert tricolorings(d_grid) == tricolorings(d_proj)


def test_determinant_invariant_across_generic_directions():
    poly, _ = embed_grid(catalog("trefoil"))
    seen = [(direction, determinant(d)) for d, direction in islice(generic_views(poly), 3)]
    dirs = {s[0] for s in seen}
    assert len(dirs) == 3
    assert {s[1] for s in seen} == {3}


def test_embed_into_identity_cube_matches_embed_grid():
    g = catalog("trefoil")
    poly, _ = embed_grid(g)
    boxed = embed_into_box(g, (F(0), F(0), F(0)), F(1))
    assert boxed.vertices == poly.vertices
    assert "splice" in boxed.marks


def test_embed_unknot_into_surviving_cube():
    q = Cube((F(2, 3), F(1, 3), F(0)), F(1, 3))
    poly = embed_into_cube(catalog("unknot"), q)
    assert is_simple(poly)
    assert all(q.contains_point(v) for v in poly.vertices)
    stage = poly.marks["sponge_stage"]
    assert all(verify_containment(poly, stage))


def test_embed_trefoil_into_stage2_cube():
    q = Cube((F(7, 9), F(1, 3), F(0)), F(1, 9))
    poly = embed_into_cube(catalog("trefoil"), q)
    assert is_simple(poly)
    stage = poly.marks["sponge_stage"]
    assert stage == 2 + 2
    assert all(verify_containment(poly, stage))


def test_embed_into_removed_cube_rejected():
    center = Cube((F(1, 3), F(1, 3), F(1, 3)), F(1, 3))
    with pytest.raises(ValueError):
        embed_into_cube(catalog("unknot"), center)
    off_grid = Cube((F(1, 5), F(0), F(0)), F(1, 3))
    with pytest.raises(ValueError):
        embed_into_cube(catalog("unknot"), off_grid)


def test_mark_lies_on_cube_edge():
    q = Cube((F(7, 9), F(1, 3), F(0)), F(1, 9))
    poly = embed_into_cube(catalog("trefoil"), q, orientation="x-edge-low")
    u, v = poly.marks["splice"]
    # x-edge-low exposes the low-y edge at the corner z level
    assert u[1] == v[1] == F(1, 3)
    assert u[2] == v[2] == F(0)
    assert F(7, 9) <= u[0] < v[0] <= F(8, 9)


def test_containment_stage_monotone_for_embeddings():
    poly, rep = embed_grid(catalog("figure-eight"))
    for k in range(rep.stage + 3):
        assert all(verify_containment(poly, k))


@pytest.mark.parametrize("name", catalog_names())
def test_embedding_grid_stage_is_its_stage(name):
    # build checks an embedding at the stage verify infers from its grid
    g = catalog(name)
    for k in range(stage_for(g.n), 7):
        poly, rep = embed_grid(g, k)
        assert checks._grid_stage(poly) == rep.stage == k


def test_polyline_suite_checks_the_determinant_of_the_knot_it_is_given():
    poly, _ = embed_grid(catalog("trefoil"))
    assert checks.polyline(poly).results == [("containment", True, "stage 2"), ("simplicity", True, "")]
    # the trefoil's curve named as a figure-eight fails both knot checks
    report = io.StringIO()
    checks.polyline(poly, knot="figure-eight").report(report)
    assert report.getvalue().splitlines() == [
        "containment: PASS (stage 2)", "simplicity: PASS", "determinant: FAIL (det 3)", "grid-projection-match: FAIL",
    ]


@pytest.mark.parametrize("space", ["sponge", "carpet2"])
def test_containment_past_the_grid_stage_is_containment_at_it(space):
    # fixed coordinates on the 3**-E grid have no 1 digit past E in either
    # expansion, so stages E, E + 1, ... keep the same grid segments
    rng = random.Random(9)
    for _ in range(150):
        e = rng.randrange(5)
        lo, hi = sorted(rng.sample(range(3**e + 1), 2)) if e else (0, 1)
        seg = AxisSegment(rng.randrange(3), (F(rng.randrange(3**e + 1), 3**e), F(rng.randrange(3**e + 1), 3**e)),
                          F(lo, 3**e), F(hi, 3**e))
        verdict = segment_in_stage(seg, e, space)
        assert all(ternary._walk(seg, k, space) == verdict for k in range(e + 1, e + 5))


@pytest.mark.parametrize("stage", range(1, 8))
def test_containment_check_matches_containment_at_the_stored_stage(stage):
    # grid stage 3; the rectangle's bottom side is removed by stage 2, not by stage 1
    late = closed_polyline([(F(1, 9), F(4, 27), 0), (F(2, 9), F(4, 27), 0), (F(2, 9), 1, 0), (F(1, 9), 1, 0)])
    for poly in (squareflake(3).polyline, late):
        assert checks._grid_stage(poly) == 3
        name, ok, detail = checks.polyline(closed_polyline(poly.vertices, {"sponge_stage": stage})).results[0]
        assert (name, detail) == ("containment", f"stage {stage}")
        assert ok == all(verify_containment(poly, stage)) == (poly is not late or stage < 2)


# denominators 3**j * d whose orders of 3 modulo d are 1, 2, 3 and 6
_coordinates = st.tuples(st.sampled_from((1, 2, 4, 7, 8, 13, 14, 26)), st.integers(0, 2)).flatmap(
    lambda dj: st.integers(0, dj[0] * 3 ** dj[1]).map(lambda a: F(a, dj[0] * 3 ** dj[1])))


_triadic = st.integers(0, 3).flatmap(lambda j: st.integers(0, 3**j).map(lambda a: F(a, 3**j)))


@st.composite
def _segments(draw):
    """Any segment; a short one from 0 on a face, the kind whose verdict
    settles late; or one on a line of a triadic grid whose ends need not
    be triadic, which settles at the grid's stage."""
    kind = draw(st.sampled_from(("any", "short", "triadic-line")))
    line = _triadic if kind == "triadic-line" else _coordinates
    if kind == "short":
        d, j = draw(st.sampled_from((1, 2, 4, 7, 8, 13, 14, 26))), draw(st.integers(1, 6))
        lo, hi, other = F(0), F(1, d * 3**j), F(0)
    else:
        lo, hi = sorted(draw(st.lists(_coordinates, min_size=2, max_size=2, unique=True)))
        other = draw(line)
    return AxisSegment(draw(st.integers(0, 2)), (draw(line), other), lo, hi)


@given(_segments(), st.sampled_from(["sponge", "carpet2"]))
@settings(max_examples=150, deadline=None)
def test_containment_past_the_settled_stage_is_containment_at_it(seg, space):
    # segment_in_stage decides at the segment's own settled stage, never
    # past cap, and the walk at k itself: they agree at every k exactly
    # when the verdict has settled by then
    cap = ternary._settled_stage((*seg.fixed, seg.lo, seg.hi), 10**9)
    assert all(segment_in_stage(seg, k, space) == ternary._walk(seg, k, space) for k in range(3 * cap + 1))


def test_one_period_past_the_preperiod_does_not_settle_containment():
    seg = AxisSegment(1, (F(9, 26), F(0)), F(0), F(1, 13))  # preperiod 0, period 3
    assert [segment_in_stage(seg, k) for k in range(6)] == [True] * 4 + [False] * 2
    assert ternary._settled_stage((*seg.fixed, seg.lo, seg.hi), 10**9) == 21


def test_containment_of_a_non_triadic_curve_is_decided_at_its_settled_stage():
    square = [(F(1, 2), 0, 0), (F(1, 2), 1, 0), (1, 1, 0), (1, 0, 0)]
    assert ternary._settled_stage((c for v in closed_polyline(square).vertices for c in v), 10**5) == 7
    for stage in (1, 7, 10, 10**5):
        name, ok, detail = checks.polyline(closed_polyline(square, {"sponge_stage": stage})).results[0]
        assert (name, ok, detail) == ("containment", False, f"stage {stage}")


# --- containment of whole curves against the loop it replaced ----------------

def _walk_stage(seg, stage):
    """The stage segment_in_stage decides the segment at, asked for ``stage``."""
    exponents = [triadic_exponent(c.denominator) for c in seg.fixed]
    if None in exponents:
        return min(stage, ternary._settled_stage((*seg.fixed, seg.lo, seg.hi), stage))
    return min(stage, max(exponents))


def _reference_verify_containment(poly, stage, space="sponge"):
    """Per-segment verdicts by the Fraction unit-cube test, then the cell
    enumeration of test_ternary at the stage each segment settles at."""
    verdicts = []
    for a, b in poly.segments():
        form = axis_form(a, b)
        inside = form is not None and all(0 <= c <= 1 for c in a + b)
        if inside:
            seg = AxisSegment(*form)
            inside = _reference_segment_in_stage(seg, _walk_stage(seg, stage), space)
        verdicts.append(inside)
    return tuple(verdicts)


@pytest.fixture(scope="module")
def benchmark_curves():
    """(curve, stored stage) of the full build of each benchmark workload."""
    wild = approximant(wild_set_plan([F(0), F(1)], "trefoil", 7), 7)
    uniform = approximant(KnotAssignment.uniform("trefoil", 4), 4)
    return [(wild.polyline, wild.sponge_stage), (uniform.polyline, uniform.sponge_stage),
            (squareflake(8).polyline, 8)]


def test_containment_of_the_benchmark_curves_matches_the_reference(benchmark_curves):
    for poly, stage in benchmark_curves:
        verdicts = verify_containment(poly, stage)
        assert verdicts == _reference_verify_containment(poly, stage)
        assert all(verdicts)


def test_containment_of_a_triadic_curve_builds_no_fraction(benchmark_curves, monkeypatch):
    _, (poly, stage), _ = benchmark_curves
    poly = closed_polyline(poly.vertices)
    built = fraction_counter(monkeypatch)
    assert all(verify_containment(poly, stage))
    assert built == []


def test_containment_of_moved_benchmark_curves_matches_the_reference(benchmark_curves):
    # one vertex's coordinate moved out of the cube, or onto its faces as a
    # plain int: its two segments become oblique, leave the cube or run on
    rng = random.Random(14)
    seen = set()
    for poly, stage in benchmark_curves:
        i = rng.randrange(len(poly))
        for axis in range(3):
            for value in (F(-1, 3), F(4, 3), 0, 1):
                vertices = list(poly.vertices)
                vertices[i] = vertices[i][:axis] + (value,) + vertices[i][axis + 1:]
                if vertices[i] in (vertices[i - 1], vertices[(i + 1) % len(poly)]):
                    continue
                moved = closed_polyline(tuple(vertices))
                verdicts = verify_containment(moved, stage)
                assert verdicts == _reference_verify_containment(moved, stage), (i, axis, value)
                seen.add(verdicts[i - 1])
    assert seen == {True, False}


@pytest.mark.parametrize("space", ["sponge", "carpet2"])
def test_containment_off_the_triadic_grid_matches_the_reference(space):
    oblique = closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    halves = closed_polyline([(F(1, 2), 0, 0), (F(1, 2), 1, 0), (1, 1, 0), (1, 0, 0)])
    quarters = closed_polyline([(F(1, 4), 0, F(1, 4)), (F(1, 4), 1, F(1, 4)), (F(3, 4), 1, F(1, 4)),
                                (F(3, 4), F(1, 13), F(1, 4)), (F(3, 4), F(1, 13), F(9, 26)),
                                (F(3, 4), 0, F(9, 26))])
    verdicts = set()
    for poly, stages in ((oblique, (0, 1, 4)), (halves, (0, 1, 2, 10**6)), (quarters, range(6))):
        for stage in stages:
            got = verify_containment(poly, stage, space)
            assert got == _reference_verify_containment(poly, stage, space), (poly, stage)
            verdicts |= set(got)
    assert verdicts == {True, False}


# --- one memo of digits per containment pass ----------------------------------

# few values, so that a walk repeats them: triadic, not triadic, and off the cube
_WALK_VALUES = st.sampled_from([F(0), F(1), F(1, 3), F(2, 3), F(1, 9), F(7, 9), F(4, 27), F(20, 27),
                                F(1, 2), F(1, 4), F(9, 26), F(1, 13), F(-1, 3), F(4, 3)])


@st.composite
def axis_walks(draw):
    """A closed curve whose steps each change one coordinate; the step that
    closes it may change several, and is then oblique."""
    point = draw(st.tuples(_WALK_VALUES, _WALK_VALUES, _WALK_VALUES))
    vertices = [point]
    for _ in range(draw(st.integers(min_value=2, max_value=16))):
        axis = draw(st.integers(min_value=0, max_value=2))
        c = draw(_WALK_VALUES.filter(lambda c: c != point[axis]))
        point = point[:axis] + (c,) + point[axis + 1:]
        vertices.append(point)
    assume(vertices[-1] != vertices[0])
    return closed_polyline(tuple(vertices))


@settings(max_examples=300, deadline=None)
@given(axis_walks(), st.integers(min_value=0, max_value=5), st.sampled_from(["sponge", "carpet2"]))
def test_one_memo_per_pass_matches_fresh_calls_per_segment(poly, stage, space):
    fresh = []
    for a, b in poly.segments():
        form = axis_form(a, b)
        inside = form is not None and all(0 <= c <= 1 for c in a + b)
        fresh.append(inside and segment_in_stage(AxisSegment(*form), stage, space))
    assert verify_containment(poly, stage, space) == tuple(fresh) == _reference_verify_containment(poly, stage, space)


def test_one_pass_splits_each_value_at_each_stage_at_most_twice(benchmark_curves, monkeypatch):
    # a value has at most two stage-k cells, which also give the digits of
    # a running end, so one pass splits at most two digit strings per
    # distinct (value, stage); a fresh memo per segment splits far more
    split = []
    digit_bytes = ternary._digit_bytes
    monkeypatch.setattr(ternary, "_digit_bytes", lambda i, k: split.append((i, k)) or digit_bytes(i, k))
    for poly, stage in benchmark_curves:
        segments = [AxisSegment.from_endpoints(a, b) for a, b in poly.segments()]
        pairs = {(c, _walk_stage(seg, stage)) for seg in segments for c in (*seg.fixed, seg.lo, seg.hi)}
        split.clear()
        assert all(verify_containment(poly, stage))
        in_one_pass = len(split)
        split.clear()
        assert all(segment_in_stage(seg, stage) for seg in segments)
        assert 0 < in_one_pass <= 2 * len(pairs) < len(split), (in_one_pass, len(pairs), len(split))


# --- the pass settles segments per coordinate value ---------------------------

@pytest.mark.parametrize("space", ["nonsense", "cantor", "carpet_face"])
def test_containment_checks_the_space_before_any_segment(space):
    # no segment of the oblique curve reaches segment_in_stage, and every
    # segment of squareflake(3) settles before it, so only a check up
    # front sees the space
    oblique = closed_polyline([(0, 0, 0), (1, 1, 0), (1, 0, 1)])
    for poly in (oblique, squareflake(3).polyline):
        with pytest.raises(ValueError, match="space must be 'sponge' or 'carpet2'"):
            verify_containment(poly, 2, space)


def _walk_counter(monkeypatch):
    """A list of the calls the pass makes of the range test while the patch holds."""
    walked = []
    range_kept = embed._range_kept
    monkeypatch.setattr(embed, "_range_kept", lambda *a: walked.append(a) or range_kept(*a))
    return walked


def test_a_squareflake_pass_walks_no_segment_and_builds_no_fraction(monkeypatch):
    curves = [squareflake(m).polyline for m in range(1, 9)]
    walked = _walk_counter(monkeypatch)
    built = fraction_counter(monkeypatch)
    for m, poly in enumerate(curves, start=1):
        assert all(verify_containment(poly, m))
    assert walked == built == []


def _settles(x):
    """x is triadic and one of its expansions has no digit 1."""
    return triadic_exponent(x.denominator) is not None and any(
        1 not in e.preperiod + e.period for e in ternary.expansions(x))


def test_a_pass_walks_exactly_the_segments_it_cannot_settle(benchmark_curves, monkeypatch):
    # every exponent is at most the stored stage, so a value settles when
    # one of its expansions has no digit 1; a sponge segment settles when
    # both its fixed coordinates do
    walked = _walk_counter(monkeypatch)
    counts = []
    for poly, stage in benchmark_curves:
        assert max(triadic_exponent(c.denominator) or 0 for v in poly.vertices for c in v) <= stage
        unsettled = [seg for seg in map(AxisSegment.from_endpoints, *zip(*poly.segments()))
                     if not all(map(_settles, seg.fixed))]
        walked.clear()
        assert all(verify_containment(poly, stage))
        assert len(walked) == len(unsettled)
        counts.append(len(walked))
    assert counts == [238, 735, 0]


def test_the_range_test_runs_once_per_unsettled_segment_of_uniform_m_7(monkeypatch):
    approx = approximant(KnotAssignment.uniform("trefoil", 7), 7)
    unsettled = sum(not all(map(_settles, axis_form(a, b)[1])) for a, b in approx.polyline.segments())
    walked = _walk_counter(monkeypatch)
    assert all(verify_containment(approx.polyline, approx.sponge_stage))
    assert len(walked) == unsettled == 6223


_small_rationals = st.tuples(st.sampled_from((1, 2, 4, 5, 7, 8, 10, 13, 14, 26)), st.integers(0, 6)).flatmap(
    lambda dj: st.integers(0, dj[0] * 3 ** dj[1]).map(lambda a: F(a, dj[0] * 3 ** dj[1])))


@given(_small_rationals, st.integers(0, 8))
@settings(max_examples=400, deadline=None)
def test_a_value_with_an_expansion_free_of_ones_has_a_cell_free_of_ones(x, k):
    # what lets the pass settle a triadic value at one stage for the walk
    # at any other: its stage-e cells are its expansions cut at e, and a
    # 1-free expansion gives a 1-free cell at every stage k
    free = any(1 not in e.preperiod + e.period for e in ternary.expansions(x))
    e = triadic_exponent(x.denominator)
    if e is not None:
        assert free == any(1 not in ds for ds in ternary.ternary_digits(x, e))
    if free:
        assert any(1 not in ds for ds in ternary.ternary_digits(x, k))


def test_obj_text_is_that_of_the_fraction_values(benchmark_curves):
    off_grid = closed_polyline([(F(1, 7), 0, F(5, 13)), (F(1, 7), F(10**20 + 1, 3 * 10**20), F(5, 13)),
                                (1, F(1, 3), F(2, 3))])
    for poly in [p for p, _ in benchmark_curves] + [off_grid]:
        lines = serialize.polyline_obj(poly).splitlines()
        assert lines[1:-1] == ["v " + " ".join(repr(float(c)) for c in v) for v in poly.vertices]
