from fractions import Fraction as F

import pytest

from spongeknots.embed import (
    embed_grid,
    embed_into_box,
    embed_into_cube,
    stage_for,
    verify_containment,
)
from spongeknots.geometry import Cube
from spongeknots.grid import catalog
from spongeknots.invariants import (
    determinant,
    determinant_minor,
    diagram_from_grid,
    is_simple,
    project,
    project_generic,
    tricolorings,
)


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


def test_crossing_fidelity_depth_projection():
    g = catalog("figure-eight")
    poly, rep = embed_grid(g)
    planar = diagram_from_grid(g)
    diagram = project(poly, (0, 0, 1))
    p = {v: rep.endpoints[v - 1] for v in range(1, g.n + 1)}
    expected = {(p[col], p[row]) for col, row in (c.point for c in planar.crossings)}
    got = {c.point for c in diagram.crossings}
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
    seen = []
    for skip in range(3):
        d, direction = project_generic(poly, skip=skip)
        seen.append((direction, determinant(d)))
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
