import pytest

from spongeknots.grid import (
    GridDiagram,
    catalog,
    catalog_names,
    validate,
    walk_points,
)
from spongeknots.invariants import determinant, diagram_from_grid, tricolorings


def test_unknot_valid():
    g = GridDiagram(2, ((1, 2), (2, 1)))
    assert validate(g) is None
    assert diagram_from_grid(g).crossing_count == 0


def test_validate_reports_first_violation():
    g = GridDiagram(3, ((1, 2), (1, 3), (3, 1)))
    v = validate(g)
    assert v is not None and v.rule == "a-permutation"
    g = GridDiagram(3, ((1, 2), (2, 2), (3, 1)))
    v = validate(g)
    assert v is not None and v.rule in ("b-permutation", "distinct-pair")
    g = GridDiagram(3, ((1, 1), (2, 3), (3, 2)))
    assert validate(g).rule == "distinct-pair"


def test_validate_rejects_links():
    # two disjoint unknot components
    g = GridDiagram(4, ((1, 2), (2, 1), (3, 4), (4, 3)))
    v = validate(g)
    assert v is not None and v.rule == "connected"


def test_walk_visits_every_marked_point_once():
    g = catalog("trefoil")
    pts = walk_points(g)
    assert len(pts) == 2 * g.n
    assert len(set(pts)) == 2 * g.n


def test_each_column_has_two_marked_points():
    for name in catalog_names():
        g = catalog(name)
        pts = walk_points(g)
        counts = {}
        for x, _ in pts:
            counts[x] = counts.get(x, 0) + 1
        assert all(c == 2 for c in counts.values())


def test_catalog_invariants():
    specs = {"unknot": (1, 3), "trefoil": (3, 9), "figure-eight": (5, 3)}
    for name, (det, tri) in specs.items():
        g = catalog(name)
        assert validate(g) is None
        d = diagram_from_grid(g)
        assert determinant(d) == det
        assert tricolorings(d) == tri


def test_catalog_sizes():
    assert catalog("unknot").n == 2
    assert catalog("trefoil").n == 5
    assert catalog("figure-eight").n == 6


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog("granny")


def test_diagram_from_grid_deterministic():
    g = catalog("figure-eight")
    assert diagram_from_grid(g) == diagram_from_grid(g)


def test_cyclic_row_rotation_preserves_determinant():
    g = catalog("trefoil")
    for shift in range(1, g.n):
        rotated = GridDiagram(g.n, g.pairs[shift:] + g.pairs[:shift])
        assert validate(rotated) is None
        assert determinant(diagram_from_grid(rotated)) == 3


def test_mirror_preserves_determinant():
    g = catalog("figure-eight")
    m = g.mirrored()
    assert validate(m) is None
    assert determinant(diagram_from_grid(m)) == 5


def test_json_roundtrip():
    g = catalog("trefoil")
    assert GridDiagram.from_json_dict(g.to_json_dict()) == g
