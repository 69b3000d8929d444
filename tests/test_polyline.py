from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongeknots.polyline import ClosedPolyline3, IntegerForm, PolylineError
from spongeknots.squareflake import squareflake
from oracle import closed_polyline
from test_invariants import fraction_counter

_coordinates = st.builds(F, st.integers(-180, 180), st.integers(1, 60))
_points = st.tuples(_coordinates, _coordinates, _coordinates | st.integers(-3, 3))


def _polyline(points):
    try:
        return closed_polyline(points)
    except PolylineError:
        return None


@settings(max_examples=200)
@given(st.lists(_points, min_size=3, max_size=12))
def test_integer_form_is_the_curve_times_the_lcm_of_its_denominators(points):
    poly = _polyline(points)
    if poly is None:
        return
    scale, ints = poly.integer_form
    assert scale == lcm(*(F(c).denominator for v in poly.vertices for c in v))
    assert len(ints) == len(poly)
    for v, p in zip(poly.vertices, ints):
        assert all(type(c) is int and F(c, scale) == x for c, x in zip(p, v))


def test_integer_form_is_computed_once():
    poly = closed_polyline(((F(1, 3), 0, 0), (F(1, 2), 0, 0), (F(1, 2), 1, 0)))
    assert poly.integer_form is poly.integer_form
    assert poly.integer_form == (6, ((2, 0, 0), (3, 0, 0), (3, 6, 0)))


@settings(max_examples=200)
@given(st.integers(1, 10**6), st.lists(st.tuples(*[st.integers(-10**6, 10**6)] * 3), min_size=3, max_size=12))
def test_integer_constructor_keeps_the_integer_form_of_its_vertices(scale, points):
    try:
        poly = ClosedPolyline3(IntegerForm(scale, points), {"stage": 2})
    except PolylineError:
        return
    assert poly.vertices == tuple(tuple(F(c, scale) for c in p) for p in points)
    assert poly.marks == {"stage": 2}
    # the kept form is the one the vertices give
    assert poly.integer_form == closed_polyline(poly.vertices).integer_form


def test_integer_constructor_builds_each_distinct_coordinate_once():
    poly = ClosedPolyline3(IntegerForm(9, [(0, 3, 0), (6, 3, 0), (6, 3, 9)]))
    assert poly.integer_form == (3, ((0, 1, 0), (2, 1, 0), (2, 1, 3)))
    a, b, c = poly.vertices
    assert a[1] is b[1] is c[1] and a[2] is b[2]


def test_curves_are_equal_exactly_when_their_vertices_are():
    halves = ClosedPolyline3(IntegerForm(2, ((1, 0, 0), (2, 0, 0), (2, 2, 0))), {"stage": 1})
    sixths = ClosedPolyline3(IntegerForm(6, ((3, 0, 0), (6, 0, 0), (6, 6, 0))))
    assert halves == sixths == closed_polyline([(F(1, 2), 0, 0), (1, 0, 0), (1, 1, 0)])
    assert hash(halves) == hash(sixths)
    assert halves != ClosedPolyline3(IntegerForm(3, ((1, 0, 0), (2, 0, 0), (2, 2, 0))))


@pytest.mark.parametrize("bad", [0.5, "1/2", F(1, 2), True, None])
def test_a_coordinate_that_is_not_an_int_fails_at_construction(bad):
    with pytest.raises(TypeError, match="expected an IntegerForm"):
        ClosedPolyline3(((bad, 0, 0), (1, 0, 0), (1, 1, 0)))
    with pytest.raises(TypeError, match="must be ints"):
        ClosedPolyline3(IntegerForm(2, ((bad, 0, 0), (2, 0, 0), (2, 2, 0))))
    with pytest.raises(TypeError, match="must be ints"):
        ClosedPolyline3(IntegerForm(bad, ((1, 0, 0), (2, 0, 0), (2, 2, 0))))


def test_the_integer_constructor_validates_on_ints():
    with pytest.raises(ValueError, match="scale must be >= 1"):
        ClosedPolyline3(IntegerForm(0, ((1, 0, 0), (2, 0, 0), (2, 2, 0))))
    with pytest.raises(PolylineError, match="need at least 3 vertices"):
        ClosedPolyline3(IntegerForm(1, ((1, 0, 0), (2, 0, 0))))
    with pytest.raises(PolylineError, match="consecutive duplicate vertex at index 1"):
        ClosedPolyline3(IntegerForm(1, ((1, 0, 0), (2, 0, 0), (2, 0, 0), (2, 2, 0))))
    with pytest.raises(PolylineError, match="consecutive duplicate vertex at index 3"):
        ClosedPolyline3(IntegerForm(1, ((1, 0, 0), (2, 0, 0), (2, 2, 0), (1, 0, 0))))


@pytest.mark.parametrize("bad", [0.5, True])
def test_closed_polyline_keeps_the_type_error_of_frac(bad):
    with pytest.raises(TypeError, match="not an exact rational"):
        closed_polyline([(bad, 0, 0), (1, 0, 0), (1, 1, 0)])


def test_building_a_curve_from_its_integer_form_makes_no_fraction(monkeypatch):
    scale, points = squareflake(6).polyline.integer_form
    built = fraction_counter(monkeypatch)
    poly = ClosedPolyline3(IntegerForm(3 * scale, tuple(tuple(3 * c for c in p) for p in points)))
    assert poly.integer_form == (scale, points) and len(poly) == len(points)
    assert built == []
