from fractions import Fraction as F
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from spongeknots.polyline import ClosedPolyline3, PolylineError

_coordinates = st.builds(F, st.integers(-180, 180), st.integers(1, 60))
_points = st.tuples(_coordinates, _coordinates, _coordinates | st.integers(-3, 3))


def _polyline(points):
    try:
        return ClosedPolyline3(tuple(points))
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
    poly = ClosedPolyline3(((F(1, 3), 0, 0), (F(1, 2), 0, 0), (F(1, 2), 1, 0)))
    assert poly.integer_form is poly.integer_form
    assert poly.integer_form == (6, ((2, 0, 0), (3, 0, 0), (3, 6, 0)))


@settings(max_examples=200)
@given(st.integers(1, 10**6), st.lists(st.tuples(*[st.integers(-10**6, 10**6)] * 3), min_size=3, max_size=12))
def test_from_integers_keeps_the_integer_form_of_its_vertices(scale, points):
    try:
        poly = ClosedPolyline3.from_integers(scale, points, {"stage": 2})
    except PolylineError:
        return
    assert poly.vertices == tuple(tuple(F(c, scale) for c in p) for p in points)
    assert poly.marks == {"stage": 2}
    # the kept form is the one the vertices give
    assert poly.integer_form == ClosedPolyline3(poly.vertices).integer_form


def test_from_integers_builds_each_distinct_coordinate_once():
    poly = ClosedPolyline3.from_integers(9, [(0, 3, 0), (6, 3, 0), (6, 3, 9)])
    assert poly.integer_form == (3, ((0, 1, 0), (2, 1, 0), (2, 1, 3)))
    a, b, c = poly.vertices
    assert a[1] is b[1] is c[1] and a[2] is b[2]
