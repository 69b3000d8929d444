"""The artifact writer writes the bytes of the stock indented encoder, and
the vertex reader gives the curve, or the error, of the point-by-point
table reader."""

import json
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spongeknots import serialize
from spongeknots.polyline import ClosedPolyline3
from spongeknots.squareflake import squareflake
from oracle import closed_polyline


def _stock(value):
    return json.dumps(value, indent=1, ensure_ascii=False) + "\n"


# quotes, backslashes, control characters, non-BMP characters, lone surrogates
_SPECIAL = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", " ", "\U0001f600", "\ud800", "\udfff"])
_STRINGS = st.text(st.characters() | _SPECIAL, max_size=6)
_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80) | _STRINGS
           | st.sampled_from([0, -1, 2**64, -2**64 - 1]))


def _containers(children):
    return (st.lists(children, max_size=5) | st.tuples(children, children)
            | st.dictionaries(_STRINGS, children, max_size=5)
            # string rows of one length, the points of a curve, and ragged ones
            | st.integers(0, 3).flatmap(lambda n: st.lists(st.lists(_STRINGS, min_size=n, max_size=n), max_size=4))
            | st.lists(st.lists(_STRINGS, max_size=3), max_size=4))


_VALUES = st.recursive(_LEAVES, _containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_writer_writes_the_bytes_of_the_stock_indented_encoder(value):
    assert serialize.dump_json(value) == _stock(value)


def test_writer_writes_every_artifact_as_the_stock_encoder_does():
    data = serialize.squareflake_json(squareflake(4))
    assert serialize.dump_json(data) == _stock(data)
    empties = [[], {}, (), [[]], [[], []], {"": [[""]]}]
    assert serialize.dump_json(empties) == _stock(empties)


@pytest.mark.parametrize("value, name", [
    (0.5, "float"), ({1: "a"}, "int"), ({"a": [1, {None: 2}]}, "NoneType"), ({"a", "b"}, "set"),
    (["1/3", 0.5], "float"), ([["1/3"], [0.5]], "float"), (F(1, 3), "Fraction"),
])
def test_writer_raises_a_type_error_naming_what_it_does_not_write(value, name):
    with pytest.raises(TypeError, match=name):
        serialize.dump_json(value)


# --- vertices read straight to the integer form --------------------------------

_GOOD = st.sampled_from(["0/1", "1/1", "1/3", "2/3", "1/9", "8/9", "-1/3", "4/3", "1/2", "5/7"])
_BAD = (st.sampled_from(["x/3", "1/0", "2/6", "", "1/-3"])
        | st.integers(-2, 2) | st.booleans() | st.none() | st.just(0.5))
_ROWS = (st.lists(_GOOD, min_size=3, max_size=3)
         | st.lists(_GOOD | _BAD, min_size=3, max_size=3)
         | st.lists(_GOOD, min_size=2, max_size=4)
         | _GOOD | _BAD | st.dictionaries(_GOOD, _GOOD, max_size=1))
_VERTICES = st.lists(_ROWS, max_size=7) | st.lists(st.lists(_GOOD, min_size=3, max_size=3), max_size=7) | _BAD


def _outcome(read, v):
    """What reading ``v`` with ``read`` gives: a value, or an error's type and text."""
    try:
        return read(v)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


def _fast_curve(v):
    return ClosedPolyline3(serialize._read_integer_points(v, {})).integer_form


def _table_curve(v):
    return closed_polyline(serialize.POINTS[1](v, {})).integer_form


@settings(max_examples=400, deadline=None)
@given(_VERTICES)
# int leaves and an empty array, which only the point-by-point reader takes
@example([[0, 0, 0], [1, "0/1", 0], [1, 1, 0]])
@example([])
def test_vertices_read_to_the_curve_or_the_error_of_the_table_reader(v):
    assert _outcome(_fast_curve, v) == _outcome(_table_curve, v)


def test_the_first_bad_vertex_in_document_order_is_reported():
    # in some of the orders the first bad string is not the first that a
    # set of the strings yields
    for bad in permutations(["x/3", "1/0", "y/9", "1/-3"]):
        v = [["0/1", "0/1", "0/1"], *([s, "1/1", "0/1"] for s in bad)]
        error = _outcome(_fast_curve, v)
        assert error == _outcome(_table_curve, v) and repr(bad[0]) in error[1]
