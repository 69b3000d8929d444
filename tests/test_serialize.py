"""Reading artifacts parses each distinct rational string once per load, and
reports a malformed one in the same words however many valid ones came first."""

import json
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongeknots import serialize
from spongeknots.grid import catalog
from spongeknots.polyline import PolylineError
from spongeknots.squareflake import squareflake
from oracle import closed_polyline, cube_of, embed_into_cube
from test_invariants import fraction_counter

RATIONAL = re.compile(r"-?\d+/\d+")


def _strings(value):
    """Every rational string among the JSON leaves of ``value``."""
    if isinstance(value, dict):
        return [s for v in value.values() for s in _strings(v)]
    if isinstance(value, list):
        return [s for v in value for s in _strings(v)]
    return [value] if isinstance(value, str) and RATIONAL.fullmatch(value) else []


@pytest.fixture
def parsed(monkeypatch):
    """The strings ``serialize`` hands to ``frac`` while the patch holds."""
    seen = []
    frac = serialize.frac

    def counting_frac(v):
        if type(v) is str:
            seen.append(v)
        return frac(v)

    monkeypatch.setattr(serialize, "frac", counting_frac)
    return seen


def test_each_load_parses_each_distinct_string_once(parsed):
    data = serialize.squareflake_json(squareflake(5))
    text = serialize.dump_json(data)
    strings = Counter(_strings(data))
    assert sum(strings.values()) > 2 * len(strings)  # the values do repeat
    _, first = serialize.load_artifact(text)
    assert Counter(parsed) == Counter(set(strings))
    # nothing outlives a load: the next one parses its own strings again
    _, second = serialize.load_artifact(text)
    assert Counter(parsed) == Counter({s: 2 for s in strings})
    assert first == second == squareflake(5)


@pytest.mark.parametrize("bad, message", [
    ("x/3", "replaced: path: Invalid literal for Fraction: 'x/3'"),
    ("1/0", "replaced: path: zero denominator: '1/0'"),
    (True, "malformed squareflake artifact: replaced: path: expected a rational, got True"),
    (1.0, "malformed squareflake artifact: replaced: path: expected a rational, got 1.0"),
])
def test_a_malformed_rational_after_valid_ones_is_reported_as_alone(bad, message):
    data = serialize.squareflake_json(squareflake(2))
    assert "1/1" in _strings(data)  # a valid string equal to True and to 1.0 comes first
    data["replaced"][-1]["path"][-1][2] = bad
    with pytest.raises(ValueError) as e:
        serialize.load_artifact(json.dumps(data))
    assert str(e.value) == message
    memo = {}
    for _ in range(2):  # a failed parse is not kept
        with pytest.raises((TypeError, ValueError)) as e:
            serialize.SQUAREFLAKE[1](data, memo)
        assert str(e.value) == message.removeprefix("malformed squareflake artifact: ")
        assert bad not in memo


def test_reading_a_polyline_makes_no_fraction_beyond_one_parse_per_distinct_string(monkeypatch):
    # the vertices and the integer marks of an embedding in a sponge cube
    poly = embed_into_cube(catalog("trefoil"), cube_of((F(2, 3), F(1, 3), F(0)), F(1, 3)), "x-edge-high")
    text = serialize.dump_json(serialize.polyline_json(poly))
    strings = set(_strings(json.loads(text)))
    built = fraction_counter(monkeypatch)
    _, loaded = serialize.load_artifact(text)
    assert sorted(built) == sorted((s,) for s in strings)
    assert loaded == poly and loaded.marks == poly.marks


_coordinates = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=40) | st.integers(-3, 3)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_coordinates, _coordinates, _coordinates), min_size=3, max_size=10),
       st.integers(0, 9))
def test_rational_curves_round_trip_through_dump_and_load(points, stage):
    try:
        poly = closed_polyline(points, {"splice": (points[0], points[1]), "sponge_stage": stage})
    except PolylineError:
        return
    data = serialize.polyline_json(poly)
    assert data["vertices"] == [[serialize.rat(c) for c in p] for p in points]
    text = serialize.dump_json(data)
    kind, loaded = serialize.load_artifact(text)
    assert kind == "polyline" and loaded == poly and loaded.vertices == poly.vertices
    assert loaded.marks == {"splice": tuple(tuple(F(c) for c in p) for p in points[:2]), "sponge_stage": stage}
    assert serialize.dump_json(serialize.polyline_json(loaded)) == text
