"""Reading artifacts parses each distinct rational string once per load, and
reports a malformed one in the same words however many valid ones came first."""

import json
import re
from collections import Counter

import pytest

from spongeknots import serialize
from spongeknots.squareflake import squareflake

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
    for _ in range(2):  # a failed parse is not kept
        with pytest.raises(ValueError) as e:
            serialize.load_artifact(json.dumps(data))
        assert str(e.value) == message
