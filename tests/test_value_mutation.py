"""Values of the right JSON type, edited in a stored artifact: ``verify``
answers each within a second, with check lines or one usage-error line,
never a traceback.

``test_artifact_mutation.py`` swaps JSON types; this corpus keeps each
type and swaps values: integers and rationals for extreme or awkward ones,
arrays for a shorter, longer or rotated copy. A fixed seeded sample of the
edits runs, so the test stays within a few seconds.
"""

import json
import random
import re
import time
from fractions import Fraction as F

import pytest

from spongeknots import serialize
from spongeknots.cli import main
from spongeknots.embed import embed_grid
from spongeknots.grid import catalog
from spongeknots.necklace import iterate, make_necklace
from spongeknots.squareflake import squareflake
from spongeknots.wildknot import KnotAssignment, approximant
from oracle import closed_polyline

INTEGERS = (-1, 0, 1, 7, 10**6, 10**9)
RATIONALS = tuple(serialize.rat(x) for x in (F(0), F(1), F(1, 2), F(-1, 3), F(4, 3), F(1, 1000003)))
_RATIONAL = re.compile(r"-?\d+/\d+")
_CHECK_LINE = re.compile(r"[\w-]+: (PASS|FAIL)\b")


def _square():
    return closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])


ARTIFACTS = {
    "embed": lambda: serialize.polyline_json(embed_grid(catalog("trefoil"))[0]),
    "squareflake": lambda: serialize.squareflake_json(squareflake(3)),
    "approximant": lambda: serialize.approximant_json(approximant(KnotAssignment.uniform("trefoil", 2), 2)),
    "assignment": lambda: serialize.assignment_json(KnotAssignment.uniform("trefoil", 2)),
    "necklace": lambda: serialize.necklace_json(make_necklace(_square(), 3), iterate(make_necklace(_square(), 3), 2)),
}


def _edits(node, path=()):
    """(path, new value) for every value edit of every position in a JSON
    document: each integer and rational to each of INTEGERS and RATIONALS,
    each array without its last item, with its first doubled, rotated by one."""
    if type(node) is int:
        yield from ((path, v) for v in INTEGERS if v != node)
    elif type(node) is str and _RATIONAL.fullmatch(node):
        yield from ((path, v) for v in RATIONALS if v != node)
    elif isinstance(node, list):
        if node:
            yield path, node[:-1]
            yield path, [node[0], *node]
        if node[1:] != node[:-1]:
            yield path, [*node[1:], node[0]]
        for i, child in enumerate(node):
            yield from _edits(child, (*path, i))
    elif isinstance(node, dict):
        for key, child in node.items():
            yield from _edits(child, (*path, key))


def _edited(doc, path, value):
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _sample():
    """A fixed seeded sample of (kind, path, value), 40 edits per artifact."""
    rng = random.Random(2026)
    return [
        (kind, path, value)
        for kind in sorted(ARTIFACTS)
        for path, value in rng.sample(list(_edits(ARTIFACTS[kind]())), 40)
    ]


def test_every_value_edit_is_answered_promptly_with_check_lines_or_a_usage_error(tmp_path, capsys):
    start = time.perf_counter()
    docs = {kind: make() for kind, make in ARTIFACTS.items()}
    codes = set()
    f = tmp_path / "edited.json"
    for kind, path, value in _sample():
        f.write_text(json.dumps(_edited(docs[kind], path, value)))
        begin = time.perf_counter()
        code = main(["verify", str(f)])  # an exception here is the traceback this test forbids
        assert time.perf_counter() - begin < 1, (kind, path, value)
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        if code == 2:
            # every usage error is one "error:" line
            assert out == "" and len(err.splitlines()) == 1, (kind, path, value, err)
            assert err.startswith("error: "), (kind, path, value, err)
        else:
            assert code in (0, 1), (kind, path, value, code)
            lines = out.splitlines()
            assert lines and all(_CHECK_LINE.match(line) for line in lines), (kind, path, value, out)
        codes.add(code)
    assert codes == {0, 1, 2}
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_the_unedited_artifacts_verify(tmp_path, capsys, kind):
    f = tmp_path / f"{kind}.json"
    f.write_text(serialize.dump_json(ARTIFACTS[kind]()))
    assert main(["verify", str(f)]) == 0
