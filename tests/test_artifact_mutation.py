"""Every JSON leaf and container of a stored artifact, replaced in turn by a
value of every other JSON type, is a schema mismatch and never a traceback.

The type each field takes is written here from README's Conventions, not
read from ``serialize``'s declarations, so that the test checks the
declarations against the documented format instead of restating them.
"""

import copy
import json
from fractions import Fraction as F

import pytest

from spongeknots import serialize
from spongeknots.cli import main
from spongeknots.grid import catalog
from spongeknots.necklace import iterate, make_necklace
from spongeknots.squareflake import squareflake
from spongeknots.wildknot import KnotAssignment, approximant
from oracle import closed_polyline, cube_of, embed_into_cube

# README, Conventions: the JSON type of each field, by its key; an array
# field's items take the type of the field
RATIONAL_KEYS = {"vertices", "path", "corner", "side", "fixed", "lo", "hi", "center", "radius_sq"}
INTEGER_KEYS = {"m", "stage", "sponge_stage", "axis", "n", "index", "summand_det", "generation", "word", "pairs"}
BOOLEAN_KEYS = {"nontrivial", "mirror", "spliced"}
STRING_KEYS = {"schema", "kind", "site_kind", "knot", "default"}

# one value of each JSON type
VALUES = {"string": "x", "integer": 2, "float": 0.5, "boolean": True, "null": None, "array": [], "object": {}}


def _json_type(value) -> str:
    return {str: "string", int: "integer", float: "float", bool: "boolean", type(None): "null",
            list: "array", dict: "object"}[type(value)]


def _leaf_type(path) -> str:
    """The documented type of the leaf at ``path``."""
    if "marks" in path:
        # a mark is an integer or an array of points
        return "integer" if path[-2] == "marks" else "rational"
    key = next(k for k in reversed(path) if isinstance(k, str))
    for keys, name in ((RATIONAL_KEYS, "rational"), (INTEGER_KEYS, "integer"),
                       (BOOLEAN_KEYS, "boolean"), (STRING_KEYS, "string")):
        if key in keys:
            return name
    raise AssertionError(f"README documents no type for {path}")


def _allowed(path, old, new_type) -> bool:
    """Whether README's Conventions allow a value of ``new_type`` at ``path``."""
    if len(path) >= 2 and path[-2] == "marks":
        return new_type in ("integer", "array")
    if isinstance(old, (list, dict)):
        return False
    return (_leaf_type(path), new_type) == ("rational", "integer")


def _paths(node, path=()):
    """Every position in a JSON document, the root included."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


def _replace(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _square():
    return closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])


ARTIFACTS = {
    "polyline": lambda: serialize.polyline_json(embed_into_cube(catalog("unknot"), cube_of((0, 0, 0), F(1, 3)))),
    "squareflake": lambda: serialize.squareflake_json(squareflake(1)),
    "approximant": lambda: serialize.approximant_json(approximant(KnotAssignment.all_trivial(1), 1)),
    "assignment": lambda: serialize.assignment_json(KnotAssignment.uniform("trefoil", 1)),
    "necklace": lambda: serialize.necklace_json(make_necklace(_square(), 3), iterate(make_necklace(_square(), 3), 1)),
}


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_every_leaf_and_container_of_another_type_is_a_schema_mismatch(tmp_path, capsys, kind):
    doc = ARTIFACTS[kind]()
    f = tmp_path / "mutant.json"
    f.write_text(serialize.dump_json(doc))
    assert main(["verify", str(f)]) == 0, "the unmutated artifact must verify"
    capsys.readouterr()
    mismatches = allowed = 0
    for path, old in _paths(doc):
        for new_type, value in VALUES.items():
            old_type = _json_type(old)
            if new_type == old_type:
                continue
            f.write_text(json.dumps(_replace(doc, path, value)))
            code = main(["verify", str(f)])  # an exception here is the traceback this test forbids
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if _allowed(path, old, new_type):
                allowed += 1
                assert code in (0, 1, 2), (path, new_type)
            else:
                mismatches += 1
                assert code == 2 and err.startswith("error: schema mismatch: "), (path, new_type, code, err)
    # every kind but assignment stores rationals
    assert mismatches and bool(allowed) == (kind != "assignment")
