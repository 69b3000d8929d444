import json
from fractions import Fraction as F

import pytest

from spongeknots import serialize
from spongeknots.cli import main
from spongeknots.embed import embed_grid
from spongeknots.grid import catalog
from spongeknots.necklace import iterate, make_necklace
from spongeknots.polyline import closed_polyline
from spongeknots.squareflake import squareflake
from spongeknots.wildknot import KnotAssignment, approximant


def run(argv):
    return main(argv)


def test_predicate_sponge_true_with_witness(capsys):
    assert run(["predicate", "--space", "sponge", "1/3", "2/3", "1/2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is True
    assert len(out["witness"]) == 3
    digits = out["witness"][0]
    assert set(digits) == {"preperiod", "period"}


def test_predicate_cantor_false_with_removed_interval(capsys):
    assert run(["predicate", "--space", "cantor", "1/2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is False
    cell = out["refutation"]["cells"][0]
    assert cell["cell"] == [["1/3", "2/3"]]
    assert cell["removed"] == "middle-third"


def test_predicate_carpet2_boundary(capsys):
    assert run(["predicate", "--space", "carpet2", "1/2", "1/2", "0/1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is True


def test_predicate_stage_query(capsys):
    assert run(["predicate", "--space", "sponge", "--stage", "1", "1/2", "1/2", "1/2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is False
    assert out["refutation"]["failed_stage"] == 1


def test_predicate_refutation_past_one_period(capsys):
    # x has 1s at even digits, y at every third: both first meet at digit 6,
    # past the preperiod + period depth of 3
    assert run(["predicate", "--space", "sponge", "1/8", "1/26", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is False
    assert out["refutation"]["failed_stage"] == 6
    point = (F(1, 8), F(1, 26), F(0))
    cells = [c["cell"] for c in out["refutation"]["cells"] if c["stage"] == 6]
    assert cells
    for cell in cells:
        assert all(F(lo) <= x <= F(hi) for x, (lo, hi) in zip(point, cell))


def test_predicate_segment(capsys):
    assert run(
        ["predicate", "--space", "sponge", "--stage", "3",
         "--segment", "1", "0/1", "0/1", "0/1", "1/1"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is True


@pytest.mark.parametrize("space, segment, verdict", [
    ("sponge", ["0", "1/3", "0", "0", "1"], True),
    ("sponge", ["0", "1/2", "1/2", "0", "1"], False),
    ("carpet2", ["0", "1/2", "1/2", "0", "1"], False),
])
def test_predicate_segment_at_a_deep_stage(capsys, space, segment, verdict):
    # 3**3000 running cells: answered from the digits, not cell by cell
    assert run(["predicate", "--space", space, "--stage", "3000", "--segment", *segment]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] is verdict


def test_predicate_wrong_arity_is_usage_error(capsys):
    assert run(["predicate", "--space", "sponge", "1/2"]) == 2


@pytest.mark.parametrize("argv", [
    ["predicate", "--space", "sponge", "1/0", "0", "0"],
    ["predicate", "--space", "sponge", "--segment", "0", "1/0", "0", "0", "1"],
    ["build", "wildknot", "--stage", "2", "--targets", "1/0"],
], ids=["point", "segment", "targets"])
def test_zero_denominator_is_usage_error(tmp_path, capsys, argv):
    if argv[0] == "build":
        argv = [*argv, "--out", str(tmp_path)]
    assert run(argv) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_build_embed_and_verify(tmp_path, capsys):
    assert run(["build", "embed", "--knot", "figure-eight", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run(["verify", str(tmp_path / "embed-figure-eight.json")]) == 0
    report = json.loads((tmp_path / "embed-figure-eight.report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert "containment" in names and "determinant" in names
    csv = (tmp_path / "embed-figure-eight.invariants.csv").read_text()
    assert "determinant,5" in csv
    assert "tricolorings,3" in csv


def test_build_outputs_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["build", "squareflake", "--stage", "2", "--out", str(a)]) == 0
    assert run(["build", "squareflake", "--stage", "2", "--out", str(b)]) == 0
    for name in ("squareflake-2.json", "squareflake-2.obj", "squareflake-2.report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_obj_export_is_marked_lossy(tmp_path, capsys):
    assert run(["build", "squareflake", "--stage", "1", "--out", str(tmp_path)]) == 0
    obj = (tmp_path / "squareflake-1.obj").read_text()
    assert obj.startswith("# lossy")
    assert obj.rstrip().splitlines()[-1].startswith("l 1 ")
    assert obj.rstrip().splitlines()[-1].endswith(" 1")


def test_build_wildknot_targets_plan(tmp_path, capsys):
    assert run(
        ["build", "wildknot", "--stage", "2", "--targets", "0/1,1/1",
         "--knot", "trefoil", "--out", str(tmp_path)]
    ) == 0
    data = json.loads((tmp_path / "wildknot-2.json").read_text())
    spliced = [e for e in data["ledger"] if e["spliced"]]
    assert len(spliced) == 4


def test_build_necklace_ply(tmp_path, capsys):
    assert run(["build", "necklace", "--pearls", "4", "--generation", "1", "--out", str(tmp_path)]) == 0
    ply = (tmp_path / "necklace-4-1.ply").read_text()
    assert ply.startswith("ply")
    assert "element vertex 12" in ply


def test_verify_corrupted_polyline_names_simplicity(tmp_path, capsys):
    poly, _ = embed_grid(catalog("unknot"))
    data = serialize.polyline_json(poly)
    data["vertices"].insert(1, data["vertices"][1])  # duplicated vertex
    f = tmp_path / "bad.json"
    f.write_text(serialize.dump_json(data))
    assert run(["verify", str(f)]) == 1
    out = capsys.readouterr().out
    assert "simplicity: FAIL" in out


def test_verify_self_intersecting_polyline_fails(tmp_path, capsys):
    bowtie = closed_polyline([(0, 0, 0), (1, 1, 0), (1, 0, 0), (0, 1, 0)])
    f = tmp_path / "bowtie.json"
    f.write_text(serialize.dump_json(serialize.polyline_json(bowtie)))
    assert run(["verify", str(f)]) == 1
    assert "simplicity: FAIL" in capsys.readouterr().out


def test_verify_shrunk_parent_pearl_names_nesting(tmp_path, capsys):
    base = make_necklace(closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]), 3)
    it = iterate(base, 1)
    data = serialize.necklace_json(base, it)
    data["pearls"][0]["radius_sq"] = serialize.rat(F(1, 10**6))  # shrink a parent
    f = tmp_path / "shrunk.json"
    f.write_text(serialize.dump_json(data))
    assert run(["verify", str(f)]) == 1
    out = capsys.readouterr().out
    assert "nesting: FAIL" in out


def test_verify_unknown_schema_is_usage_error(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text('{"schema": "v1", "kind": "martian"}\n')
    assert run(["verify", str(f)]) == 2


def _squareflake_text(**fields):
    return serialize.dump_json({**serialize.squareflake_json(squareflake(1)), **fields})


def _ledger_text(**fields):
    data = serialize.approximant_json(approximant(KnotAssignment.uniform("trefoil", 1), 1))
    data["ledger"][0].update(fields)
    return serialize.dump_json(data)


def _assignment_text(**fields):
    data = serialize.assignment_json(KnotAssignment.uniform("trefoil", 1))
    data["entries"][0].update(fields)
    return serialize.dump_json(data)


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '{"kind": "polyline", "vertices": 5}',
    '{"kind": "polyline", "vertices": [["1/0", "0/1", "0/1"], ["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"]]}',
    '{"kind": "polyline", "vertices": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]]}',
    '{"kind": "polyline", "vertices": [[0.1, 0, 0], [1, 0, 0], [1, 1, 0]]}',
    '{"kind": "polyline", "vertices": [[true, 0, 0], [0, 0, 0], [0, 1, 0]]}',
    _squareflake_text(m=1.9),
    '{"kind": "polyline", "vertices": [["0/1", "0/1", "0/1"], ["1/1", "0/1", "0/1"], ["1/1", "1/1", "0/1"],'
    ' ["0/1", "1/1", "0/1"]], "marks": {"sponge_stage": true}}',
    _ledger_text(mirror="no"),
    _ledger_text(nontrivial=0),
    _ledger_text(spliced=None),
    _assignment_text(mirror="no"),
    _assignment_text(mirror=0),
    _assignment_text(mirror=None),
], ids=["not-an-object", "wrong-type", "zero-denominator", "two-coordinates", "float", "bool", "float-integer",
        "bool-mark", "ledger-string-boolean", "ledger-integer-boolean", "ledger-null-boolean",
        "assignment-string-boolean", "assignment-integer-boolean", "assignment-null-boolean"])
def test_verify_malformed_artifact_is_schema_mismatch(tmp_path, capsys, text):
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert run(["verify", str(f)]) == 2
    assert "schema mismatch" in capsys.readouterr().err


def _oblique_squareflake():
    data = serialize.squareflake_json(squareflake(1))
    data["polyline"]["vertices"][1] = ["1/9", "1/1", "0/1"]
    return data


@pytest.mark.parametrize("make", [
    lambda: serialize.polyline_json(closed_polyline([(0, 0, 0), (2, 0, 0), (2, 1, 0), (0, 1, 0)])),
    lambda: serialize.polyline_json(closed_polyline([(0, 0, 0), (1, 0, 0), (0, 1, 0)], {"sponge_stage": 1})),
    _oblique_squareflake,
], ids=["leaves-unit-cube", "marked-triangle", "oblique-squareflake"])
def test_verify_uncontainable_curve_fails_containment(tmp_path, capsys, make):
    f = tmp_path / "curve.json"
    f.write_text(serialize.dump_json(make()))
    assert run(["verify", str(f)]) == 1
    captured = capsys.readouterr()
    assert "containment: FAIL" in captured.out
    assert "error:" not in captured.err


def test_predicate_segment_outside_unit_cube_is_usage_error(capsys):
    assert run(["predicate", "--space", "sponge", "--segment", "0", "2", "0", "0", "1"]) == 2
    assert "leaves the unit cube" in capsys.readouterr().err


def test_verify_two_vertex_polyline_names_simplicity(tmp_path, capsys):
    f = tmp_path / "short.json"
    f.write_text('{"kind": "polyline", "vertices": [["0/1", "0/1", "0/1"], ["1/1", "0/1", "0/1"]]}')
    assert run(["verify", str(f)]) == 1
    assert "simplicity: FAIL (need at least 3 vertices)" in capsys.readouterr().out


def test_verify_missing_file_is_usage_error(tmp_path):
    assert run(["verify", str(tmp_path / "nope.json")]) == 2


def test_build_wildknot_all_trivial_include(tmp_path, capsys):
    assert run(
        ["build", "wildknot", "--stage", "1", "--assign", "all:trivial",
         "--include-trivial", "--out", str(tmp_path)]
    ) == 0
    data = json.loads((tmp_path / "wildknot-1.json").read_text())
    assert all(not e["nontrivial"] for e in data["ledger"])
    assert all(e["spliced"] for e in data["ledger"])


def test_threads_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--threads", "4", "build", "squareflake", "--stage", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2


# every build configuration above, with the artifact it writes
BUILDS = [
    (["embed", "--knot", "figure-eight"], "embed-figure-eight"),
    (["squareflake", "--stage", "2"], "squareflake-2"),
    (["squareflake", "--stage", "1"], "squareflake-1"),
    (["wildknot", "--stage", "2", "--targets", "0/1,1/1", "--knot", "trefoil"], "wildknot-2"),
    (["wildknot", "--stage", "1", "--assign", "all:trivial", "--include-trivial"], "wildknot-1"),
    (["necklace", "--pearls", "4", "--generation", "1"], "necklace-4-1"),
]
# embed checks that need the catalog knot, which the polyline artifact does not store
EMBED_BUILD_ONLY = {"determinant", "grid-projection-match"}


@pytest.mark.parametrize("argv,name", BUILDS, ids=[name for _, name in BUILDS])
def test_verify_reruns_the_build_suite(tmp_path, capsys, argv, name):
    assert run(["build", *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run(["verify", str(tmp_path / f"{name}.json")]) == 0
    printed = [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()]
    report = json.loads((tmp_path / f"{name}.report.json").read_text())
    expected = [c["name"] for c in report["checks"]]
    if argv[0] == "embed":
        expected = [n for n in expected if n not in EMBED_BUILD_ONLY]
    assert printed == expected
