import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from spongeknots import checks, cli, necklace, serialize, ternary
from spongeknots.cli import main
from spongeknots.embed import embed_grid
from spongeknots.grid import catalog
from spongeknots.necklace import invert_pearl, iterate, make_necklace
from spongeknots.polyline import ClosedPolyline3
from spongeknots.squareflake import squareflake
from spongeknots.wildknot import KnotAssignment, approximant, sites, wild_set_plan
from oracle import closed_polyline
from test_invariants import fraction_counter


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


def test_predicate_expands_each_coordinate_once(monkeypatch, capsys):
    # one refutation and one witness, each needing the 100,002-digit period
    made = []
    period_digits = ternary._period_digits
    monkeypatch.setattr(ternary, "_period_digits", lambda start, d: made.append(d) or period_digits(start, d))
    for coords, verdict in ((["1/2", "1/2", "1/100003"], False), (["0", "2/3", "1/100003"], True)):
        made.clear()
        assert run(["predicate", "--space", "sponge", *coords]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] is verdict and ("witness" in out) == verdict
        assert made.count(100003) == 1


def test_predicate_reads_each_stage_once(monkeypatch, capsys):
    # a member and a non-member: one read of each coordinate's stage-k cells
    # gives the verdict and its witness or refutation
    reads = []
    stage_cells = ternary._stage_cells
    monkeypatch.setattr(ternary, "_stage_cells", lambda num, den, k: reads.append(k) or stage_cells(num, den, k))
    for coords, verdict in ((["1/4", "1/2", "3/4"], True), (["1/2", "1/2", "1/4"], False)):
        reads.clear()
        assert run(["predicate", "--space", "sponge", "--stage", "5", *coords]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] is verdict and ("witness" in out) == verdict
        assert reads == [5] * 3


def _predicate_coordinate(rng):
    """A coordinate string: a triadic, a small-denominator rational, a
    1-free periodic point, 12 digits 0 and 2 as criterion 2 draws them, or
    planted digits rich in 1s followed by 0.(02)."""
    kind = rng.randrange(5)
    if kind == 0:
        j = rng.randint(0, 6)
        return f"{rng.randint(0, 3**j)}/{3**j}"
    if kind == 1:
        den = rng.randint(1, 400)
        return f"{rng.randint(0, den)}/{den}"
    if kind == 2:
        p = rng.randint(1, 6)
        return f"{sum(rng.choice((0, 2)) * 3**i for i in range(p))}/{3**p - 1}"
    if kind == 3:
        return f"{sum(rng.choice((0, 2)) * 3**i for i in range(12))}/{3**12}"
    ds = [rng.choice((0, 1, 1, 2)) for _ in range(rng.randint(1, 8))]
    n = sum(d * 3**i for i, d in enumerate(reversed(ds)))
    return f"{4 * n + 1}/{4 * 3 ** len(ds)}"


def _seeded_predicate_queries():
    """Limit and stage point queries in every space, from a fixed seed."""
    rng = random.Random(0x9E7)
    dims = {"cantor": 1, "carpet-face": 2, "sponge": 3, "carpet2": 3}
    for _ in range(150):
        space = rng.choice(sorted(dims))
        coords = [_predicate_coordinate(rng) for _ in range(dims[space])]
        yield ["predicate", "--space", space, *coords]
        yield ["predicate", "--space", space, "--stage", str(rng.randint(0, 9)), *coords]


# SHA-256 of the outputs of _seeded_predicate_queries, as the Fraction-based
# point predicates wrote them before membership moved onto integers
SEEDED_PREDICATE_SHA256 = "fc9f6416a6ed64c4ed7f519417e8427c9ffaa33c8d1f32dac4d755bfa21ae3da"


def test_seeded_predicate_outputs_are_pinned(capsys):
    digest, verdicts = hashlib.sha256(), set()
    for argv in _seeded_predicate_queries():
        assert run(argv) == 0
        out = capsys.readouterr().out
        digest.update(out.encode())
        result = json.loads(out)
        verdicts.add((result["stage"] is None, result["verdict"]))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}
    assert digest.hexdigest() == SEEDED_PREDICATE_SHA256


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        assert run(["predicate", "--space", "cantor", "1/4"]) == 0
        assert run(["predicate", "--space", "cantor", "--stage", "2", "1/2"]) == 0
        with pytest.raises(SystemExit):  # an argparse usage error leaves the parser as it was
            run(["predicate", "--space", "nope", "1/4"])
        assert run(["predicate", "--space", "sponge", "1/4", "0", "0"]) == 0
    finally:
        cli._parser.cache_clear()  # the next main builds it with the real builder
    assert built == [1]
    capsys.readouterr()


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


@pytest.mark.parametrize("argv, reason", [
    (["--space", "sponge", "1/2"], "sponge expects 3 coordinates"),
    (["--space", "cantor", "--segment", "0", "0", "0", "0", "1"], "space must be 'sponge' or 'carpet2'"),
    (["--space", "sponge", "--stage", "2", "--segment", "0", "0", "0", "0", "1", "1/2", "7/9"],
     "--segment takes no coordinates"),
], ids=["wrong-arity", "cantor-segment", "segment-with-coordinates"])
def test_predicate_space_mismatch_is_usage_error(capsys, argv, reason):
    assert run(["predicate", *argv]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"


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


def test_unknown_catalog_knot_is_usage_error(tmp_path, capsys):
    # the message is printed bare, not as the repr a KeyError's str() gives
    assert run(["build", "wildknot", "--stage", "2", "--assign", "all:nope", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown catalog knot: 'nope' (have [")


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


def test_verify_corrupted_nested_polyline_names_simplicity(tmp_path, capsys):
    # the nested polyline's read error keeps its type under the field's name
    data = serialize.squareflake_json(squareflake(1))
    data["polyline"]["vertices"].insert(1, data["polyline"]["vertices"][1])
    f = tmp_path / "bad.json"
    f.write_text(serialize.dump_json(data))
    assert run(["verify", str(f)]) == 1
    assert capsys.readouterr().out == "simplicity: FAIL (polyline: consecutive duplicate vertex at index 1)\n"


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


def _orphan_generation(data):
    data["iterated"]["generation"] = 5


def _orphan_base_word(data):
    data["pearls"][0]["word"] = [9]


@pytest.mark.parametrize("edit", [_orphan_generation, _orphan_base_word], ids=["generation-5", "base-word-9"])
def test_verify_pearl_word_without_parent_fails_nesting(tmp_path, capsys, edit):
    base = make_necklace(closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]), 3)
    data = serialize.necklace_json(base, iterate(base, 1))
    edit(data)
    f = tmp_path / "orphan.json"
    f.write_text(serialize.dump_json(data))
    assert run(["verify", str(f)]) == 1
    captured = capsys.readouterr()
    assert "nesting: FAIL (no parent pearl for word [1, 2])" in captured.out
    assert "error:" not in captured.err


def _overlapping_pearls(data):
    data["pearls"][1]["center"] = data["pearls"][0]["center"]


def _missing_pearl(data):
    del data["pearls"][-1]


@pytest.mark.parametrize("edit, line", [(_overlapping_pearls, "pearl-disjointness: FAIL"),
                                        (_missing_pearl, "pearl-count: FAIL (2 pearls)")],
                         ids=["overlap", "count"])
def test_verify_broken_generation_zero_names_the_failed_check(tmp_path, capsys, edit, line):
    base = make_necklace(closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]), 3)
    data = serialize.necklace_json(base)
    edit(data)
    f = tmp_path / "broken.json"
    f.write_text(serialize.dump_json(data))
    assert run(["verify", str(f)]) == 1
    captured = capsys.readouterr()
    assert line in captured.out.splitlines()
    assert "error:" not in captured.err


@pytest.mark.parametrize("generation", [14, 10**9])
def test_verify_huge_stored_generation_fails_without_iterating(tmp_path, capsys, monkeypatch, generation):
    # no stored pearl has a word of generation + 1 letters and the generation
    # holds more pearls than are stored, so no pearl is inverted at all
    base = make_necklace(closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]), 3)
    data = serialize.necklace_json(base, iterate(base, 1))
    data["iterated"]["generation"] = generation
    f = tmp_path / "huge.json"
    f.write_text(serialize.dump_json(data))
    inversions = 0

    def counting_invert_pearl(b, other):
        nonlocal inversions
        inversions += 1
        return invert_pearl(b, other)

    monkeypatch.setattr(necklace, "invert_pearl", counting_invert_pearl)
    assert run(["verify", str(f)]) == 1
    assert inversions == 0
    assert capsys.readouterr().out.splitlines()[:5] == [
        "pearl-count: FAIL (6 pearls)",
        "pearl-disjointness: PASS",
        "nesting: FAIL (no parent pearl for word [1, 2])",
        "sibling-disjointness: PASS",
        "iterate-match: FAIL",
    ]


def test_verify_pearl_holding_an_inversion_centre_fails_every_line(tmp_path, capsys):
    # pearl 1 grown to hold pearl 2's centre: no image of it under pearl 2
    # is a ball, so the words that need one have no pearl
    base = make_necklace(closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]), 3)
    data = serialize.necklace_json(base, iterate(base, 1))
    data["pearls"][0]["radius_sq"] = "4/1"
    f = tmp_path / "swollen.json"
    f.write_text(serialize.dump_json(data))
    assert run(["verify", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "pearl-count: PASS (6 pearls)",
        "pearl-disjointness: FAIL",
        "nesting: PASS",
        "sibling-disjointness: PASS",
        "iterate-match: FAIL",
    ]
    assert "error:" not in captured.err


def test_verify_negative_stored_generation_is_a_usage_error(tmp_path, capsys):
    base = make_necklace(closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]), 3)
    data = serialize.necklace_json(base, iterate(base, 1))
    data["iterated"]["generation"] = -1
    f = tmp_path / "negative.json"
    f.write_text(serialize.dump_json(data))
    assert run(["verify", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: generation must be >= 0\n"


def test_necklace_suite_inverts_each_parent_suffix_once(tmp_path, capsys, monkeypatch):
    # one pass builds the stored words and their parents: each distinct
    # suffix of two or more letters costs one inversion, however many
    # words end in it, and the parents are suffixes the stored words share
    assert run(["build", "necklace", "--pearls", "3", "--generation", "6", "--out", str(tmp_path)]) == 0
    _, (base, it) = serialize.load_artifact((tmp_path / "necklace-3-6.json").read_text())
    inversions = 0

    def counting_invert_pearl(b, other):
        nonlocal inversions
        inversions += 1
        return invert_pearl(b, other)

    monkeypatch.setattr(necklace, "invert_pearl", counting_invert_pearl)
    assert checks.necklace(base, it).ok
    suffixes = {p.word[k:] for p in it.pearls for k in range(it.generation)}
    assert inversions == len(suffixes) == 378


def _huge_squareflake():
    return {**serialize.squareflake_json(squareflake(1)), "m": 10**9}


def _huge_approximant():
    data = serialize.approximant_json(approximant(KnotAssignment.uniform("trefoil", 1), 1))
    return {**data, "m": 10**9, "sponge_stage": 10**9}


@pytest.mark.parametrize("make, failing", [
    (_huge_squareflake, ["replaced-count", "vertex-count"]),
    (_huge_approximant, ["ledger-counts"]),
], ids=["squareflake", "approximant"])
def test_verify_huge_stored_stage_fails_its_counts(tmp_path, capsys, make, failing):
    # decided from the stored counts without forming 2**m (a 125 MB integer
    # at m = 10**9), and containment at the grid stage of the curve
    f = tmp_path / "huge.json"
    f.write_text(serialize.dump_json(make()))
    tracemalloc.start()
    try:
        assert run(["verify", str(f)]) == 1
        assert tracemalloc.get_traced_memory()[1] < 10**7
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert "containment: PASS (stage 1000000000)" in out
    assert [line.split(":")[0] for line in out.splitlines() if "FAIL" in line] == failing


def _wildknot_2(**fields):
    return {**serialize.approximant_json(approximant(KnotAssignment.uniform("trefoil", 2), 2)), **fields}


def _extra_stage_3_entry():
    data = _wildknot_2()
    data["ledger"].append({**data["ledger"][-1], "stage": 3})
    return data


def _index_99():
    data = _wildknot_2()
    data["ledger"][4]["index"] = 99
    return data


@pytest.mark.parametrize("make, failing", [
    (lambda: _wildknot_2(m=1), ["ledger-counts"]),
    (lambda: _wildknot_2(m=0), ["ledger-counts"]),
    (lambda: _wildknot_2(m=-1), ["ledger-counts"]),
    # the extra nontrivial stage-3 entry also asks for sponge stage 3 + 1 + 2
    (_extra_stage_3_entry, ["containment", "ledger-counts"]),
    (_index_99, ["ledger-counts"]),
], ids=["m-1", "m-0", "m-minus-1", "stage-3-entry", "index-99"])
def test_verify_ledger_off_the_sites_of_its_stages_fails_its_counts(tmp_path, capsys, make, failing):
    # the ledger must hold each site of stages 1..m exactly once
    f = tmp_path / "ledger.json"
    f.write_text(serialize.dump_json(make()))
    assert run(["verify", str(f)]) == 1
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines() if "FAIL" in line] == failing


def _entry_0(**fields):
    data = _wildknot_2()
    data["ledger"][0] = {**data["ledger"][0], **fields}
    return data


@pytest.mark.parametrize("make", [
    lambda: _entry_0(cube={"corner": ["0/1", "0/1", "0/1"], "side": "1/9"}),
    lambda: _entry_0(cube={"corner": ["25/27", "1/9", "0/1"], "side": "0/1"}),
    lambda: _entry_0(site_kind="bogus"),
    lambda: _entry_0(site_kind="left"),
], ids=["corner-moved", "side-0", "kind-bogus", "kind-of-another-site"])
def test_verify_ledger_entry_off_its_site_fails_its_counts(tmp_path, capsys, make):
    # entry 0 names stage-1 site 1: the bottom cube at (7/9, 1/3, 0), side 1/9
    f = tmp_path / "ledger.json"
    f.write_text(serialize.dump_json(make()))
    assert run(["verify", str(f)]) == 1
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines() if "FAIL" in line] == ["ledger-counts"]


def test_the_ledger_cube_is_written_as_rationals_and_read_back_to_the_sites_cube():
    data = _wildknot_2()
    assert data["ledger"][0]["cube"] == {"corner": ["7/9", "1/3", "0/1"], "side": "1/9"}
    _, loaded = serialize.load_artifact(serialize.dump_json(data))
    assert [e.cube for e in loaded.ledger] == [s.cube for q in (1, 2) for s in sites(q)]


@pytest.mark.parametrize("stage", [0, 4, 6])
def test_verify_a_sponge_stage_other_than_the_ledgers_fails_containment(tmp_path, capsys, stage):
    # uniform m = 2: stage-2 trefoils at Cantor stage 2 in stage-3 cubes ask for 5
    f = tmp_path / "stage.json"
    f.write_text(serialize.dump_json(_wildknot_2(sponge_stage=stage)))
    assert run(["verify", str(f)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"containment: FAIL (stage {stage})" in out
    assert [line.split(":")[0] for line in out if "FAIL" in line] == ["containment"]


def _plan_7_assignment(entry=None, **fields):
    """The assignment ``build wildknot --stage 7 --targets 0/1,1/1`` writes,
    with entry 0 and the top-level fields edited."""
    data = {**serialize.assignment_json(wild_set_plan([F(0), F(1)], "trefoil", 7)), **fields}
    data["entries"][0] = {**data["entries"][0], **(entry or {})}
    return data


@pytest.mark.parametrize("make, ok", [
    (_plan_7_assignment, True),
    (lambda: _plan_7_assignment({"index": 10**6}), False),
    (lambda: _plan_7_assignment(stage=-1), False),
    (lambda: {**_plan_7_assignment(), "stage": 0, "entries": []}, False),
    (lambda: _plan_7_assignment({"index": 0}), False),
    (lambda: _plan_7_assignment({"index": 4}), False),  # stage 1 has sites 1..3
    (lambda: _plan_7_assignment({"stage": 8}), False),
    # a site of stage 10**9 exists; its index is decided without forming 2**(10**9 - 1)
    (lambda: _plan_7_assignment({"stage": 10**9, "index": 10**6}, stage=10**9), True),
], ids=["as-built", "index-1000000", "stage-minus-1", "stage-0", "index-0", "index-4", "entry-stage-8",
        "huge-stage"])
def test_verify_an_assignment_checks_that_its_entries_are_sites(tmp_path, capsys, make, ok):
    f = tmp_path / "wildknot-7.assignment.json"
    f.write_text(serialize.dump_json(make()))
    start = time.perf_counter()
    assert run(["verify", str(f)]) == (0 if ok else 1)
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.splitlines() == [f"assignment-sites: {'PASS' if ok else 'FAIL'}"]


def test_the_plan_assignment_is_the_one_the_build_writes(tmp_path, capsys):
    assert run(["build", "wildknot", "--stage", "7", "--targets", "0/1,1/1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "wildknot-7.assignment.json").read_text() == serialize.dump_json(_plan_7_assignment())


def _far_vertex_embed(tmp_path):
    assert run(["build", "embed", "--knot", "trefoil", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "embed-trefoil.json").read_text())
    data["marks"]["sponge_stage"] = 10**9
    data["vertices"][0][2] = "1/1000003"
    return data


def _far_vertex_wildknot(tmp_path):
    assert run(["build", "wildknot", "--stage", "2", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "wildknot-2.json").read_text())
    data["sponge_stage"] = 10**9
    data["polyline"]["vertices"][0][2] = "1/1000003"
    return data


@pytest.mark.parametrize("make, lines", [
    (_far_vertex_embed, ["containment: FAIL (stage 1000000000)", "simplicity: PASS"]),
    (_far_vertex_wildknot, ["simplicity: PASS", "containment: FAIL (stage 1000000000)", "ledger-counts: PASS",
                            "determinant: PASS (det 19683 along (0, 0, 1))"]),
], ids=["embed", "wildknot"])
def test_verify_one_non_triadic_vertex_at_a_huge_stage_is_prompt(tmp_path, capsys, make, lines):
    # each segment settles at its own stage: the one non-triadic vertex
    # (settled stage of the curve 2,333,340) holds back no other segment
    f = tmp_path / "far.json"
    f.write_text(serialize.dump_json(make(tmp_path)))
    capsys.readouterr()
    start = time.perf_counter()
    assert run(["verify", str(f)]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("vertices", [
    [(0, 0, 0), (1, 1, 0), (0, 1, 1)],
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
], ids=["oblique", "axis-parallel"])
def test_verify_a_negative_stored_stage_is_a_usage_error_whatever_the_segments(tmp_path, capsys, vertices):
    f = tmp_path / "negative.json"
    f.write_text(serialize.dump_json(serialize.polyline_json(closed_polyline(vertices, {"sponge_stage": -1}))))
    assert run(["verify", str(f)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: stage must be >= 0\n")


def test_predicate_segment_at_a_huge_stage_is_prompt(capsys):
    segment = ["--segment", "0", "1/3", "0", "0", "1"]
    assert run(["predicate", "--space", "sponge", "--stage", "3000", *segment]) == 0
    deep = json.loads(capsys.readouterr().out)["verdict"]
    start = time.perf_counter()
    assert run(["predicate", "--space", "sponge", "--stage", "1000000", *segment]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["verdict"] is deep


def test_verify_non_simple_approximant_fails_without_projecting(tmp_path, capsys):
    # a curve that is not simple has no knot type: no generic view is
    # searched for and no determinant line is printed
    assert run(["build", "wildknot", "--stage", "2", "--assign", "all:trefoil", "--out", str(tmp_path)]) == 0
    f = tmp_path / "wildknot-2.json"
    data = json.loads(f.read_text())
    data["polyline"]["vertices"][148][0] = "1/2"
    f.write_text(serialize.dump_json(data))
    capsys.readouterr()
    start = time.perf_counter()
    assert run(["verify", str(f)]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.splitlines() == [
        "simplicity: FAIL",
        "containment: FAIL (stage 5)",
        "ledger-counts: PASS",
    ]


def test_verify_unknown_schema_is_usage_error(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text('{"schema": "v1", "kind": "martian"}\n')
    assert run(["verify", str(f)]) == 2


def _squareflake_text(**fields):
    # the artifact writer takes only the JSON types the tables write, so a
    # field of another type (a float) is written by the stock encoder
    return json.dumps({**serialize.squareflake_json(squareflake(1)), **fields}, indent=1, ensure_ascii=False) + "\n"


def _ledger_text(**fields):
    data = serialize.approximant_json(approximant(KnotAssignment.uniform("trefoil", 1), 1))
    data["ledger"][0].update(fields)
    return serialize.dump_json(data)


def _stage_2_ledger_text(edit):
    """A stage-2 uniform trefoil wildknot artifact whose ledger ``edit`` changed."""
    data = serialize.approximant_json(approximant(KnotAssignment.uniform("trefoil", 2), 2))
    edit(data["ledger"])
    return serialize.dump_json(data)


def _every_entry(**fields):
    def edit(ledger):
        for entry in ledger:
            entry.update(fields)
    return edit


def _factor_moved(ledger):
    # the first trefoil unspliced, its factor 3 carried by the next entry
    ledger[0]["spliced"] = False
    ledger[1]["summand_det"] = 9


def _assignment_text(entry=(), **fields):
    data = {**serialize.assignment_json(KnotAssignment.uniform("trefoil", 1)), **fields}
    data["entries"][0].update(entry)
    return serialize.dump_json(data)


def _square_text(vertex=None, **fields):
    data = {**serialize.polyline_json(closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])), **fields}
    if vertex is not None:
        data["vertices"][0] = vertex
    return serialize.dump_json(data)


def _nested_kind_text():
    data = serialize.squareflake_json(squareflake(1))
    data["polyline"]["kind"] = "necklace"
    return serialize.dump_json(data)


def _headless_text():
    data = serialize.polyline_json(closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0)]))
    del data["schema"]
    return serialize.dump_json(data)


def _wordless_pearl_text():
    base = make_necklace(closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]), 3)
    data = serialize.necklace_json(base, iterate(base, 1))
    data["pearls"][0]["word"] = []
    return serialize.dump_json(data)


# (text, the part of the error that names the intended fault)
MALFORMED = {
    "not-an-object": ("[1, 2]", "not a JSON object"),
    "wrong-type": ('{"schema": "v1", "kind": "polyline", "vertices": 5, "marks": {}}', "vertices: expected an array"),
    "zero-denominator": (
        '{"schema": "v1", "kind": "polyline", "vertices": [["1/0", "0/1", "0/1"], ["1/1", "0/1", "0/1"],'
        ' ["0/1", "1/1", "0/1"]], "marks": {}}', "zero denominator"),
    "two-coordinates": (
        '{"schema": "v1", "kind": "polyline", "vertices": [["0/1", "0/1"], ["1/1", "0/1"], ["0/1", "1/1"]],'
        ' "marks": {}}', "expected an array of 3, got 2"),
    "float": ('{"schema": "v1", "kind": "polyline", "vertices": [[0.1, 0, 0], [1, 0, 0], [1, 1, 0]], "marks": {}}',
              "expected a rational, got 0.1"),
    "bool": ('{"schema": "v1", "kind": "polyline", "vertices": [[true, 0, 0], [0, 0, 0], [0, 1, 0]], "marks": {}}',
             "expected a rational, got True"),
    "float-integer": (_squareflake_text(m=1.9), "m: expected an integer, got 1.9"),
    "bool-mark": (
        '{"schema": "v1", "kind": "polyline", "vertices": [["0/1", "0/1", "0/1"], ["1/1", "0/1", "0/1"],'
        ' ["1/1", "1/1", "0/1"], ["0/1", "1/1", "0/1"]], "marks": {"sponge_stage": true}}',
        "marks: expected an integer, got True"),
    "ledger-string-boolean": (_ledger_text(mirror="no"), "mirror: expected a boolean, got 'no'"),
    "ledger-integer-boolean": (_ledger_text(nontrivial=0), "nontrivial: expected a boolean, got 0"),
    "ledger-null-boolean": (_ledger_text(spliced=None), "spliced: expected a boolean, got None"),
    "assignment-string-boolean": (_assignment_text({"mirror": "no"}), "mirror: expected a boolean, got 'no'"),
    "assignment-integer-boolean": (_assignment_text({"mirror": 0}), "mirror: expected a boolean, got 0"),
    "assignment-null-boolean": (_assignment_text({"mirror": None}), "mirror: expected a boolean, got None"),
    "ledger-integer-knot": (_ledger_text(knot=5), "knot: expected a string, got 5"),
    "ledger-null-knot": (_ledger_text(knot=None), "knot: expected a string, got None"),
    "ledger-array-site-kind": (_ledger_text(site_kind=["x"]), "site_kind: expected a string, got ['x']"),
    "ledger-unknown-knot": (_stage_2_ledger_text(_every_entry(knot="bogus")), "ledger: unknown knot 'bogus'"),
    "ledger-knot-off-its-determinant": (_stage_2_ledger_text(_every_entry(knot="figure-eight")),
                                        "ledger: summand_det of figure-eight is 5, not 3"),
    "ledger-trefoil-marked-trivial": (_ledger_text(nontrivial=False), "ledger: trefoil entry has nontrivial False"),
    "ledger-trefoil-unspliced": (_stage_2_ledger_text(_factor_moved), "ledger: nontrivial trefoil entry is not spliced"),
    "assignment-integer-default": (_assignment_text(default=5), "default: expected a string, got 5"),
    "assignment-integer-knot": (_assignment_text({"knot": 7}), "knot: expected a string, got 7"),
    "assignment-unknown-knot": (_assignment_text({"knot": "bogus"}), "unknown catalog knot: 'bogus'"),
    "assignment-unknown-default": (_assignment_text(default="bogus"), "unknown catalog knot: 'bogus'"),
    "string-vertex": (_square_text("012"), "vertices: expected an array, got '012'"),
    "object-vertex": (_square_text({"0/1": 1, "1/1": 2, "2/3": 3}), "vertices: expected an array, got {"),
    "array-kind": ('{"schema": "v1", "kind": []}', "unknown artifact kind: []"),
    "object-kind": ('{"schema": "v1", "kind": {}}', "unknown artifact kind: {}"),
    "other-schema": (_square_text(schema="v9"), "expected schema 'v1', got 'v9'"),
    "missing-schema": (_headless_text(), "expected schema 'v1', got None"),
    "nested-kind": (_nested_kind_text(), "polyline: expected kind 'polyline', got 'necklace'"),
    "deep-nesting": ("[" * 100000 + "]" * 100000, "nests too deeply"),
    "empty-pearl-word": (_wordless_pearl_text(), "pearl needs a non-empty reflection word"),
    "kind-like-a-polyline-error": ('{"schema": "v1", "kind": "duplicate vertex"}',
                                   "unknown artifact kind: 'duplicate vertex'"),
    "schema-like-a-polyline-error": ('{"schema": "need 3 vertices", "kind": "polyline"}',
                                     "expected schema 'v1', got 'need 3 vertices'"),
}


@pytest.mark.parametrize("text, reason", MALFORMED.values(), ids=MALFORMED.keys())
def test_verify_malformed_artifact_is_schema_mismatch(tmp_path, capsys, text, reason):
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert run(["verify", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: schema mismatch: ")
    assert reason in err


def _oblique_squareflake():
    data = serialize.squareflake_json(squareflake(1))
    data["polyline"]["vertices"][1] = ["1/9", "1/1", "0/1"]
    return data


@pytest.mark.parametrize("make, detail", [
    (lambda: serialize.polyline_json(closed_polyline([(0, 0, 0), (2, 0, 0), (2, 1, 0), (0, 1, 0)])), "stage 0"),
    (lambda: serialize.polyline_json(closed_polyline([(0, 0, 0), (1, 0, 0), (0, 1, 0)], {"sponge_stage": 1})),
     "stage 1"),
    (_oblique_squareflake, "stage 1"),
    # unmarked, so the grid must give the stage: an oblique side, or a side
    # on x = 1/2, which no triadic grid line carries
    (lambda: serialize.polyline_json(closed_polyline([(0, 0, 0), (1, 0, 0), (0, 1, 0)])),
     "no triadic grid carries every segment"),
    (lambda: serialize.polyline_json(closed_polyline([(F(1, 2), 0, 0), (F(1, 2), 1, 0), (1, 1, 0), (1, 0, 0)])),
     "no triadic grid carries every segment"),
], ids=["leaves-unit-cube", "marked-triangle", "oblique-squareflake", "unmarked-triangle", "square-through-half"])
def test_verify_uncontainable_curve_fails_containment(tmp_path, capsys, make, detail):
    f = tmp_path / "curve.json"
    f.write_text(serialize.dump_json(make()))
    assert run(["verify", str(f)]) == 1
    captured = capsys.readouterr()
    assert f"containment: FAIL ({detail})" in captured.out.splitlines()
    assert "error:" not in captured.err


def _moved_detour_point():
    data = serialize.squareflake_json(squareflake(2))
    data["replaced"][0]["path"][0] = ["0/1", "0/1", "0/1"]
    return data


def _moved_removed_end():
    data = serialize.squareflake_json(squareflake(2))
    data["replaced"][0]["removed"]["lo"] = "0/1"
    return data


def _cut_detour_path():
    data = serialize.squareflake_json(squareflake(2))
    del data["replaced"][0]["path"][1:]
    return data


@pytest.mark.parametrize("make", [_moved_detour_point, _moved_removed_end, _cut_detour_path],
                         ids=["path", "removed-lo", "path-cut"])
def test_verify_squareflake_record_off_its_detour_fails_replaced_count(tmp_path, capsys, make):
    # the count still holds and the curve is untouched: only the record is wrong
    f = tmp_path / "squareflake.json"
    f.write_text(serialize.dump_json(make()))
    assert run(["verify", str(f)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "simplicity: PASS", "containment: PASS (stage 2)", "replaced-count: FAIL", "vertex-count: PASS",
    ]


def test_predicate_segment_without_stage_is_usage_error(capsys):
    # the line through the centre cube: removed at stage 1, in the cube at
    # stage 0, so a missing stage must not be read as 0
    assert run(["predicate", "--space", "sponge", "--segment", "0", "1/2", "1/2", "0", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --segment needs --stage\n")


def test_predicate_segment_outside_unit_cube_is_usage_error(capsys):
    assert run(["predicate", "--space", "sponge", "--segment", "0", "2", "0", "0", "1"]) == 2
    assert "leaves the unit cube" in capsys.readouterr().err


def test_verify_two_vertex_polyline_names_simplicity(tmp_path, capsys):
    f = tmp_path / "short.json"
    f.write_text('{"schema": "v1", "kind": "polyline", "vertices": [["0/1", "0/1", "0/1"], ["1/1", "0/1", "0/1"]],'
                 ' "marks": {}}')
    assert run(["verify", str(f)]) == 1
    assert "simplicity: FAIL (need at least 3 vertices)" in capsys.readouterr().out


def test_verify_missing_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: No such file or directory\n"


def test_verify_a_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff")
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: not UTF-8 text\n"


def test_a_command_process_loads_no_test_oracle(tmp_path):
    # the subdivision oracle and the second determinant route are test
    # references in tests/oracle.py; a fresh command process imports the
    # package alone, and nothing of them
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, spongeknots.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=30)
    loaded = proc.stdout.split()
    assert proc.returncode == 0 and "spongeknots.cli" in loaded, proc.stderr
    assert "spongeknots.oracle" not in loaded and "oracle" not in loaded


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
    (["embed", "--knot", "trefoil", "--stage", "3"], "embed-trefoil"),
    (["squareflake", "--stage", "2"], "squareflake-2"),
    (["squareflake", "--stage", "1"], "squareflake-1"),
    (["wildknot", "--stage", "2", "--targets", "0/1,1/1", "--knot", "trefoil"], "wildknot-2"),
    (["wildknot", "--stage", "1", "--assign", "all:trivial", "--include-trivial"], "wildknot-1"),
    (["necklace", "--pearls", "4", "--generation", "1"], "necklace-4-1"),
    (["necklace", "--pearls", "3", "--generation", "1", "--base", "trefoil"], "necklace-3-1"),
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


# SHA-256 of every file each build in BUILDS writes, except the timestamped
# sidecar .log: a change to any of them is a change to the output format
BUILD_PINS = {
    "embed-figure-eight": {
        "embed-figure-eight.invariants.csv": "11c470f92ab3444c0b8b6aff42328208e81663bea46b99864aab42043b1c2c49",
        "embed-figure-eight.json": "867b7c57acbe422282b32472414ca349efe113362d9d34423891a29a7a234b90",
        "embed-figure-eight.obj": "83039b404c449a9b6c625223e3049e958a71af42ccf0cafb34de060a027e178d",
        "embed-figure-eight.report.json": "dee55836508f157f18cfe2a5326d7b4fe7afa3b83e79836ed270f917902702a9",
    },
    "embed-trefoil": {
        "embed-trefoil.invariants.csv": "21a68c2cab1edde3129380c80f9267aecd252cddef7f09dfa2811cd4c6408c8b",
        "embed-trefoil.json": "343ea274c4942ed0f6fe6f0b36016ff55ac9f6be8acc9ad8eca0a7e077494615",
        "embed-trefoil.obj": "c4b9d7ebc06985d0f4c7a20b725ba28f86360e5b9253246668cea36193b26670",
        "embed-trefoil.report.json": "4ff655736aad441b153042c1753fabfb883c965df2e113827055938aca1c4178",
    },
    "squareflake-2": {
        "squareflake-2.json": "b0ed823ef5b194b29b158b566821f75a1fac1450d51c85751a5decae9b44aae1",
        "squareflake-2.obj": "dbf0e45f7af03d2b73d9354d1ae7b8630412deda8dcc6048e567d632fad9685d",
        "squareflake-2.report.json": "84ca8078a1cfccfd39a7016ab15c7aaf938e38e8ab42cf67312aafbbbeb77361",
    },
    "squareflake-1": {
        "squareflake-1.json": "3f5097ea856b605fa7726e4c9a443af2718064259c6f793e74dc4b5b900e0218",
        "squareflake-1.obj": "9538eb8fc2438bc8abbe56512242f95398b4a484686898b75249f443f7d78a72",
        "squareflake-1.report.json": "ea8f477433ff126ed566de83eff9c40ef06bd107218a1c3c53f4a5f47e36b5fd",
    },
    "wildknot-2": {
        "wildknot-2.assignment.json": "a366ef93cc10afb21f8a474e6cd11b78eb0ca52d460f17b5243e4c44a363c3d1",
        "wildknot-2.json": "c8c3a7fb40fe5920c0c0a8fc772316d7837486c7617482499fd4e81a34338a19",
        "wildknot-2.obj": "7d049b5371a084fffaf71f8ecef9d42c634400b5c53347d7463031c73cd91b89",
        "wildknot-2.report.json": "f9be521fbeeb59cdf905b0370ffe52576032a39e4df769a87067c1cce74c03f5",
    },
    "wildknot-1": {
        "wildknot-1.assignment.json": "99ba4624f836bb2c1b877b612e5d4bccb16608fb4c6a16a436dcdd4d43ddece3",
        "wildknot-1.json": "9e25ee15bd9f7dbc19fb470f09dc6f2cc36ccc735d89e8200fb62d2bd6c15be9",
        "wildknot-1.obj": "26ce4a7773698cf20b47c42941cd044dc43c34e082b8bdb1847c013ce35e43fc",
        "wildknot-1.report.json": "33ebb22082b40985ed9dfce3202a72b6f1e8eb708ba34ceacf95c5af3fe43bef",
    },
    "necklace-4-1": {
        "necklace-4-1.json": "21d9546d79926e3e8e8cd2262d550c602db91af2ea8c913c85d2395fe004fb35",
        "necklace-4-1.ply": "dda1e7af1c0a5dfcc0f7f6f859499b5124070b37455e555a0525aea379b90820",
        "necklace-4-1.report.json": "ec39a5b90b4f4ce8cf234bd2a30d6652e20240e19bba55abea9659e1bd5b52e6",
    },
    "necklace-3-1": {
        "necklace-3-1.json": "1ea900f1760ebed445c0be5458fe3e4871aedebfa6940e7cfff88b33b33b408f",
        "necklace-3-1.ply": "2f978b2eff0b56dc8d6d1dafe6dafddc47dd1a12998a5ad173053b3040c18270",
        "necklace-3-1.report.json": "73e2ff1c200efa80d9280ca95077f94c6c72d37fbe43637dc04a13b890e5383b",
    },
}


def test_sidecar_log_records_the_argv_main_was_given(tmp_path, capsys, monkeypatch):
    # in-process, the host's own arguments are not the command that built
    monkeypatch.setattr("sys.argv", ["python3", "-c", "--some-host-flag"])
    argv = ["build", "squareflake", "--stage", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    _, command = (tmp_path / "squareflake-3.log").read_text().split(" ", 1)
    assert command == " ".join(argv) + "\n"


@pytest.mark.parametrize("argv,name", BUILDS, ids=[name for _, name in BUILDS])
def test_build_writes_pinned_bytes_and_artifacts_round_trip(tmp_path, capsys, argv, name):
    assert run(["build", *argv, "--out", str(tmp_path)]) == 0
    written = {p.name: p for p in tmp_path.iterdir() if p.suffix != ".log"}
    assert {f: hashlib.sha256(p.read_bytes()).hexdigest() for f, p in written.items()} == BUILD_PINS[name]
    artifacts = [p for f, p in written.items() if f.endswith(".json") and not f.endswith(".report.json")]
    assert artifacts
    for path in artifacts:
        text = path.read_text()
        kind, obj = serialize.load_artifact(text)
        write, _ = serialize.KINDS[kind]
        assert serialize.dump_json(write(obj)) == text


# the three benchmark builds: the wild-set plan, uniform trefoils with the
# determinant, and squareflake-8
BENCHMARK_BUILDS = [
    ["wildknot", "--stage", "7", "--targets", "0/1,1/1"],
    ["wildknot", "--stage", "4", "--assign", "all:trefoil", "--det"],
    ["squareflake", "--stage", "8"],
]


@pytest.mark.parametrize("argv", BENCHMARK_BUILDS, ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_benchmark_builds_never_compute_the_fraction_vertices(tmp_path, capsys, monkeypatch, argv):
    seen = []
    view = ClosedPolyline3.vertices
    monkeypatch.setattr(ClosedPolyline3, "vertices", property(lambda p: seen.append(len(p)) or view.func(p)))
    assert run(["build", *argv, "--out", str(tmp_path)]) == 0
    assert run(["verify", str(tmp_path / f"{argv[0]}-{argv[2]}.json")]) == 0
    assert seen == []


def test_squareflake_8_builds_at_most_one_fraction_per_vertex(tmp_path, capsys, monkeypatch):
    # the curve is built on integers and every segment settles in the
    # containment pass, so only the 256 distinct values of the stage-8
    # detours in `replaced` are Fractions
    built = fraction_counter(monkeypatch)
    assert run(["build", "squareflake", "--stage", "8", "--out", str(tmp_path)]) == 0
    assert len(built) == 256


def test_wild_plan_build_makes_one_fraction_per_site_value(tmp_path, capsys, monkeypatch):
    # sites, cubes and splice marks are integers, so the sites of stages
    # 1..7 make no Fraction (529 when each held one per distinct value),
    # and the whole stage-7 wild-plan build, its checks and its writes make
    # only the 2 targets it parses and squareflake's 128 stage-7 detour
    # records, one per distinct value (853 before, 3,026 with Fraction
    # arithmetic per site)
    built = fraction_counter(monkeypatch)
    assert sum(len(sites(q)) for q in range(1, 8)) == 381
    assert built == []
    assert run(["build", "wildknot", "--stage", "7", "--targets", "0/1,1/1", "--out", str(tmp_path)]) == 0
    assert len(built) == 2 + 128


@pytest.fixture
def default_int_str_limit():
    """CPython's default int-to-str limit, 4,300 digits, while the test runs."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def test_a_stage_past_the_int_to_str_limit_is_a_usage_error(tmp_path, capsys, default_int_str_limit):
    # 3**9012 has 4,300 digits and 3**9013 one more
    limit = default_int_str_limit
    for stage in (9013, 9100, 10**9):
        assert run(["build", "embed", "--knot", "trefoil", "--stage", str(stage), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"stage {stage}" in err[0] and f"limit of {limit} decimal digits" in err[0]
    assert not list(tmp_path.iterdir())
    for stage in (8900, 9012):
        assert run(["build", "embed", "--knot", "trefoil", "--stage", str(stage), "--out", str(tmp_path)]) == 0
        assert f"stage {stage}" in capsys.readouterr().out


def _first_past_the_budget(size):
    """The least argument k >= 0 with ``size(k)`` past the build budget."""
    k = 0
    while size(k) <= cli.BUILD_BUDGET:
        k += 1
    return k


# build kind -> (its argv for an argument k, the size that k makes, the cli
# function the build starts with)
BUDGETED_BUILDS = {
    "squareflake": (lambda k: ["squareflake", "--stage", str(k)], lambda k: 4 * 2**k, "squareflake"),
    "wildknot": (lambda k: ["wildknot", "--stage", str(k), "--targets", "0/1,1/1"], lambda k: 3 * (2**k - 1),
                 "_parse_assignment"),
    "necklace": (lambda k: ["necklace", "--pearls", "3", "--generation", str(k)], lambda k: 3 * 2**k,
                 "make_necklace"),
    "necklace-pairs": (lambda k: ["necklace", "--pearls", str(k)], lambda k: k * (k - 1) // 2, "make_necklace"),
    "necklace-siblings": (lambda k: ["necklace", "--pearls", str(k), "--generation", "1"],
                          lambda k: k * (k - 1) * (k - 2) // 2, "make_necklace"),
}


@pytest.mark.parametrize("kind", BUDGETED_BUILDS)
def test_a_build_past_the_budget_is_refused_before_it_starts(tmp_path, capsys, monkeypatch, kind):
    argv, size, first_call = BUDGETED_BUILDS[kind]
    started = []

    def start(*args, **kwargs):
        started.append(args)
        raise ValueError("started")

    monkeypatch.setattr(cli, first_call, start)
    past = _first_past_the_budget(size)
    begin = time.perf_counter()
    for k in (past, past + 1, 10**9):
        assert run(["build", *argv(k), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and f"{k}" in err[0]
        assert err[0].endswith(f"over the build budget of {cli.BUILD_BUDGET}")
    assert time.perf_counter() - begin < 1
    assert started == [] and not list(tmp_path.iterdir())
    # the largest argument inside the budget starts its build
    assert run(["build", *argv(past - 1), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: started\n" and len(started) == 1


def test_a_build_that_cannot_make_or_write_its_output_directory_is_a_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):  # a file, and a directory under one
        assert run(["build", "squareflake", "--stage", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}: ")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert [f.name for f in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("flags, message", [
    (["--knot", "figure-eight"], "--knot needs --targets"),
    (["--assign", "all:figure-eight", "--targets", "0/1"], "--targets takes no --assign"),
], ids=["knot-without-targets", "assign-with-targets"])
def test_a_wildknot_flag_the_build_would_ignore_is_a_usage_error(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert run(["build", "wildknot", "--stage", "2", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_the_readme_command_lines_run(tmp_path, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[1:] for words in commands if words[:1] == ["spongeknots"]]
    assert commands
    for words in commands:
        argv = [str(tmp_path / w[len("out/"):]) if w.startswith("out/") else w for w in words]
        assert main(argv) == 0, " ".join(words)
