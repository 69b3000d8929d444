"""The benchmark's tracer wraps functions by name; each must still exist and
still be called where the benchmark looks for it.

A missing or bypassed name breaks only traced benchmark runs, which the other
tests never start, so this reads ``perfbench/tracer.py`` by path, checks its
table and runs the tracer on the smallest wild-plan build and verify, which
never projects, on the smallest uniform-det build and verify, which does,
and on a segment predicate, the one command that reaches ``segment_in_stage``.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import spongeknots.cli  # loaded before install(), which rebinds names only in loaded modules

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_function_exists_in_its_module():
    missing = [
        f"{module}.{name}"
        for module, names in _tracer_module().LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_trace_of_a_wild_plan_build_and_verify_sees_each_layer(tmp_path, capsys):
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        build = ["build", "wildknot", "--stage", "2", "--targets", "0/1,1/1", "--out", str(tmp_path)]
        assert spongeknots.cli.main(build) == 0
        assert spongeknots.cli.main(["verify", str(tmp_path / "wildknot-2.json")]) == 0
    finally:
        tracer.uninstall()
    spans = {}
    for layer, *_ in tracer.spans:
        spans[layer] = spans.get(layer, 0) + 1
    # the containment pass decides its segments on integers, with no call
    # of segment_in_stage
    assert "ternary.segment_in_stage" not in spans and "ternary.segments" not in tracer.counts
    for layer in ("invariants.is_simple", "wildknot.approximant", "serialize.dump", "serialize.load"):
        assert spans.get(layer, 0) >= 1, layer


def test_trace_of_a_uniform_det_build_and_verify_sees_the_projection(tmp_path, capsys):
    # the smallest uniform-det build projects and takes the determinant; the
    # tracer reads each returned direction back as a generic_directions index
    pinned = json.loads((TRACER.parent / "expected.json").read_text())["uniform-det"]["smoke"]["crossings"]
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        build = ["build", "wildknot", "--stage", "2", "--assign", "all:trefoil", "--det", "--out", str(tmp_path)]
        assert spongeknots.cli.main(build) == 0
        assert spongeknots.cli.main(["verify", str(tmp_path / "wildknot-2.json")]) == 0
    finally:
        tracer.uninstall()
    spans = {}
    for layer, *_ in tracer.spans:
        spans[layer] = spans.get(layer, 0) + 1
    for layer in ("invariants.project", "invariants.determinant", "invariants.is_simple", "wildknot.approximant"):
        assert spans.get(layer, 0) >= 1, layer
    # one projection in the build and one in the verify, each with the pinned crossings
    assert tracer.counts["invariants.crossings"] == 2 * pinned == 54
    assert tracer.counts["invariants.directions_tried"] >= 2
    assert "ternary.segment_in_stage" not in spans and "ternary.segments" not in tracer.counts


def test_trace_of_a_segment_predicate_sees_one_segment_in_stage_span(capsys):
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        argv = ["predicate", "--space", "sponge", "--stage", "3", "--segment", "0", "1/3", "0", "0", "1"]
        assert spongeknots.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert [layer for layer, *_ in tracer.spans].count("ternary.segment_in_stage") == 1
    assert tracer.counts["ternary.segments"] == 1
    assert json.loads(capsys.readouterr().out)["verdict"] is True
