"""The benchmark builds still write the artifacts the benchmark pins.

``perfbench/expected.json`` holds SHA-256 digests of each workload's
artifact and report; the benchmark rejects a run whose files differ.  This
rebuilds the ``smoke`` and ``full`` configurations in-process and compares,
reading the pin file without changing it.  One larger build, uniform
trefoil at stage 5, is pinned here, so that a byte drift at a size the
site-by-site splice reference of ``test_wildknot`` does not reach fails
before it reaches the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from spongeknots.cli import main

PINS = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

SMOKE_BUILDS = {
    "wild-plan": ["wildknot", "--stage", "2", "--targets", "0/1,1/1"],
    "uniform-det": ["wildknot", "--stage", "2", "--assign", "all:trefoil", "--det"],
    "squareflake": ["squareflake", "--stage", "3"],
}
FULL_BUILDS = {
    "wild-plan": ["wildknot", "--stage", "7", "--targets", "0/1,1/1"],
    "uniform-det": ["wildknot", "--stage", "4", "--assign", "all:trefoil", "--det"],
    "squareflake": ["squareflake", "--stage", "8"],
}
# SHA-256 of build wildknot --stage 5 --assign all:trefoil, as the
# site-by-site splice wrote them
UNIFORM_5 = {
    "json": "f6edfc851cf40b5a0e347a8fe390f25e812a5d4d54b232bebf4dbac6ed6c8ed7",
    "report": "219bc46656ad98ee2ba3abe53bd5c38f7eafcec90b9e037e554385b5c4eed052",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_build_digests(tmp_path, argv, pins):
    assert main(["build", *argv, "--out", str(tmp_path)]) == 0
    name = f"{argv[0]}-{argv[2]}"
    assert _sha256(tmp_path / f"{name}.json") == pins["json"]
    assert _sha256(tmp_path / f"{name}.report.json") == pins["report"]


@pytest.mark.parametrize("workload", sorted(SMOKE_BUILDS))
def test_smoke_build_matches_pinned_digests(tmp_path, capsys, workload):
    _assert_build_digests(tmp_path, SMOKE_BUILDS[workload], json.loads(PINS.read_text())[workload]["smoke"])


@pytest.mark.parametrize("workload", sorted(FULL_BUILDS))
def test_full_build_matches_pinned_digests(tmp_path, capsys, workload):
    _assert_build_digests(tmp_path, FULL_BUILDS[workload], json.loads(PINS.read_text())[workload]["full"])


def test_uniform_stage5_build_matches_its_digests(tmp_path, capsys):
    _assert_build_digests(tmp_path, ["wildknot", "--stage", "5", "--assign", "all:trefoil"], UNIFORM_5)
