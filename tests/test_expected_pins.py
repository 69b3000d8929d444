"""The smallest benchmark builds still write the artifacts the benchmark pins.

``perfbench/expected.json`` holds SHA-256 digests of each workload's
artifact and report; the benchmark rejects a run whose files differ.  This
rebuilds the ``smoke`` configurations in-process and compares, reading the
pin file without changing it.
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workload", sorted(SMOKE_BUILDS))
def test_smoke_build_matches_pinned_digests(tmp_path, capsys, workload):
    argv = SMOKE_BUILDS[workload]
    assert main(["build", *argv, "--out", str(tmp_path)]) == 0
    pins = json.loads(PINS.read_text())[workload]["smoke"]
    name = f"{argv[0]}-{argv[2]}"
    assert _sha256(tmp_path / f"{name}.json") == pins["json"]
    assert _sha256(tmp_path / f"{name}.report.json") == pins["report"]
