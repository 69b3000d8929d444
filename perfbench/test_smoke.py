"""Smoke test of the benchmark harness: every workload at its smallest size.

Run with ``python -m pytest perfbench/test_smoke.py`` from the repository
root. It lives outside ``tests/``, so the default pytest run does not collect
it. It checks the output contract, not the figures.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# metrics printed by name before the result line, per kind of workload
PRINTED = {
    "build": ["setup_s", "build_s", "verify_s", "failed_frac", "peak_rss_mb"],
    "membership": ["setup_s", "query_ms_p50", "query_ms_p90", "failed_frac", "peak_rss_mb"],
}


def _run(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        printed = {ln.split()[0]: ln.split()[2] for ln in lines[1:-1] if len(ln.split()) >= 3}
        for name in PRINTED["membership" if workload == "membership" else "build"]:
            assert name in printed, name
            assert printed[name]


@pytest.mark.parametrize("error", [TypeError, RecursionError, AssertionError])
def test_a_raising_query_is_wrong_output(monkeypatch, capsys, error):
    """Only the known predicate crash is excused; any other exception makes correct false."""
    sys.path.insert(0, str(HERE))
    import run

    _, ternary = run.import_program()

    def raising(*_):
        raise error("injected")

    monkeypatch.setattr(ternary, "in_sponge", raising)
    assert run.main(["--workload", "membership", "--seed", "7", "--seconds", "0.1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
