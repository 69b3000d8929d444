#!/usr/bin/env python3
"""Benchmark of spongeknots: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout (the package is imported from
``src/``, nothing is installed)::

    python3 perfbench/run.py --workload wild-plan --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``wild-plan``, ``uniform-det``, ``squareflake``: one operation is an
  in-process ``cli.main(["build", ...])`` into a scratch directory, then
  ``cli.main(["verify", <its artifact>])``. The configurations are fixed; the
  seed changes nothing in them.
* ``membership``: one operation is one query from a seeded mix (see
  ``inputs.py``): criterion-2 Cantor-dust points through ``in_sponge``, 1-free
  points with coprime periods through ``membership``, stage-k queries through
  ``membership_stage`` and ``cli.main(["predicate", ...])`` calls. Queries run
  in cycles of fixed composition, so the mix is the same for every seed; each
  cycle's inputs are made from the seed just before it runs, outside the
  timed calls, so no input repeats within a run.

Load is one caller in a closed loop: each call starts after the previous one
returns. No threads, no pools, no ``--threads``. The loop starts another
operation (a cycle, for ``membership``) only while the elapsed time plus the
duration of the last one fits in ``--seconds``; at least one always runs.

Every operation is checked. It fails on a nonzero exit code, an uncaught
exception, a FAIL check line, an artifact or report whose SHA-256 differs from
the digest pinned in ``expected.json``, or a verdict that differs from the one
the input was built to have. ``failed`` counts all of these, and every one
of them makes ``correct`` false except one known defect: the
``predicate --space sponge 1/8 1/26 0`` query, kept in the mix, raises
AssertionError at the seed. That exception on that input counts as failed
only; any other exception, or any other output on that input that is not the
expected refutation, makes ``correct`` false.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end metrics: ``setup_s`` (median of several timed child processes
that start the interpreter, import spongeknots and make the seeded inputs),
``op_cal_p50`` and ``peak_rss_mb``. The lines before it also give
``build_s``, ``verify_s``, ``query_ms_p50``, ``query_ms_p90``,
``failed_frac`` and ``op_ms_p50`` (median wall time of one operation) where
each applies, with sample counts.

``op_cal_p50`` is the median operation time divided by the mean time of a
speed probe (``SpeedProbe``): a fixed pure-Python loop of about 10 ms, part
of this benchmark, that a SIGALRM handler runs every 0.25 s of the timed
loop, in the same process, between the program's bytecodes. On a shared
2-vCPU Xeon VM the speed of the host changed by up to 2x over minutes, which
moved the wall times of runs made minutes apart far more than any bound a
change could be held to; the probe slows with the host, so the ratio moves
about half as much. All reported times, ``op_ms_p50`` included, exclude the
time spent inside probes.

With ``--trace 1`` every operation runs twice, untraced and then traced (see
``tracer.py``), and the metrics are per layer: self time and work counts per
traced operation, plus the tracing overhead per operation. Counts computed
from the inputs, not seen in the program: ``ternary.joint_period``,
``ternary.running_cells``, ``ternary.queries``. Spans are kept in
memory and written to ``perfbench/out/`` at exit, with a results file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_EVERY_S = 0.25
PROBE_LOOPS = 100_000  # about 10 ms on a 2-vCPU Xeon VM

# workload -> (full build argv, smallest build argv)
BUILDS = {
    "wild-plan": (
        ["wildknot", "--stage", "7", "--targets", "0/1,1/1"],
        ["wildknot", "--stage", "2", "--targets", "0/1,1/1"],
    ),
    "uniform-det": (
        ["wildknot", "--stage", "4", "--assign", "all:trefoil", "--det"],
        ["wildknot", "--stage", "2", "--assign", "all:trefoil", "--det"],
    ),
    "squareflake": (["squareflake", "--stage", "8"], ["squareflake", "--stage", "3"]),
}
WORKLOADS = [*BUILDS, "membership"]
_CHECK_LINE = re.compile(r"^[\w-]+: (PASS|FAIL)\b")


class ProgramMissing(Exception):
    pass


def import_program():
    """Import spongeknots from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "spongeknots" / "__init__.py").is_file():
        raise ProgramMissing(f"no spongeknots package under {src}")
    sys.path.insert(0, str(src))
    import spongeknots
    from spongeknots import cli, ternary

    if Path(spongeknots.__file__).resolve().parent != (src / "spongeknots").resolve():
        raise ProgramMissing(f"spongeknots imported from {spongeknots.__file__}, not {src}")
    return cli, ternary


def make_inputs(workload: str, seed: int, smoke: bool):
    """Build argv, or for ``membership`` the first cycle of queries."""
    if workload == "membership":
        from inputs import membership_cycle

        return membership_cycle(seed, 0)
    return BUILDS[workload][1 if smoke else 0]


# ---------------------------------------------------------------------------
# environment and set-up time
# ---------------------------------------------------------------------------

def _git_commit():
    """HEAD of this checkout, or None where it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def setup_seconds(args) -> list[float]:
    """Wall time of child processes that do exactly the set-up of this run."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_PROBES):
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms
        t = perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t)
    return times


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

KNOWN_CRASH = "known crash: AssertionError in predicate --space sponge 1/8 1/26 0"


class Outcome:
    """Per-run tally of operations and why any failed.

    Every failure is wrong output except ``KNOWN_CRASH``, which is failed only.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: dict[str, int] = {}

    def add(self, reason: str | None):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.wrong += reason != KNOWN_CRASH
            self.reasons[reason] = self.reasons.get(reason, 0) + 1


def _cli(cli, argv, clock=perf_counter):
    """(seconds, exit code or the exception raised, stdout) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t = clock()
        try:
            rc = cli.main(list(argv))
        except Exception as e:  # noqa: BLE001 - counted as a failed operation
            rc = e
        dt = clock() - t
    return dt, rc, out.getvalue()


def _check_lines(text: str) -> str | None:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return "no check lines"
    for ln in lines:
        m = _CHECK_LINE.match(ln)
        if m is None or m.group(1) != "PASS":
            return f"check line {ln!r}"
    return None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class BuildOp:
    """One build into a scratch directory, then verify of the artifact it wrote."""

    def __init__(self, cli, argv, workdir: Path, pins: dict, clock=perf_counter):
        self.cli = cli
        self.clock = clock
        self.argv = ["build", *argv, "--out", str(workdir)]
        self.name = f"{argv[0]}-{argv[2]}"
        self.artifact = workdir / f"{self.name}.json"
        self.report = workdir / f"{self.name}.report.json"
        self.pins = pins

    def __call__(self, outcome: Outcome) -> tuple[float, float]:
        build_s, rc, text = _cli(self.cli, self.argv, self.clock)
        reason = self._build_failure(rc, text)
        verify_s, rc, text = _cli(self.cli, ["verify", str(self.artifact)], self.clock)
        if reason is None:
            reason = _exit_failure(rc, "verify") or _check_lines(text)
        outcome.add(reason)
        return build_s, verify_s

    def _build_failure(self, rc, text):
        failure = _exit_failure(rc, "build") or _check_lines(text)
        if failure is None:
            for path, key in ((self.artifact, "json"), (self.report, "report")):
                if not path.is_file() or _sha256(path) != self.pins[key]:
                    return f"{path.name} differs from the pinned digest"
        return failure

    def sizes(self) -> dict:
        art = json.loads(self.artifact.read_text())
        vertices = len(art["polyline"]["vertices"])
        return {
            "vertices": vertices,
            "segments": vertices,
            "stage": art.get("sponge_stage", art.get("m")),
            "crossings": self.pins.get("crossings"),
        }


def _exit_failure(rc, what: str) -> str | None:
    if isinstance(rc, Exception):
        return f"raised {type(rc).__name__} in {what}"
    if rc != 0:
        return f"{what} exit code {rc}"
    return None


def run_query(cli, ternary, q, clock=perf_counter) -> tuple[float, str | None]:
    """(seconds, failure reason or None) of one membership query."""
    if q.call == "cli":
        dt, rc, text = _cli(cli, q.args, clock)
        if q.kind == "predicate-crash" and isinstance(rc, AssertionError):
            return dt, KNOWN_CRASH
        failure = _exit_failure(rc, "predicate")
        if failure is None:
            try:
                out = json.loads(text)
            except json.JSONDecodeError:
                out = {}
            has = "witness" if q.expected else "refutation"
            if out.get("verdict") is not q.expected or out.get(has) is None:
                failure = f"{q.kind}: wrong verdict or certificate"
        return dt, failure
    fn = getattr(ternary, q.call)
    t = clock()
    try:
        verdict = fn(*q.args)
    except Exception as e:  # noqa: BLE001 - counted as a failed operation
        return clock() - t, f"raised {type(e).__name__} in {q.call}"
    dt = clock() - t
    return dt, None if verdict is q.expected else f"{q.kind}: wrong verdict"


# ---------------------------------------------------------------------------
# closed loops
# ---------------------------------------------------------------------------

def closed_loop(seconds: float, step) -> int:
    """Call step(i) until the next call would likely end past ``seconds``."""
    start = perf_counter()
    i = 0
    while True:
        t = perf_counter()
        step(i)
        i += 1
        now = perf_counter()
        if now - start + (now - t) > seconds:
            return i


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_EVERY_S seconds, from SIGALRM.

    The loop slows down with the host, so its mean time is the unit of
    ``op_cal_p50``. ``clock()`` is ``perf_counter()`` less the time spent in
    probes so far, so intervals read from it leave the probes out.
    """

    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0
        self._old = None

    def _probe(self, signum, frame):
        t = perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i * i % 7
        dt = perf_counter() - t
        self.times.append(dt)
        self.spent += dt

    def clock(self) -> float:
        return perf_counter() - self.spent

    def __enter__(self):
        self._probe(None, None)  # so that a run shorter than PROBE_EVERY_S has one too
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def _traced(tracer, fn, *args):
    tracer.install()
    try:
        t = perf_counter()
        result = fn(*args)
        return perf_counter() - t, result
    finally:
        tracer.uninstall()


def run_builds(args, cli, tracer, clock, info, argv):
    pins = json.loads((HERE / "expected.json").read_text())[args.workload]["smoke" if args.smoke else "full"]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        op = BuildOp(cli, argv, workdir, pins, clock)
        outcome = Outcome()
        samples = {"build_s": [], "verify_s": [], "op_ms": []}
        pairs = []

        def step(_):
            if tracer is None:
                b, v = op(outcome)
                samples["build_s"].append(b)
                samples["verify_s"].append(v)
                samples["op_ms"].append((b + v) * 1000)
            else:
                t = perf_counter()
                op(Outcome())
                plain = perf_counter() - t
                traced, _ = _traced(tracer, op, outcome)
                pairs.append((plain, traced))

        ops = closed_loop(args.seconds, step)
        info["sizes"] = {**op.sizes(), "operations": ops}
        return outcome, samples, pairs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_membership(args, cli, ternary, tracer, clock, info, first_cycle):
    from inputs import membership_cycle

    outcome = Outcome()
    samples = {"op_ms": []}
    pairs = []

    def step(c):
        queries = first_cycle if c == 0 else membership_cycle(args.seed, c)
        if tracer is None:
            for q in queries:
                dt, failure = run_query(cli, ternary, q, clock)
                outcome.add(failure)
                samples["op_ms"].append(dt * 1000)
            return
        for q in queries:
            plain, _ = run_query(cli, ternary, q)
            t_traced, (_, failure) = _traced(tracer, run_query, cli, ternary, q)
            outcome.add(failure)
            pairs.append((plain, t_traced))
            tracer.counts["ternary.queries"] = tracer.counts.get("ternary.queries", 0) + 1
            tracer.counts["ternary.joint_period"] = tracer.counts.get("ternary.joint_period", 0) + q.joint_period

    cycles_run = closed_loop(args.seconds, step)
    info["sizes"] = {"cycles": cycles_run, "queries": outcome.attempted, "cycle": len(first_cycle)}
    return outcome, samples, pairs


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def end_to_end(args, outcome, samples, setup, probe) -> tuple[dict, list[str]]:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_ms_p50 = statistics.median(samples["op_ms"])
    probe_ms = statistics.mean(probe.times) * 1000
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_cal_p50": {"value": op_ms_p50 / probe_ms, "unit": "cal"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    lines = [f"setup_s {statistics.median(setup):.4f} s (median of {len(setup)} set-ups)"]
    if args.workload in BUILDS:
        for key in ("build_s", "verify_s"):
            xs = samples[key]
            lines.append(f"{key} {statistics.median(xs):.4f} s (median of {len(xs)})")
    else:
        xs = samples["op_ms"]
        lines.append(f"query_ms_p50 {statistics.median(xs):.4f} ms (of {len(xs)} queries)")
        lines.append(f"query_ms_p90 {_p90(xs):.4f} ms (of {len(xs)} queries)")
    lines.append(f"failed_frac {outcome.failed / outcome.attempted:.6f} 1 "
                 f"({outcome.failed} of {outcome.attempted})")
    lines.append(f"peak_rss_mb {rss_mb:.2f} MB")
    lines.append(f"op_ms_p50 {op_ms_p50:.4f} ms (n={len(samples['op_ms'])})")
    lines.append(f"probe_ms {probe_ms:.4f} ms (mean of {len(probe.times)})")
    lines.append(f"op_cal_p50 {metrics['op_cal_p50']['value']:.6f} cal (op_ms_p50 / probe_ms)")
    return metrics, lines


COUNT_METRICS = [
    "ternary.queries", "ternary.joint_period", "ternary.segments", "ternary.running_cells",
    "invariants.vertices", "invariants.directions_tried", "invariants.crossings", "wildknot.summands",
    "serialize.bytes",
]


def per_layer(tracer, pairs) -> tuple[dict, list[str]]:
    from tracer import TIME_METRICS

    n = len(pairs)
    metrics = {name: {"value": v / n, "unit": "s"} for name, v in tracer.self_times().items()}
    for name in COUNT_METRICS:
        metrics[name] = {"value": tracer.counts.get(name, 0) / n, "unit": "count"}
    metrics["trace.spans"] = {"value": len(tracer.spans) / n, "unit": "count"}
    plain = sum(p for p, _ in pairs)
    traced = sum(t for _, t in pairs)
    metrics["trace.overhead_ms"] = {"value": (traced - plain) / n * 1000, "unit": "ms"}
    metrics["trace.overhead_frac"] = {"value": traced / plain - 1, "unit": "1"}
    lines = [f"per traced operation, mean of {n}:"]
    for name in TIME_METRICS:
        lines.append(f"  {name} {metrics[name]['value']:.6f} s")
    for name in [*COUNT_METRICS, "trace.spans", "trace.overhead_ms", "trace.overhead_frac"]:
        lines.append(f"  {name} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    return metrics, lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest size of each workload")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli, ternary = import_program()
    except (ProgramMissing, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    inputs = make_inputs(args.workload, args.seed, args.smoke)
    if args.setup_probe:
        return 0
    info = environment(args)
    setup = [] if args.trace else setup_seconds(args)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    probe = None if tracer else SpeedProbe()
    clock = probe.clock if probe else perf_counter
    with probe or contextlib.nullcontext():
        if args.workload in BUILDS:
            outcome, samples, pairs = run_builds(args, cli, tracer, clock, info, inputs)
        else:
            outcome, samples, pairs = run_membership(args, cli, ternary, tracer, clock, info, inputs)

    if tracer is None:
        metrics, lines = end_to_end(args, outcome, samples, setup, probe)
    else:
        metrics, lines = per_layer(tracer, pairs)
    for reason, count in sorted(outcome.reasons.items()):
        lines.append(f"failed {count}x: {reason}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    result = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record = {**result, "info": info, "failures": outcome.reasons, "setup_runs_s": setup, "samples": samples,
              "probe_s": probe.times if probe else []}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    print(json.dumps(info))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
