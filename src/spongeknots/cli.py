"""Batch front-end: construct, verify, and export the package's objects.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 usage or
configuration error.  Payload files are byte-identical across runs of the
same configuration; timestamps go to a sidecar .log file only.
"""

from __future__ import annotations

import argparse
import datetime
import sys
from functools import cache
from pathlib import Path

from . import checks, serialize
from .embed import embed_grid
from .geometry import frac
from .grid import catalog, catalog_names
from .necklace import iterate, make_necklace
from .polyline import ClosedPolyline3, IntegerForm, PolylineError
from .squareflake import squareflake
from .ternary import (
    AxisSegment,
    check_segment_space,
    limit_certificate,
    segment_in_stage,
    stage_certificate,
)
from .wildknot import KnotAssignment, approximant, wild_set_plan

_SPACE_FLAG = {"cantor": "cantor", "carpet-face": "carpet_face", "sponge": "sponge", "carpet2": "carpet2"}


# ---------------------------------------------------------------------------
# predicate
# ---------------------------------------------------------------------------

def cmd_predicate(args) -> int:
    space = _SPACE_FLAG[args.space]
    if args.segment is not None:
        if args.coords:
            raise ValueError("--segment takes no coordinates")
        axis, f1, f2, lo, hi = args.segment
        seg = AxisSegment(int(axis), (frac(f1), frac(f2)), frac(lo), frac(hi))
        check_segment_space(space)
        if args.stage is None:
            raise ValueError("--segment needs --stage")
        verdict = segment_in_stage(seg, args.stage, space)
        out = {
            "schema": serialize.SCHEMA,
            "query": "segment",
            "space": args.space,
            "stage": args.stage,
            "segment": serialize.segment_json(seg),
            "verdict": verdict,
        }
        print(serialize.dump_json(out), end="")
        return 0
    coords = tuple(frac(c) for c in args.coords)
    if args.stage is None:
        witness, refuted = limit_certificate(coords, space)
    else:
        witness, refuted = stage_certificate(coords, args.stage, space)
    verdict = witness is not None
    out = {
        "schema": serialize.SCHEMA,
        "query": "point",
        "space": args.space,
        "stage": args.stage,
        "point": [serialize.rat(c) for c in coords],
        "verdict": verdict,
    }
    if verdict and args.stage is None:
        out["witness"] = [{"preperiod": list(e.preperiod), "period": list(e.period)} for e in witness]
    elif verdict:
        out["witness"] = [list(p) for p in witness]
    else:
        failed_stage, cells = refuted
        out["refutation"] = {
            "failed_stage": failed_stage,
            "cells": [
                {"stage": c.stage, "cell": [[serialize.rat(lo), serialize.rat(hi)] for lo, hi in c.cell],
                 "removed": c.removed}
                for c in cells
            ],
        }
    print(serialize.dump_json(out), end="")
    return 0


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _finish(results: checks.CheckList) -> int:
    results.report()
    if not results.ok:
        print(f"first failing check: {results.first_failure()}", file=sys.stderr)
        return 1
    return 0


def _emit(args, name: str, json_text: str, obj_text: str | None, results: checks.CheckList,
          extra: dict | None = None) -> int:
    report = {
        "schema": serialize.SCHEMA,
        "kind": "report",
        "artifact": f"{name}.json",
        "checks": [
            {"name": n, "pass": ok, **({"detail": d} if d else {})}
            for n, ok, d in results.results
        ],
    }
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    files = {
        f"{name}.json": json_text,
        **({f"{name}.obj": obj_text} if obj_text is not None else {}),
        **(extra or {}),
        f"{name}.report.json": serialize.dump_json(report),
        f"{name}.log": f"{stamp} {' '.join(args.argv)}\n",  # the sidecar: timestamps go only here
    }
    out = path = Path(args.out or "out")
    try:
        out.mkdir(parents=True, exist_ok=True)
        for fname, text in files.items():
            path = out / fname
            path.write_text(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e.strerror or e}") from None
    return _finish(results)


def _check_denominator_digits(stage: int | None):
    """A stage-k embedding writes 3**k; refuse a k whose power is past the
    int-to-str limit (0 for none, or before Python 3.10.7), deciding a k
    over three times the limit (27 > 10) without forming the power."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and stage is not None and (stage > 3 * limit or 3**stage >= 10**limit):
        raise ValueError(f"stage {stage} needs 3**{stage}, over the int-to-str limit of {limit} decimal digits")


# the most items one build makes: squareflake vertices, approximant ledger
# sites, necklace pearls, the pearl pairs a generation-0 necklace compares,
# and the sibling pairs an iterated one compares
BUILD_BUDGET = 2**14


def _check_build_size(argument: str, size_text: str, exponent: int, size):
    """Refuse a build of ``size()`` items past BUILD_BUDGET before it starts.
    ``size()`` is at least 2**exponent, so an exponent past the budget's bit
    length is refused without forming the power; a negative exponent is
    left to the build, which refuses it."""
    if exponent >= 0 and (exponent > BUILD_BUDGET.bit_length() or size() > BUILD_BUDGET):
        raise ValueError(f"{argument} makes {size_text}, over the build budget of {BUILD_BUDGET}")


def cmd_build_embed(args) -> int:
    _check_denominator_digits(args.stage)
    poly, _ = embed_grid(catalog(args.knot), args.stage)
    name = f"embed-{args.knot}"
    return _emit(
        args, name, serialize.dump_json(serialize.polyline_json(poly)),
        serialize.polyline_obj(poly), checks.polyline(poly, knot=args.knot),
        {f"{name}.invariants.csv": serialize.invariants_csv(poly)},
    )


def cmd_build_squareflake(args) -> int:
    m = args.stage
    _check_build_size(f"--stage {m}", f"4*2**{m} squareflake vertices", m, lambda: 4 * 2**m)
    s = squareflake(m)
    name = f"squareflake-{s.m}"
    return _emit(
        args, name, serialize.dump_json(serialize.squareflake_json(s)),
        serialize.polyline_obj(s.polyline), checks.squareflake(s),
    )


def _parse_assignment(args) -> KnotAssignment:
    if args.targets is not None:
        if args.assign is not None:
            raise ValueError("--targets takes no --assign")
        targets = [frac(t) for t in args.targets.split(",") if t.strip() != ""]
        return wild_set_plan(targets, args.knot or "trefoil", args.stage)
    if args.knot is not None:
        raise ValueError("--knot needs --targets")
    assign = args.assign or "all:trefoil"
    if assign.startswith("all:"):
        name = assign.split(":", 1)[1]
        if name == "trivial":
            return KnotAssignment.all_trivial(args.stage)
        return KnotAssignment.uniform(name, args.stage)
    raise ValueError(f"cannot parse assignment {assign!r}")


def cmd_build_wildknot(args) -> int:
    m = args.stage
    _check_build_size(f"--stage {m}", f"3*(2**{m} - 1) ledger sites", m, lambda: 3 * (2**m - 1))
    assign = _parse_assignment(args)
    a = approximant(assign, args.stage, include_trivial=args.include_trivial)
    name = f"wildknot-{args.stage}"
    return _emit(
        args, name, serialize.dump_json(serialize.approximant_json(a)),
        serialize.polyline_obj(a.polyline), checks.approximant(a, args.det),
        {f"{name}.assignment.json": serialize.dump_json(serialize.assignment_json(assign))},
    )


def _necklace_base(name: str) -> ClosedPolyline3:
    if name == "square":
        return ClosedPolyline3(IntegerForm(1, ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))))
    poly, _ = embed_grid(catalog(name))
    return poly


def cmd_build_necklace(args) -> int:
    n, m = args.pearls, args.generation
    if n >= 3:  # fewer pearls are refused by make_necklace
        _check_build_size(f"--pearls {n} --generation {m}", f"{n}*{n - 1}**{m} pearls", m,
                          lambda: n * (n - 1) ** m)
        _check_build_size(f"--pearls {n}", f"{n}*{n - 1}/2 pearl pairs", 0, lambda: n * (n - 1) // 2)
        if m >= 1:
            _check_build_size(f"--pearls {n} --generation {m}", f"{n}*{n - 1}**{m}*{n - 2}/2 sibling pairs", m,
                              lambda: n * (n - 1) ** m * (n - 2) // 2)
    base = make_necklace(_necklace_base(args.base), args.pearls)
    it = iterate(base, args.generation) if args.generation else None
    name = f"necklace-{args.pearls}-{args.generation}"
    ply = serialize.points_ply([p.center for p in (it or base).pearls])
    return _emit(
        args, name, serialize.dump_json(serialize.necklace_json(base, it)),
        None, checks.necklace(base, it), {f"{name}.ply": ply},
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    path = Path(args.file)
    try:
        text = path.read_text()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError:
        raise ValueError(f"cannot read {path}: not UTF-8 text") from None
    try:
        kind, obj = serialize.load_artifact(text)
    except PolylineError as e:
        # structurally broken polyline: report as a named check failure
        results = checks.CheckList()
        results.add("simplicity", False, str(e))
        return _finish(results)
    except ValueError as e:
        raise ValueError(f"schema mismatch: {e}") from None
    return _finish(checks.SUITES[kind](obj))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spongeknots",
        description="exact knot constructions in Menger-sponge prefractals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predicate", help="membership queries with digit witnesses")
    p.add_argument("--space", choices=sorted(_SPACE_FLAG), required=True)
    p.add_argument("--stage", type=int, default=None,
                   help="prefractal stage; omit for the limit set of a point, required with --segment")
    p.add_argument("--segment", nargs=5, metavar=("AXIS", "FIX1", "FIX2", "LO", "HI"), default=None)
    p.add_argument("coords", nargs="*", help="rational coordinates like 7/9")
    p.set_defaults(func=cmd_predicate)

    b = sub.add_parser("build", help="construct, verify and export an object")
    bsub = b.add_subparsers(dest="kind", required=True)

    be = bsub.add_parser("embed", help="embed a catalog knot into a sponge stage")
    be.add_argument("--knot", choices=catalog_names(), required=True)
    be.add_argument("--stage", type=int, default=None)
    be.add_argument("--out", default=None)
    be.set_defaults(func=cmd_build_embed)

    bs = bsub.add_parser("squareflake", help="squareflake stage curve")
    bs.add_argument("--stage", type=int, required=True)
    bs.add_argument("--out", default=None)
    bs.set_defaults(func=cmd_build_squareflake)

    bw = bsub.add_parser("wildknot", help="staged connected-sum approximant")
    bw.add_argument("--stage", type=int, required=True)
    bw.add_argument("--assign", default=None, help="all:NAME or all:trivial (default: all:trefoil)")
    bw.add_argument("--targets", default=None, help="comma-separated Cantor points for a wild-set plan")
    bw.add_argument("--knot", choices=catalog_names(), default=None,
                    help="knot for --targets plans (default: trefoil)")
    bw.add_argument("--include-trivial", action="store_true", help="splice flat unknots at trivial sites")
    bw.add_argument("--det", action="store_true",
                    help="check the determinant however many summands are spliced (default: at most 9)")
    bw.add_argument("--out", default=None)
    bw.set_defaults(func=cmd_build_wildknot)

    bn = bsub.add_parser("necklace", help="pearl chain necklace and its iteration")
    bn.add_argument("--pearls", type=int, required=True)
    bn.add_argument("--generation", type=int, default=0)
    bn.add_argument("--base", default="square", help="'square' or a catalog knot name")
    bn.add_argument("--out", default=None)
    bn.set_defaults(func=cmd_build_necklace)

    v = sub.add_parser("verify", help="re-run invariant checks on a stored artifact")
    v.add_argument("file")
    v.set_defaults(func=cmd_verify)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``main`` call and kept for the
    process: parsing leaves the parser as it was, and a process that runs
    many commands builds it once."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(argv)
    args.argv = argv  # the command the sidecar .log records
    try:
        return args.func(args)
    except (ValueError, KeyError) as e:
        # str() of a KeyError is the repr of its message; print the message
        print(f"error: {e.args[0] if isinstance(e, KeyError) and e.args else e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
