"""Batch front-end: construct, verify, and export the package's objects.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 usage or
configuration error.  Payload files are byte-identical across runs of the
same configuration; timestamps go to a sidecar .log file only.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import checks, serialize
from .embed import embed_grid
from .geometry import frac
from .grid import KNOT_DETERMINANTS, catalog, catalog_names
from .invariants import determinant, diagram_from_grid, project, tricolorings
from .necklace import iterate, make_necklace
from .polyline import ClosedPolyline3
from .squareflake import squareflake
from .ternary import (
    AxisSegment,
    membership,
    membership_stage,
    refutation,
    satisfying_expansions,
    segment_in_stage,
    stage_witness,
)
from .wildknot import KnotAssignment, approximant, wild_set_plan

_SPACE_FLAG = {"cantor": "cantor", "carpet-face": "carpet_face", "sponge": "sponge", "carpet2": "carpet2"}
_DIMS = {"cantor": 1, "carpet_face": 2, "sponge": 3, "carpet2": 3}


# ---------------------------------------------------------------------------
# predicate
# ---------------------------------------------------------------------------

def _witness_true_limit(space, coords):
    """The first representation combo that satisfies the space condition."""
    combo = satisfying_expansions(coords, space)
    if combo is None:
        return None
    return [{"preperiod": list(e.preperiod), "period": list(e.period)} for e in combo]


def cmd_predicate(args) -> int:
    space = _SPACE_FLAG[args.space]
    dim = _DIMS[space]
    if args.segment is not None:
        if space not in ("sponge", "carpet2"):
            print("segment queries support sponge and carpet2 only", file=sys.stderr)
            return 2
        axis, f1, f2, lo, hi = args.segment
        seg = AxisSegment(int(axis), (frac(f1), frac(f2)), frac(lo), frac(hi))
        stage = args.stage if args.stage is not None else 0
        verdict = segment_in_stage(seg, stage, space)
        out = {
            "schema": serialize.SCHEMA,
            "query": "segment",
            "space": args.space,
            "stage": stage,
            "segment": serialize.segment_json(seg),
            "verdict": verdict,
        }
        print(serialize.dump_json(out), end="")
        return 0
    coords = [frac(c) for c in args.coords]
    if len(coords) != dim:
        print(f"{args.space} expects {dim} coordinate(s)", file=sys.stderr)
        return 2
    if args.stage is None:
        verdict = membership(tuple(coords), space)
    else:
        verdict = membership_stage(tuple(coords), args.stage, space)
    out = {
        "schema": serialize.SCHEMA,
        "query": "point",
        "space": args.space,
        "stage": args.stage,
        "point": [serialize.rat(c) for c in coords],
        "verdict": verdict,
    }
    if verdict and args.stage is None:
        out["witness"] = _witness_true_limit(space, coords)
    elif verdict:
        out["witness"] = [list(p) for p in stage_witness(coords, args.stage, space)]
    else:
        failed_stage, cells = refutation(coords, space, args.stage)
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

def _out_dir(args) -> Path:
    root = args.out or os.environ.get("SPONGEKNOTS_OUT", "out")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, text: str):
    path.write_text(text)


def _sidecar_log(path: Path, config: str):
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    path.write_text(f"{stamp} {config}\n")


def _finish(results: checks.CheckList) -> int:
    results.report()
    if not results.ok:
        print(f"first failing check: {results.first_failure()}", file=sys.stderr)
        return 1
    return 0


def _emit(args, name: str, json_text: str, obj_text: str | None, results: checks.CheckList,
          extra: dict | None = None) -> int:
    out = _out_dir(args)
    _write(out / f"{name}.json", json_text)
    if obj_text is not None:
        _write(out / f"{name}.obj", obj_text)
    for fname, text in (extra or {}).items():
        _write(out / fname, text)
    report = {
        "schema": serialize.SCHEMA,
        "kind": "report",
        "artifact": f"{name}.json",
        "checks": [
            {"name": n, "pass": ok, **({"detail": d} if d else {})}
            for n, ok, d in results.results
        ],
    }
    _write(out / f"{name}.report.json", serialize.dump_json(report))
    _sidecar_log(out / f"{name}.log", " ".join(sys.argv[1:]))
    return _finish(results)


def cmd_build_embed(args) -> int:
    g = catalog(args.knot)
    poly, rep = embed_grid(g, args.stage)
    results = checks.polyline(poly, rep.stage)
    d = project(poly, (0, 0, 1))
    det = determinant(d)
    tri = tricolorings(d)
    expected = KNOT_DETERMINANTS[args.knot]
    results.add("determinant", det == expected, f"det {det}")
    results.add("grid-projection-match", det == determinant(diagram_from_grid(g)))
    csv = "invariant,value\n" + f"determinant,{det}\n" + f"tricolorings,{tri}\n"
    name = f"embed-{args.knot}"
    return _emit(
        args, name, serialize.dump_json(serialize.polyline_json(poly)),
        serialize.polyline_obj(poly), results,
        {f"{name}.invariants.csv": csv},
    )


def cmd_build_squareflake(args) -> int:
    s = squareflake(args.stage)
    name = f"squareflake-{s.m}"
    return _emit(
        args, name, serialize.dump_json(serialize.squareflake_json(s)),
        serialize.polyline_obj(s.polyline), checks.squareflake(s),
    )


def _parse_assignment(args) -> KnotAssignment:
    if args.targets is not None:
        targets = [frac(t) for t in args.targets.split(",") if t.strip() != ""]
        return wild_set_plan(targets, args.knot, args.stage)
    if args.assign.startswith("all:"):
        name = args.assign.split(":", 1)[1]
        if name == "trivial":
            return KnotAssignment.all_trivial(args.stage)
        return KnotAssignment.uniform(name, args.stage)
    raise ValueError(f"cannot parse assignment {args.assign!r}")


def cmd_build_wildknot(args) -> int:
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
        return ClosedPolyline3(
            ((Fraction(0), Fraction(0), Fraction(0)), (Fraction(1), Fraction(0), Fraction(0)),
             (Fraction(1), Fraction(1), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))),
        )
    poly, _ = embed_grid(catalog(name))
    return poly


def cmd_build_necklace(args) -> int:
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
        print(f"cannot read {path}: {e}", file=sys.stderr)
        return 2
    try:
        kind, obj = serialize.load_artifact(text)
    except ValueError as e:
        msg = str(e)
        if "duplicate vertex" in msg or "3 vertices" in msg:
            # structurally broken polyline: report as a named check failure
            results = checks.CheckList()
            results.add("simplicity", False, msg)
            return _finish(results)
        print(f"schema mismatch: {e}", file=sys.stderr)
        return 2
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
    p.add_argument("--stage", type=int, default=None, help="prefractal stage; omit for the limit set")
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
    bw.add_argument("--assign", default="all:trefoil", help="all:NAME or all:trivial")
    bw.add_argument("--targets", default=None, help="comma-separated Cantor points for a wild-set plan")
    bw.add_argument("--knot", choices=catalog_names(), default="trefoil", help="knot for --targets plans")
    bw.add_argument("--include-trivial", action="store_true", help="splice flat unknots at trivial sites")
    bw.add_argument("--det", action=argparse.BooleanOptionalAction, default=None,
                    help="force or skip the determinant check (default: auto)")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
