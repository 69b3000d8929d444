"""Deterministic artifact serialization.

JSON is the exact format: every rational is a ``"num/den"`` string and
field order is fixed, so identical configurations produce byte-identical
files.  OBJ and PLY are lossy viewer exports and say so in a banner
comment; timestamps never enter payload files.
"""

from __future__ import annotations

import json

from .geometry import Cube, boolean, frac, integer
from .grid import GridDiagram
from .necklace import Necklace, Pearl
from .polyline import ClosedPolyline3
from .squareflake import SquareflakeStage
from .ternary import AxisSegment
from .wildknot import Approximant, KnotAssignment, LedgerEntry

SCHEMA = "v1"

LOSSY_BANNER = "lossy decimal export; exact rationals live in the JSON artifact"


def rat(x) -> str:
    f = frac(x)
    return f"{f.numerator}/{f.denominator}"


def point_json(p):
    return [rat(c) for c in p]


def point_from_json(p):
    point = tuple(frac(c) for c in p)
    if len(point) != 3:
        raise ValueError(f"a point needs 3 coordinates, got {len(point)}")
    return point


# --- polylines -------------------------------------------------------------

def polyline_json(p: ClosedPolyline3) -> dict:
    marks = {}
    for key, value in sorted(p.marks.items()):
        if isinstance(value, int):
            marks[key] = value
        else:
            marks[key] = [point_json(q) for q in value]
    return {
        "schema": SCHEMA,
        "kind": "polyline",
        "vertices": [point_json(v) for v in p.vertices],
        "marks": marks,
    }


def polyline_from_json(d: dict) -> ClosedPolyline3:
    marks = {}
    for key, value in d.get("marks", {}).items():
        if isinstance(value, list):
            marks[key] = tuple(point_from_json(q) for q in value)
        else:
            marks[key] = integer(value)
    return ClosedPolyline3(tuple(point_from_json(v) for v in d["vertices"]), marks)


# --- grid diagrams ---------------------------------------------------------

def grid_from_json(d: dict) -> GridDiagram:
    return GridDiagram.from_json_dict(d)


# --- axis segments / cubes -------------------------------------------------

def segment_json(s: AxisSegment) -> dict:
    return {
        "axis": s.axis,
        "fixed": [rat(s.fixed[0]), rat(s.fixed[1])],
        "lo": rat(s.lo),
        "hi": rat(s.hi),
    }


def segment_from_json(d: dict) -> AxisSegment:
    return AxisSegment(
        integer(d["axis"]),
        (frac(d["fixed"][0]), frac(d["fixed"][1])),
        frac(d["lo"]),
        frac(d["hi"]),
    )


def cube_json(c: Cube) -> dict:
    return {"corner": point_json(c.corner), "side": rat(c.side)}


def cube_from_json(d: dict) -> Cube:
    return Cube(point_from_json(d["corner"]), frac(d["side"]))


# --- squareflake -----------------------------------------------------------

def squareflake_json(s: SquareflakeStage) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "squareflake",
        "m": s.m,
        "polyline": polyline_json(s.polyline),
        "replaced": [
            {"removed": segment_json(seg), "path": [point_json(p) for p in path]}
            for seg, path in s.replaced
        ],
    }


def squareflake_from_json(d: dict) -> SquareflakeStage:
    replaced = tuple(
        (segment_from_json(r["removed"]), tuple(point_from_json(p) for p in r["path"]))
        for r in d["replaced"]
    )
    return SquareflakeStage(integer(d["m"]), polyline_from_json(d["polyline"]), replaced)


# --- approximants ----------------------------------------------------------

def approximant_json(a: Approximant) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "approximant",
        "m": a.m,
        "sponge_stage": a.sponge_stage,
        "polyline": polyline_json(a.polyline),
        "ledger": [
            {
                "stage": e.stage,
                "index": e.index,
                "site_kind": e.kind,
                "knot": e.knot,
                "nontrivial": e.nontrivial,
                "mirror": e.mirror,
                "spliced": e.spliced,
                "cube": cube_json(e.cube),
                "summand_det": e.summand_det,
            }
            for e in a.ledger
        ],
    }


def approximant_from_json(d: dict) -> Approximant:
    ledger = tuple(
        LedgerEntry(
            integer(e["stage"]), integer(e["index"]), e["site_kind"], e["knot"],
            boolean(e["nontrivial"]), boolean(e["mirror"]), boolean(e["spliced"]),
            cube_from_json(e["cube"]), integer(e["summand_det"]),
        )
        for e in d["ledger"]
    )
    return Approximant(
        integer(d["m"]), polyline_from_json(d["polyline"]), ledger, integer(d["sponge_stage"])
    )


def assignment_json(a: KnotAssignment) -> dict:
    return {"schema": SCHEMA, "kind": "assignment", **a.to_json_dict()}


def assignment_from_json(d: dict) -> KnotAssignment:
    entries = {
        (integer(e["stage"]), integer(e["index"])): (e["knot"], boolean(e["mirror"]))
        for e in d.get("entries", [])
    }
    return KnotAssignment(integer(d["stage"]), entries, d.get("default", "trivial"))


# --- necklaces ---------------------------------------------------------------

def pearl_json(p: Pearl) -> dict:
    return {
        "center": point_json(p.center),
        "radius_sq": rat(p.radius_sq),
        "word": list(p.word),
    }


def pearl_from_json(d: dict) -> Pearl:
    return Pearl(point_from_json(d["center"]), frac(d["radius_sq"]), tuple(integer(j) for j in d["word"]))


def necklace_json(base: Necklace, iterated: Necklace | None = None) -> dict:
    """Generation-0 necklace, optionally with one iterated generation."""
    if base.generation != 0:
        raise ValueError("necklace artifacts store the generation-0 necklace")
    out = {
        "schema": SCHEMA,
        "kind": "necklace",
        "n": base.n,
        "pearls": [pearl_json(p) for p in base.pearls],
        "knot": polyline_json(base.knot),
    }
    if iterated is not None:
        out["iterated"] = {
            "generation": iterated.generation,
            "pearls": [pearl_json(p) for p in iterated.pearls],
        }
    return out


def necklace_from_json(d: dict):
    """(generation-0 necklace, iterated necklace or None)."""
    base = Necklace(
        tuple(pearl_from_json(p) for p in d["pearls"]),
        polyline_from_json(d["knot"]),
        integer(d["n"]),
    )
    it = d.get("iterated")
    iterated = None
    if it is not None:
        iterated = Necklace(
            tuple(pearl_from_json(p) for p in it["pearls"]),
            base.knot,
            base.n,
            generation=integer(it["generation"]),
        )
    return base, iterated


# --- lossy viewer exports ----------------------------------------------------

def polyline_obj(p: ClosedPolyline3) -> str:
    lines = [f"# {LOSSY_BANNER}"]
    for v in p.vertices:
        lines.append("v " + " ".join(repr(float(c)) for c in v))
    idx = " ".join(str(i + 1) for i in range(len(p.vertices)))
    lines.append(f"l {idx} 1")  # closed loop repeats the first index
    return "\n".join(lines) + "\n"


def points_ply(points) -> str:
    pts = [tuple(frac(c) for c in p) for p in points]
    header = [
        "ply",
        "format ascii 1.0",
        f"comment {LOSSY_BANNER}",
        f"element vertex {len(pts)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    body = [" ".join(repr(float(c)) for c in p) for p in pts]
    return "\n".join(header + body) + "\n"


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=1, ensure_ascii=False) + "\n"


def load_json(text: str) -> dict:
    return json.loads(text)


FROM_JSON = {
    "polyline": polyline_from_json,
    "grid": grid_from_json,
    "squareflake": squareflake_from_json,
    "approximant": approximant_from_json,
    "assignment": assignment_from_json,
    "necklace": necklace_from_json,
}


def load_artifact(text: str):
    """(kind, object) of an artifact; ValueError for any malformed input."""
    d = load_json(text)
    if not isinstance(d, dict):
        raise ValueError("artifact is not a JSON object")
    kind = d.get("kind")
    if kind not in FROM_JSON:
        raise ValueError(f"unknown artifact kind: {kind!r}")
    try:
        return kind, FROM_JSON[kind](d)
    except (AttributeError, KeyError, TypeError) as e:
        raise ValueError(f"malformed {kind} artifact: {type(e).__name__}: {e}") from None
