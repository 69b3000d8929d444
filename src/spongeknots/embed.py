"""Embedding grid-form knots into finite Menger-sponge stages.

Rows of the grid diagram become horizontal segments on the back face
(z = 1), columns become vertical segments on the front face (z = 0), and
matching endpoints are joined by full-depth connectors (x0, y0, z) with
z in [0, 1].  Grid levels 1..n are realized at the n smallest stage-k
Cantor endpoints, so every segment lies in the sponge exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Cube, Point3, axis_form
from .grid import GridDiagram, validate, walk_points
from .polyline import ClosedPolyline3
from .ternary import AxisSegment, cantor_endpoints, in_sponge_stage, segment_in_stage, triadic_exponent


def stage_for(n: int) -> int:
    """Smallest Cantor stage k whose 2**(k+1) endpoints can host n levels."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = 0
    while 2 ** (k + 1) < n:
        k += 1
    return k


@dataclass(frozen=True)
class EmbeddingReport:
    """Where an embedding lives; its claims are checked by ``checks.polyline``."""

    stage: int
    endpoints: tuple[Fraction, ...]


def _vertex_cycle(d: GridDiagram, endpoints):
    """4n-vertex cycle: rows on z=1, columns on z=0, connectors between."""
    p = {v: endpoints[v - 1] for v in range(1, d.n + 1)}
    pts = walk_points(d)
    one = Fraction(1)
    zero = Fraction(0)
    verts = []
    for m, (col, row) in enumerate(pts):
        x, y = p[col], p[row]
        if m % 2 == 0:
            verts.append((x, y, zero))
            verts.append((x, y, one))
        else:
            verts.append((x, y, one))
            verts.append((x, y, zero))
    return verts


def embed_grid(d: GridDiagram, k: int | None = None) -> tuple[ClosedPolyline3, EmbeddingReport]:
    """Embed a valid grid diagram into the stage-k sponge; default minimal k."""
    bad = validate(d)
    if bad is not None:
        raise ValueError(str(bad))
    if k is None:
        k = stage_for(d.n)
    elif 2 ** (k + 1) < d.n:
        raise ValueError(f"stage {k} has only {2 ** (k + 1)} endpoints < n = {d.n}")
    endpoints = tuple(cantor_endpoints(k)[: d.n])
    poly = ClosedPolyline3(tuple(_vertex_cycle(d, endpoints)))
    return poly, EmbeddingReport(k, endpoints)


def _orient(unit: Point3, corner: Point3, side: Fraction, orientation: str) -> Point3:
    X, Y, Z = unit
    if orientation == "y-edge":  # splice edge at (x=corner.x, z=corner.z), along y
        local = (X, Y, Z)
    elif orientation == "y-edge-high":  # edge at (x=corner.x+side, z=corner.z), along y
        local = (1 - X, Y, Z)
    elif orientation == "x-edge-low":  # edge at (y=corner.y, z=corner.z), along x
        local = (Y, X, Z)
    elif orientation == "x-edge-high":  # edge at (y=corner.y+side, z=corner.z), along x
        local = (Y, 1 - X, Z)
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    return tuple(corner[i] + side * local[i] for i in range(3))


def sponge_stage_of_cube(q: Cube) -> int:
    """Stage s with side 3**-s, or raise when the cube is not grid-aligned."""
    s = triadic_exponent(q.side.denominator) if q.side.numerator == 1 else None
    if s is None:
        raise ValueError("cube side must be a power of 1/3")
    scale = 3**s
    for c in q.corner:
        if (c * scale).denominator != 1:
            raise ValueError("cube corner must lie on the stage grid")
    return s


def check_surviving_cube(q: Cube) -> int:
    """Stage of q, verifying q survives that sponge stage (center test)."""
    s = sponge_stage_of_cube(q)
    cx, cy, cz = q.center()
    if not in_sponge_stage(cx, cy, cz, s):
        raise ValueError(f"cube at {q.corner} side {q.side} is removed by stage {s}")
    return s


def embed_into_box(
    d: GridDiagram, corner: Point3, side: Fraction, orientation: str = "y-edge",
    k: int | None = None,
) -> ClosedPolyline3:
    """Similarity copy of the unit embedding inside an arbitrary box.

    The straight unknotted run along the unit edge (x=0, z=0) maps onto the
    box edge selected by ``orientation`` and is exposed as marks["splice"].
    """
    unit, report = embed_grid(d, k)
    verts = tuple(_orient(v, corner, side, orientation) for v in unit.vertices)
    # unit column 1 spans the two row heights that use column 1
    heights = [report.endpoints[row - 1] for row, (a, b) in enumerate(d.pairs, start=1) if 1 in (a, b)]
    lo, hi = min(heights), max(heights)
    u = _orient((Fraction(0), lo, Fraction(0)), corner, side, orientation)
    v = _orient((Fraction(0), hi, Fraction(0)), corner, side, orientation)
    mark = tuple(sorted((u, v)))
    return ClosedPolyline3(verts, {"splice": mark, "stage": report.stage})


def embed_into_cube(
    d: GridDiagram, q: Cube, orientation: str = "y-edge", k: int | None = None
) -> ClosedPolyline3:
    """Embed into a surviving sponge cube; containment then holds in M_(s+k)."""
    s = check_surviving_cube(q)
    poly = embed_into_box(d, q.corner, q.side, orientation, k)
    poly.marks["sponge_stage"] = s + poly.marks["stage"]
    return poly


def verify_containment(poly: ClosedPolyline3, stage: int, space: str = "sponge"):
    """Per-segment exact containment verdicts at the given stage.

    An oblique segment, or one leaving the unit cube, is not contained.
    """
    verdicts = []
    for a, b in poly.segments():
        form = axis_form(a, b)
        inside = form is not None and all(0 <= c <= 1 for c in a + b)
        verdicts.append(inside and segment_in_stage(AxisSegment(*form), stage, space))
    return tuple(verdicts)
