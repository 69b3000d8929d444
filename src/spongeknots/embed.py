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
from math import lcm

from .geometry import Cube, Point3, running_axis
from .grid import GridDiagram, validate, walk_points
from .polyline import ClosedPolyline3
from .ternary import AxisSegment, SegmentMemo, in_sponge_stage, segment_in_stage, triadic_exponent


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


def _first_endpoints(k: int, n: int) -> tuple[Fraction, ...]:
    """``cantor_endpoints(k)[:n]`` without the other endpoints, in O(n k):
    endpoint 2j and 2j + 1 bound the j-th stage-k interval, whose low end
    has the ternary digits 2 x the binary digits of j."""
    scale = 3**k
    out = []
    for i in range(n):
        j, low = i >> 1, 0
        for b in range(j.bit_length()):
            low += (j >> b & 1) * 2 * 3**b
        out.append(Fraction(low + (i & 1), scale))
    return tuple(out)


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
    elif k < 0:
        raise ValueError("stage must be >= 0")
    elif (d.n - 1).bit_length() > k + 1:  # 2**(k+1) < n, with no power formed for a huge k
        raise ValueError(f"stage {k} has only {2 ** (k + 1)} endpoints < n = {d.n}")
    endpoints = _first_endpoints(k, d.n)
    poly = ClosedPolyline3(tuple(_vertex_cycle(d, endpoints)))
    return poly, EmbeddingReport(k, endpoints)


# orientation -> for each cube axis, the unit axis it carries and whether
# it is reversed: each puts the unit edge (x=0, z=0) on one edge of the cube
_ORIENTATIONS = {
    "y-edge": ((0, False), (1, False), (2, False)),  # edge at (x=corner.x, z=corner.z), along y
    "y-edge-high": ((0, True), (1, False), (2, False)),  # edge at (x=corner.x+side, z=corner.z), along y
    "x-edge-low": ((1, False), (0, False), (2, False)),  # edge at (y=corner.y, z=corner.z), along x
    "x-edge-high": ((1, False), (0, True), (2, False)),  # edge at (y=corner.y+side, z=corner.z), along x
}


def _orientation(orientation: str):
    if orientation not in _ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")
    return _ORIENTATIONS[orientation]


def _orient(unit: Point3, cube: Cube, orientation: str) -> Point3:
    """Image of a unit-cube point in ``cube``, its edge (x=0, z=0) on the edge ``orientation`` names."""
    return tuple(
        c + cube.side * (1 - unit[src] if flip else unit[src])
        for c, (src, flip) in zip(cube.corner, _orientation(orientation))
    )


def _orient_maps(cube: Cube, orientation: str, scale: int):
    """``_orient`` as integer affine maps: (den, maps) such that the image of
    the unit-cube point p / scale, for an int point p, has the coordinate
    ``(off + mul * p[src]) / den`` for each (src, mul, off) of ``maps``."""
    den = lcm(cube.side.denominator, *(c.denominator for c in cube.corner))
    side = cube.side.numerator * (den // cube.side.denominator)
    maps = []
    for c, (src, flip) in zip(cube.corner, _orientation(orientation)):
        off = c.numerator * (den // c.denominator) * scale
        maps.append((src, -side, off + side * scale) if flip else (src, side, off))
    return den * scale, tuple(maps)


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
    box = Cube(corner, side)
    verts = tuple(_orient(v, box, orientation) for v in unit.vertices)
    # unit column 1 spans the two row heights that use column 1
    heights = [report.endpoints[row - 1] for row, (a, b) in enumerate(d.pairs, start=1) if 1 in (a, b)]
    lo, hi = min(heights), max(heights)
    u = _orient((Fraction(0), lo, Fraction(0)), box, orientation)
    v = _orient((Fraction(0), hi, Fraction(0)), box, orientation)
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


# running axis -> the fixed axes, in axis order
_FIXED_AXES = ((1, 2), (0, 2), (0, 1))


def verify_containment(poly: ClosedPolyline3, stage: int, space: str = "sponge"):
    """Per-segment exact containment verdicts at the given stage.

    An oblique segment, or one leaving the unit cube, is not contained.
    Each segment's axis, the order of its ends and the unit-cube test are
    read from the curve's integer form, and one Fraction is built per
    distinct coordinate value.  A negative stage is a ValueError before
    any segment is read.  One ``SegmentMemo`` serves the whole pass, so
    each distinct value's digits at a stage are split once.
    """
    if stage < 0:
        raise ValueError("stage must be >= 0")
    scale, points = poly.integer_form
    value = {c: Fraction(c, scale) for c in {c for p in points for c in p}}
    memo = SegmentMemo()
    verdicts = []
    for a, b in zip(points, points[1:] + points[:1]):
        ax = running_axis(a, b)
        inside = ax is not None and min(a) >= 0 and max(a) <= scale and 0 <= b[ax] <= scale
        if inside:
            lo, hi = (a[ax], b[ax]) if a[ax] < b[ax] else (b[ax], a[ax])
            i, j = _FIXED_AXES[ax]
            seg = AxisSegment(ax, (value[a[i]], value[a[j]]), value[lo], value[hi])
            inside = segment_in_stage(seg, stage, space, memo=memo)
        verdicts.append(inside)
    return tuple(verdicts)
