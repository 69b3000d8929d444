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

from .geometry import ZERO, Cube, Point3
from .grid import GridDiagram, validate, walk_points
from .polyline import ClosedPolyline3, IntegerForm
from .ternary import cantor_numerators, in_sponge_stage, triadic_exponent


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
    levels = cantor_numerators(k, d.n)  # grid level v at levels[v - 1] / 3**k
    top = 3**k
    # 4n-vertex cycle: rows on z = 1, columns on z = 0, connectors between
    verts = []
    for m, (col, row) in enumerate(walk_points(d)):
        x, y = levels[col - 1], levels[row - 1]
        verts += ((x, y, 0), (x, y, top)) if m % 2 == 0 else ((x, y, top), (x, y, 0))
    poly = ClosedPolyline3(IntegerForm(top, tuple(verts)))
    return poly, EmbeddingReport(k, tuple(Fraction(c, top) for c in levels))


# orientation -> for each cube axis, the unit axis it carries and whether
# it is reversed: each puts the unit edge (x=0, z=0) on one edge of the cube
_ORIENTATIONS = {
    "y-edge": ((0, False), (1, False), (2, False)),  # edge at (x=corner.x, z=corner.z), along y
    "y-edge-high": ((0, True), (1, False), (2, False)),  # edge at (x=corner.x+side, z=corner.z), along y
    "x-edge-low": ((1, False), (0, False), (2, False)),  # edge at (y=corner.y, z=corner.z), along x
    "x-edge-high": ((1, False), (0, True), (2, False)),  # edge at (y=corner.y+side, z=corner.z), along x
}


def place(unit: ClosedPolyline3, cube: Cube, orientation: str) -> ClosedPolyline3:
    """The unit-cube curve ``unit`` carried into ``cube``, its edge (x=0,
    z=0) onto the cube edge ``orientation`` names, by one integer affine
    map per coordinate: the int point p over the unit's scale goes to the
    coordinates ``(off + mul * p[src]) / den``.  The marks go with it, the
    Fraction ends of its splice mark carried by the same maps and sorted;
    each of their coordinates is one Fraction of two integers."""
    if orientation not in _ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")
    scale, points = unit.integer_form
    den = lcm(cube.side.denominator, *(c.denominator for c in cube.corner))
    side = cube.side.numerator * (den // cube.side.denominator)
    maps = []
    for c, (src, flip) in zip(cube.corner, _ORIENTATIONS[orientation]):
        off = c.numerator * (den // c.denominator) * scale
        maps.append((src, -side, off + side * scale) if flip else (src, side, off))
    den *= scale
    marks = dict(unit.marks)
    if "splice" in marks:
        marks["splice"] = tuple(sorted(
            tuple(Fraction(off * p[src].denominator + mul * scale * p[src].numerator, den * p[src].denominator)
                  for src, mul, off in maps)
            for p in marks["splice"]))
    placed = tuple(tuple(off + mul * p[src] for src, mul, off in maps) for p in points)
    return ClosedPolyline3(IntegerForm(den, placed), marks)


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
    # unit column 1 spans the two row heights that use column 1
    heights = [report.endpoints[row - 1] for row, (a, b) in enumerate(d.pairs, start=1) if 1 in (a, b)]
    unit.marks.update(splice=((ZERO, min(heights), ZERO), (ZERO, max(heights), ZERO)), stage=report.stage)
    return place(unit, Cube(corner, side), orientation)
