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
from math import gcd

from .geometry import FIXED_AXES, Cube
from .grid import GridDiagram, validate, walk_points
from .polyline import ClosedPolyline3, IntegerForm
from .ternary import cantor_numerators, in_sponge_cell, triadic_exponent


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
    levels: tuple[int, ...]  # grid level v at levels[v - 1] / 3**stage

    @property
    def endpoints(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, 3**self.stage) for c in self.levels)


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
    return poly, EmbeddingReport(k, tuple(levels))


# orientation -> for each cube axis, the unit axis it carries and whether
# it is reversed: each puts the unit edge (x=0, z=0) on one edge of the cube
_ORIENTATIONS = {
    "y-edge": ((0, False), (1, False), (2, False)),  # edge at (x=corner.x, z=corner.z), along y
    "y-edge-high": ((0, True), (1, False), (2, False)),  # edge at (x=corner.x+side, z=corner.z), along y
    "x-edge-low": ((1, False), (0, False), (2, False)),  # edge at (y=corner.y, z=corner.z), along x
    "x-edge-high": ((1, False), (0, True), (2, False)),  # edge at (y=corner.y+side, z=corner.z), along x
}


def cube_edge(cube: Cube, orientation: str):
    """(axis, fixed, lo, hi): the edge of ``cube`` that ``orientation`` puts
    the unit edge (x=0, z=0) on, in ints over ``cube.scale``: along
    ``axis`` from lo to hi, its other coordinates ``fixed`` in axis order."""
    maps = _ORIENTATIONS[orientation]
    axis = [src for src, _ in maps].index(1)
    fixed = tuple(cube.corner[i] + cube.side * maps[i][1] for i in FIXED_AXES[axis])
    return axis, fixed, cube.corner[axis], cube.corner[axis] + cube.side


def place(unit: ClosedPolyline3, cube: Cube, orientation: str) -> ClosedPolyline3:
    """The unit-cube curve ``unit`` carried into ``cube``, its edge (x=0,
    z=0) onto ``cube_edge(cube, orientation)``, by one integer affine map
    per coordinate: the int point p over the unit's scale goes to the
    coordinates ``(off + mul * p[src]) / (cube.scale * scale)``.  The
    vertex order is kept, so the marks, a splice mark's segment index
    among them, go with the curve unchanged."""
    if orientation not in _ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")
    scale, points = unit.integer_form
    maps = [(src, -cube.side, (c + cube.side) * scale) if flip else (src, cube.side, c * scale)
            for c, (src, flip) in zip(cube.corner, _ORIENTATIONS[orientation])]
    placed = tuple(tuple(off + mul * p[src] for src, mul, off in maps) for p in points)
    return ClosedPolyline3(IntegerForm(cube.scale * scale, placed), dict(unit.marks))


def check_surviving_cube(q: Cube) -> int:
    """The stage s of a grid cube of side 3**-s, verifying that it survives
    the stage-s sponge.  Its side is 3**-s exactly when side / scale, over
    g = gcd(side, scale), is 1 / 3**s; its corner then lies on the grid
    exactly when g divides it, so, q being reduced, when g is 1."""
    g = gcd(q.side, q.scale)
    s = triadic_exponent(q.scale // g) if q.side == g else None
    if s is None:
        raise ValueError("cube side must be a power of 1/3")
    if g != 1:
        raise ValueError("cube corner must lie on the stage grid")
    if not in_sponge_cell(q.corner, s):
        raise ValueError(f"cube at {q.corner} over {q.scale} is removed by stage {s}")
    return s


def embed_into_box(d: GridDiagram, cube: Cube, orientation: str = "y-edge", k: int | None = None) -> ClosedPolyline3:
    """Similarity copy of the unit embedding inside an arbitrary cube.

    The straight unknotted run along the unit edge (x=0, z=0), grid column
    1 on the front face, maps onto the cube edge selected by
    ``orientation``; marks["splice"] is its index in the vertex cycle.
    """
    unit, report = embed_grid(d, k)
    points = unit.integer_form.points
    t = next(t for t, (a, b) in enumerate(zip(points, points[1:] + points[:1])) if a[0] == b[0] == a[2] == b[2] == 0)
    unit.marks.update(splice=t, stage=report.stage)
    return place(unit, cube, orientation)
