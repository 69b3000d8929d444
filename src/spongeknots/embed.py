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
from itertools import chain
from math import gcd, lcm

from . import ternary
from .geometry import ZERO, Cube, Point3, running_axis
from .grid import GridDiagram, validate, walk_points
from .polyline import ClosedPolyline3, IntegerForm
from .ternary import (
    _FREE_ENOUGH, AxisSegment, _range_kept, _stage_digits, _words, cantor_numerators,
    check_segment_space, in_sponge_stage, segment_in_stage, triadic_exponent,
)


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


def _place(unit: ClosedPolyline3, cube: Cube, orientation: str) -> ClosedPolyline3:
    """The unit-cube curve ``unit`` carried into ``cube``, its edge (x=0,
    z=0) onto the cube edge ``orientation`` names, by one integer affine
    map per coordinate: the int point p over the unit's scale goes to the
    coordinates ``(off + mul * p[src]) / den``.  The marks go with it, the
    Fraction ends of its splice mark carried by the same maps and sorted."""
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
            tuple((off + mul * scale * p[src]) / den for src, mul, off in maps) for p in marks["splice"]))
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
    return _place(unit, Cube(corner, side), orientation)


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
    An unknown space or a negative stage is a ValueError before any
    segment is read.  Each segment's axis, the order of its ends and the
    unit-cube test are read from the curve's integer form.

    Each distinct coordinate value c / scale is reduced once, to num / den.
    Every segment whose fixed values are triadic is decided at one stage,
    k = min(stage, J) with 3**J the power of 3 in the scale: no exponent of
    a value exceeds J, and past its fixed values' exponents no stage
    removes more of a segment (``segment_in_stage``), so k gives each the
    verdict of its own stage.  Each triadic value's digits are split once,
    at k (``_stage_digits``), and the value settles when its best cell has
    no digit 1.  A segment with ``_FREE_ENOUGH`` settled fixed values is
    inside, and no digit of its ends is read.  For any other, the words of
    its values are made once per value from the same splits, and
    ``_range_kept`` decides it on integers.  A segment with a non-triadic
    fixed value goes to ``segment_in_stage``, which decides it at its own
    settled stage, so that one far value holds back no other segment.
    """
    check_segment_space(space)
    if stage < 0:
        raise ValueError("stage must be >= 0")
    scale, points = poly.integer_form
    values = set(chain.from_iterable(points))
    k = min(stage, ternary._split_three(scale)[0])
    exponents, digits, settled, other = {}, {}, set(), {}
    for c in values:
        if 0 <= c <= scale:
            g = gcd(c, scale)
            num, den = c // g, scale // g
            try:
                e = exponents[den]
            except KeyError:
                e = exponents[den] = triadic_exponent(den)
            if e is None:
                other[c] = num, den
                continue
            digits[c] = split = _stage_digits(num, den, e, k)
            if split[2]:
                settled.add(c)
    ones = ((1 << 8 * k) - 1) // 255
    words = {}
    in_cube = 0 <= min(values) and max(values) <= scale  # then so is every segment
    enough = _FREE_ENOUGH[space]
    verdicts = []
    for a, b in zip(points, points[1:] + points[:1]):
        ax = running_axis(a, b)
        inside = ax is not None and (in_cube or min(a) >= 0 and max(a) <= scale and 0 <= b[ax] <= scale)
        if inside:
            i, j = _FIXED_AXES[ax]
            if (a[i] in settled) + (a[j] in settled) < enough:
                u, v = a[i], a[j]
                lo, hi = (a[ax], b[ax]) if a[ax] < b[ax] else (b[ax], a[ax])
                if u in digits and v in digits:
                    for c in (u, v, lo, hi):
                        if c not in words:
                            words[c] = _words(digits.get(c) or _stage_digits(*other[c], None, k), ones)
                    inside = _range_kept(space, words[u][2], words[v][2], words[lo][0], words[hi][1])
                else:
                    ends = Fraction(u, scale), Fraction(v, scale), Fraction(lo, scale), Fraction(hi, scale)
                    inside = segment_in_stage(AxisSegment(ax, ends[:2], *ends[2:]), stage, space)
        verdicts.append(inside)
    return tuple(verdicts)
