"""Squareflake stages: recursive middle-third detours on one square edge.

Stage 0 is the unit square boundary in the face z = 0.  Stage m replaces
the open middle third of every surviving subsegment of the right edge
(x = 1) with the other three sides of the square bulging into the face,
at abscissa (3^m - 1)/3^m.  Every stage is a simple closed curve on the
face and lies in the sponge at all stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import ONE, ZERO
from .polyline import ClosedPolyline3, IntegerForm
from .ternary import AxisSegment, cantor_numerators


@dataclass(frozen=True)
class SquareflakeStage:
    m: int
    polyline: ClosedPolyline3
    replaced: tuple  # stage-m detours: (removed middle third, 4-point detour path)


def replaced_count(m: int) -> int:
    """Number of middle-third detours performed at stage m (2^(m-1))."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return 2 ** (m - 1)


def middle_thirds(q: int) -> list[tuple[int, int]]:
    """The middle thirds the stage-q detours remove, as numerators over
    3**q, ascending: one per stage-(q-1) Cantor interval."""
    return [(3 * lo + 1, 3 * lo + 2) for lo in cantor_numerators(q - 1)[::2]]


def _detour(a, b, depth_x, one, zero):
    """4-point path around the middle third (a, b) of the edge x = one of
    the face z = zero, walked downward."""
    return (one, b, zero), (depth_x, b, zero), (depth_x, a, zero), (one, a, zero)


def squareflake(m: int) -> SquareflakeStage:
    """The stage-m curve, built on ints over 3**m; the stage-m detours in
    ``replaced`` share one Fraction per distinct value."""
    if m < 0:
        raise ValueError("m must be >= 0")
    scale = 3**m
    edge = []  # detours of stages 1..q, walking down the right edge x = 1
    stage = []  # detours of stage q, ascending
    for q in range(1, m + 1):
        unit = 3 ** (m - q)
        stage = [(a * unit, b * unit, scale - unit) for a, b in middle_thirds(q)]
        # one stage-q detour in each gap the earlier detours leave on the edge
        edge = [d for pair in zip(stage[::-1], edge) for d in pair] + stage[:1]
    points = (
        (0, 0, 0), (0, scale, 0), (scale, scale, 0),
        *(p for a, b, x in edge for p in _detour(a, b, x, scale, 0)),
        (scale, 0, 0),
    )
    value = {c: Fraction(c, scale) for c in {c for d in stage for c in d}}
    replaced = tuple(
        (AxisSegment(1, (ONE, ZERO), a, b), _detour(a, b, x, ONE, ZERO))
        for a, b, x in (map(value.__getitem__, d) for d in stage)
    )
    return SquareflakeStage(m, ClosedPolyline3(IntegerForm(scale, points)), replaced)
