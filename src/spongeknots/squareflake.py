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

from .polyline import ClosedPolyline3
from .ternary import AxisSegment, cantor_endpoints

ZERO = Fraction(0)
ONE = Fraction(1)


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


def detours(q: int) -> list[tuple[Fraction, Fraction]]:
    """Middle thirds (a, b) the stage-q detours remove, ascending: one per
    interval of the stage-(q-1) Cantor construction."""
    ends = cantor_endpoints(q - 1)
    return [(lo + (hi - lo) / 3, hi - (hi - lo) / 3) for lo, hi in zip(ends[::2], ends[1::2])]


def _detour(a: Fraction, b: Fraction, depth_x: Fraction):
    """4-point path around the middle third (a, b), walked downward."""
    return (ONE, b, ZERO), (depth_x, b, ZERO), (depth_x, a, ZERO), (ONE, a, ZERO)


def squareflake(m: int) -> SquareflakeStage:
    if m < 0:
        raise ValueError("m must be >= 0")
    edge = []  # detours of stages 1..q, walking down the right edge x = 1
    stage = []  # detours of stage q, ascending
    for q in range(1, m + 1):
        depth_x = 1 - Fraction(1, 3**q)
        stage = [(a, b, depth_x) for a, b in detours(q)]
        # one stage-q detour in each gap the earlier detours leave on the edge
        edge = [d for pair in zip(stage[::-1], edge) for d in pair] + stage[:1]
    verts = (
        (ZERO, ZERO, ZERO), (ZERO, ONE, ZERO), (ONE, ONE, ZERO),
        *(p for a, b, x in edge for p in _detour(a, b, x)),
        (ONE, ZERO, ZERO),
    )
    replaced = tuple((AxisSegment(1, (ONE, ZERO), a, b), _detour(a, b, x)) for a, b, x in stage)
    return SquareflakeStage(m, ClosedPolyline3(verts), replaced)
