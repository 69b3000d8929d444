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
from .ternary import AxisSegment

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


def squareflake(m: int) -> SquareflakeStage:
    if m < 0:
        raise ValueError("m must be >= 0")
    verts = [
        (ZERO, ZERO, ZERO),
        (ZERO, ONE, ZERO),
        (ONE, ONE, ZERO),
        (ONE, ZERO, ZERO),
    ]
    intervals = [(ZERO, ONE)]  # surviving right-edge intervals, as (lo, hi)
    replaced = ()
    for stage in range(1, m + 1):
        depth_x = Fraction(3**stage - 1, 3**stage)
        targets = {}
        next_intervals = []
        for lo, hi in intervals:
            third = (hi - lo) / 3
            a, b = lo + third, hi - third  # removed middle third (a, b)
            targets[(hi, lo)] = (a, b)
            next_intervals.append((lo, a))
            next_intervals.append((b, hi))
        new_verts = []
        replaced = []
        n = len(verts)
        for i in range(n):
            v = verts[i]
            w = verts[(i + 1) % n]
            new_verts.append(v)
            if v[0] == ONE and w[0] == ONE and (v[1], w[1]) in targets:
                a, b = targets[(v[1], w[1])]
                # traversal on the edge runs downward: v[1] = hi, w[1] = lo
                detour = (
                    (ONE, b, ZERO),
                    (depth_x, b, ZERO),
                    (depth_x, a, ZERO),
                    (ONE, a, ZERO),
                )
                new_verts.extend(detour)
                removed = AxisSegment(1, (ONE, ZERO), a, b)
                replaced.append((removed, detour))
        assert len(replaced) == len(targets), "missed a surviving edge segment"
        verts = new_verts
        intervals = next_intervals
        replaced = tuple(sorted(replaced, key=lambda r: r[0].lo))
    return SquareflakeStage(m, ClosedPolyline3(tuple(verts)), replaced)
