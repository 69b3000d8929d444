"""Closed polygonal curves in the unit cube with exact rational vertices."""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import Point3, frac


@dataclass(frozen=True)
class ClosedPolyline3:
    """Cyclic vertex list; segment i joins vertex i to vertex i+1 (mod n).

    Closure is implicit: the last vertex connects back to the first.
    Simplicity is a checkable property (see invariants.is_simple), not an
    invariant of the type.  ``marks`` labels special subsegments, e.g. the
    straight splice segment of an embedded summand.
    """

    vertices: tuple[Point3, ...]
    marks: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("need at least 3 vertices")
        n = len(self.vertices)
        for i in range(n):
            if self.vertices[i] == self.vertices[(i + 1) % n]:
                raise ValueError(f"consecutive duplicate vertex at index {i}")

    def __len__(self):
        return len(self.vertices)

    def segments(self):
        n = len(self.vertices)
        for i in range(n):
            yield self.vertices[i], self.vertices[(i + 1) % n]

    def segment(self, i: int):
        n = len(self.vertices)
        return self.vertices[i % n], self.vertices[(i + 1) % n]

    def rotated(self, start: int) -> "ClosedPolyline3":
        n = len(self.vertices)
        verts = tuple(self.vertices[(start + i) % n] for i in range(n))
        return ClosedPolyline3(verts, dict(self.marks))


def closed_polyline(points, marks=None) -> ClosedPolyline3:
    verts = tuple(tuple(frac(c) for c in p) for p in points)
    return ClosedPolyline3(verts, dict(marks) if marks else {})
