"""Closed polygonal curves in the unit cube with exact rational vertices."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple

from .geometry import Point3, frac


class PolylineError(ValueError):
    """A vertex list that makes no closed polyline: too few vertices, or
    two consecutive ones equal."""


class IntegerForm(NamedTuple):
    """A curve scaled to integers: vertex i is ``points[i] / scale``, and
    ``scale`` is the lcm of the denominators of its coordinates."""

    scale: int
    points: tuple[tuple[int, ...], ...]


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
            raise PolylineError("need at least 3 vertices")
        n = len(self.vertices)
        for i in range(n):
            if self.vertices[i] == self.vertices[(i + 1) % n]:
                raise PolylineError(f"consecutive duplicate vertex at index {i}")

    @classmethod
    def from_integers(cls, scale: int, points, marks=None) -> "ClosedPolyline3":
        """The curve with vertices ``points[i] / scale``, for a positive int
        scale and int points.  Each distinct coordinate is built as one
        Fraction, and the integer form is kept, divided by the gcd of scale
        and every coordinate so that its scale is the lcm of the
        denominators."""
        g = gcd(scale, *(c for p in points for c in p))
        points = tuple(tuple(c // g for c in p) for p in points)
        scale //= g
        value = {c: Fraction(c, scale) for c in {c for p in points for c in p}}
        poly = cls(tuple(tuple(value[c] for c in p) for p in points), dict(marks) if marks else {})
        poly.__dict__["integer_form"] = IntegerForm(scale, points)  # where cached_property keeps it
        return poly

    def __len__(self):
        return len(self.vertices)

    def segments(self):
        n = len(self.vertices)
        for i in range(n):
            yield self.vertices[i], self.vertices[(i + 1) % n]

    @cached_property
    def integer_form(self) -> IntegerForm:
        """The curve scaled to integers once, on first use; every check and
        the splice read it instead of the Fraction vertices."""
        dens = {c.denominator for v in self.vertices for c in v}
        scale = lcm(*dens)
        factor = {d: scale // d for d in dens}
        points = tuple(tuple(c.numerator * factor[c.denominator] for c in v) for v in self.vertices)
        return IntegerForm(scale, points)


def closed_polyline(points, marks=None) -> ClosedPolyline3:
    verts = tuple(tuple(frac(c) for c in p) for p in points)
    return ClosedPolyline3(verts, dict(marks) if marks else {})
