"""Closed polygonal curves in the unit cube with exact rational vertices,
stored as one integer form; the Fraction vertices are a view of it."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from operator import eq
from typing import NamedTuple

from .geometry import Point3


class PolylineError(ValueError):
    """A vertex list that makes no closed polyline: too few vertices, or
    two consecutive ones equal."""


class IntegerForm(NamedTuple):
    """A curve scaled to integers: vertex i is ``points[i] / scale``."""

    scale: int
    points: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ClosedPolyline3:
    """Cyclic vertex list; segment i joins vertex i to vertex i+1 (mod n).

    Closure is implicit: the last vertex connects back to the first.
    Simplicity is a checkable property (see invariants.is_simple), not an
    invariant of the type.  ``marks`` labels special subsegments, e.g. the
    straight splice segment of an embedded summand.

    The integer form takes only ints (anything else is a TypeError) and is
    divided by the gcd of its scale and coordinates, so its scale is the
    lcm of the vertices' denominators and two curves are equal exactly when
    their vertices are.
    """

    integer_form: IntegerForm
    marks: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not isinstance(self.integer_form, IntegerForm):
            raise TypeError(f"expected an IntegerForm, got {type(self.integer_form).__name__}")
        scale, points = self.integer_form
        points = tuple(map(tuple, points))
        kinds = {type(scale), *map(type, chain.from_iterable(points))} - {int}
        if kinds:
            raise TypeError(f"integer form coordinates must be ints, got {min(k.__name__ for k in kinds)}")
        if scale < 1:
            raise ValueError("scale must be >= 1")
        if len(points) < 3:
            raise PolylineError("need at least 3 vertices")
        repeats = list(map(eq, points, points[1:] + points[:1]))
        if True in repeats:
            raise PolylineError(f"consecutive duplicate vertex at index {repeats.index(True)}")
        g = gcd(scale, *chain.from_iterable(points))
        if g > 1:
            scale, points = scale // g, tuple(tuple(c // g for c in p) for p in points)
        object.__setattr__(self, "integer_form", IntegerForm(scale, points))

    def __len__(self):
        return len(self.integer_form.points)

    @cached_property
    def vertices(self) -> tuple[Point3, ...]:
        """The Fraction vertices, made on first use, one Fraction per value."""
        scale, points = self.integer_form
        value = {c: Fraction(c, scale) for c in set(chain.from_iterable(points))}
        return tuple(tuple(map(value.__getitem__, p)) for p in points)

    def segments(self):
        verts = self.vertices
        return zip(verts, verts[1:] + verts[:1])
