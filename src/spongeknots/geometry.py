"""Exact geometry primitives shared by the whole package.

Points given as rationals, such as ``predicate``'s input and the public
Fraction views, are plain tuples of ``fractions.Fraction``.  A cube, like a
curve's integer form, is integers over one scale.  Every predicate here is
decided exactly, never by floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import ne

Point2 = tuple[Fraction, Fraction]
Point3 = tuple[Fraction, Fraction, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value, den=None) -> Fraction:
    """Coerce ints, strings like ``"7/9"``, or Fractions to Fraction.

    A zero denominator is a ValueError, like any other malformed rational;
    a float or a bool is a TypeError.
    """
    try:
        if den is not None:
            return Fraction(value, den)
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (str, int)) and not isinstance(value, bool):
            return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def sub3(a: Point3, b: Point3) -> Point3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def add3(a: Point3, b: Point3) -> Point3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def scale3(a: Point3, s: Fraction) -> Point3:
    return (a[0] * s, a[1] * s, a[2] * s)


def dot3(a: Point3, b: Point3) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def norm_sq3(a: Point3) -> Fraction:
    return dot3(a, a)


def dist_sq3(a: Point3, b: Point3) -> Fraction:
    return norm_sq3(sub3(a, b))


def sub2(a: Point2, b: Point2) -> Point2:
    return (a[0] - b[0], a[1] - b[1])


def cross2(a: Point2, b: Point2) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def running_axis(a, b):
    """The one axis along which points a and b differ, or None when they
    differ along several (an oblique segment) or none."""
    differs = list(map(ne, a, b))
    return differs.index(True) if differs.count(True) == 1 else None


# running axis -> the fixed axes, in axis order
FIXED_AXES = ((1, 2), (0, 2), (0, 1))


def box_meet(box1, box2):
    """Intersection (lo, hi) of two closed axis-aligned boxes, or None.

    A box is the pair of its least and greatest corners; an axis-parallel
    segment is its own box, so two of them meet exactly in ``box_meet``.
    """
    (lo1, hi1), (lo2, hi2) = box1, box2
    for a, b, c, d in zip(lo1, hi1, lo2, hi2):
        if a > d or c > b:
            return None
    return tuple(map(max, lo1, lo2)), tuple(map(min, hi1, hi2))


def point_segment_dist_sq3(p: Point3, a: Point3, b: Point3) -> Fraction:
    """Exact squared distance from p to the closed segment [a, b]."""
    u = sub3(b, a)
    uu = norm_sq3(u)
    if uu == ZERO:
        return dist_sq3(p, a)
    t = dot3(sub3(p, a), u) / uu
    if t <= ZERO:
        return dist_sq3(p, a)
    if t >= ONE:
        return dist_sq3(p, b)
    foot = add3(a, scale3(u, t))
    return dist_sq3(p, foot)


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube with least corner ``corner / scale`` and side
    ``side / scale``, divided by their gcd like a curve's integer form: the
    stage-s grid cube at c / 3**s is ``Cube(3**s, c, 1)``."""

    scale: int
    corner: tuple[int, int, int]
    side: int

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        g = gcd(self.scale, self.side, *self.corner)  # a TypeError unless all are ints
        if g != 1:
            object.__setattr__(self, "scale", self.scale // g)
            object.__setattr__(self, "corner", tuple(c // g for c in self.corner))
            object.__setattr__(self, "side", self.side // g)
