"""Exact rational geometry primitives shared by the whole package.

Points are plain tuples of ``fractions.Fraction``; every predicate here is
decided exactly, never by floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def cross3(a: Point3, b: Point3) -> Point3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm_sq3(a: Point3) -> Fraction:
    return dot3(a, a)


def dist_sq3(a: Point3, b: Point3) -> Fraction:
    return norm_sq3(sub3(a, b))


def sub2(a: Point2, b: Point2) -> Point2:
    return (a[0] - b[0], a[1] - b[1])


def cross2(a: Point2, b: Point2) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def dot2(a: Point2, b: Point2) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


def axis_form(a: Point3, b: Point3):
    """(axis, fixed_coords, lo, hi) when the segment is axis-parallel, else None.

    ``fixed_coords`` are the other two coordinates in axis order and the
    running coordinate spans [lo, hi].
    """
    diffs = [i for i in range(3) if a[i] != b[i]]
    if len(diffs) != 1:
        return None
    ax = diffs[0]
    lo, hi = (a[ax], b[ax]) if a[ax] <= b[ax] else (b[ax], a[ax])
    fixed = tuple(a[i] for i in range(3) if i != ax)
    return (ax, fixed, lo, hi)


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


def _interval_overlap(a_lo, a_hi, b_lo, b_hi):
    """Overlap of two closed 1D intervals, or None."""
    lo = max(a_lo, b_lo)
    hi = min(a_hi, b_hi)
    if lo > hi:
        return None
    return (lo, hi)


def seg_seg_3d(a: Point3, b: Point3, c: Point3, d: Point3):
    """Exact intersection of closed 3D segments [a,b] and [c,d].

    Returns None, ("point", p), or ("overlap", (p, q)) with p != q.
    Degenerate (zero-length) input segments raise ValueError.
    """
    u = sub3(b, a)
    v = sub3(d, c)
    if u == (ZERO, ZERO, ZERO) or v == (ZERO, ZERO, ZERO):
        raise ValueError("degenerate segment")
    w = sub3(c, a)
    uxv = cross3(u, v)
    if uxv == (ZERO, ZERO, ZERO):
        # parallel; collinear iff w parallel to u as well
        if cross3(w, u) != (ZERO, ZERO, ZERO):
            return None
        # project both segments to the parameter line of [a,b]
        uu = norm_sq3(u)
        t_c = dot3(w, u) / uu
        t_d = dot3(sub3(d, a), u) / uu
        lo, hi = min(t_c, t_d), max(t_c, t_d)
        ov = _interval_overlap(ZERO, ONE, lo, hi)
        if ov is None:
            return None
        p = add3(a, scale3(u, ov[0]))
        q = add3(a, scale3(u, ov[1]))
        if p == q:
            return ("point", p)
        return ("overlap", (p, q))
    # skew or intersecting lines: intersect iff coplanar
    if dot3(w, uxv) != ZERO:
        return None
    denom = norm_sq3(uxv)
    s = dot3(cross3(w, v), uxv) / denom
    t = dot3(cross3(w, u), uxv) / denom
    if ZERO <= s <= ONE and ZERO <= t <= ONE:
        return ("point", add3(a, scale3(u, s)))
    return None


def seg_seg_2d(a: Point2, b: Point2, c: Point2, d: Point2):
    """Exact intersection of closed 2D segments; same result shape as seg_seg_3d."""
    u = sub2(b, a)
    v = sub2(d, c)
    if u == (ZERO, ZERO) or v == (ZERO, ZERO):
        raise ValueError("degenerate segment")
    w = sub2(c, a)
    denom = cross2(u, v)
    if denom == ZERO:
        if cross2(w, u) != ZERO:
            return None
        uu = dot2(u, u)
        t_c = dot2(w, u) / uu
        t_d = dot2(sub2(d, a), u) / uu
        lo, hi = min(t_c, t_d), max(t_c, t_d)
        ov = _interval_overlap(ZERO, ONE, lo, hi)
        if ov is None:
            return None
        p = (a[0] + u[0] * ov[0], a[1] + u[1] * ov[0])
        q = (a[0] + u[0] * ov[1], a[1] + u[1] * ov[1])
        if p == q:
            return ("point", p)
        return ("overlap", (p, q))
    s = cross2(w, v) / denom
    t = cross2(w, u) / denom
    if ZERO <= s <= ONE and ZERO <= t <= ONE:
        return ("point", (a[0] + u[0] * s, a[1] + u[1] * s))
    return None


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
    """Axis-aligned cube given by its minimal corner and side length."""

    corner: Point3
    side: Fraction

    def contains_point(self, p: Point3) -> bool:
        return all(self.corner[i] <= p[i] <= self.corner[i] + self.side for i in range(3))

    def center(self) -> Point3:
        h = self.side / 2
        return (self.corner[0] + h, self.corner[1] + h, self.corner[2] + h)

    def max_dist_sq(self, p: Point3) -> Fraction:
        """Squared distance from p to the farthest point of the cube."""
        total = ZERO
        for i in range(3):
            lo = self.corner[i]
            hi = lo + self.side
            total += max(abs(p[i] - lo), abs(p[i] - hi)) ** 2
        return total

    def interior_intersects_cube(self, other: "Cube") -> bool:
        for i in range(3):
            if self.corner[i] + self.side <= other.corner[i]:
                return False
            if other.corner[i] + other.side <= self.corner[i]:
                return False
        return True
