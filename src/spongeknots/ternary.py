"""Ternary digit expansions and exact membership predicates.

Four nested spaces are supported, all living over the unit interval /
square / cube and refined by powers of three:

* ``cantor``       -- middle-thirds Cantor set on [0,1]
* ``carpet_face``  -- planar carpet keeping 8 of 9 subsquares
* ``sponge``       -- keeps 20 of 27 subcubes (central cube and the six
                      face-center cubes removed)
* ``carpet2``      -- keeps 26 of 27 subcubes (only the central cube removed)

Membership is decided from digit expansions: a rational has one infinite
ternary representation, or two when it is triadic (denominator a power of
three).  Predicates quantify existentially over all representations, which
matches the closed-cell prefractals produced by removing open interiors.
The digit criteria used here are validated against the independent
subdivision oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .geometry import axis_form, frac

SPACES = ("cantor", "carpet_face", "sponge", "carpet2")

_SPACE_DIM = {"cantor": 1, "carpet_face": 2, "sponge": 3, "carpet2": 3}


def _check_unit(x: Fraction) -> Fraction:
    x = frac(x)
    if not (0 <= x <= 1):
        raise ValueError(f"coordinate out of [0,1]: {x}")
    return x


def triadic_exponent(den: int):
    """j such that den == 3**j, else None."""
    j = 0
    while den % 3 == 0:
        den //= 3
        j += 1
    return j if den == 1 else None


@dataclass(frozen=True)
class TernaryExpansion:
    """Eventually periodic ternary expansion 0.(preperiod)(period)^inf."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be non-empty")
        if any(d not in (0, 1, 2) for d in self.preperiod + self.period):
            raise ValueError("digits must lie in {0,1,2}")

    def digit(self, i: int) -> int:
        """Digit at 1-based position i."""
        i -= 1
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, k: int) -> tuple[int, ...]:
        return tuple(self.digit(i) for i in range(1, k + 1))

    def value(self) -> Fraction:
        pre, per = self.preperiod, self.period
        scale = 3 ** len(pre)
        head = Fraction(int("0" + "".join(map(str, pre)), 3) if pre else 0, scale)
        tail = Fraction(int("".join(map(str, per)), 3), 3 ** len(per) - 1)
        return head + tail / scale


def expansions(x) -> tuple[TernaryExpansion, ...]:
    """All infinite ternary representations of x in [0,1].

    Non-triadic rationals have exactly one; triadic rationals in (0,1) have
    two (terminating and the tail-of-2s form); 0 and 1 have one each.
    """
    x = _check_unit(x)
    if x == 0:
        return (TernaryExpansion((), (0,)),)
    if x == 1:
        return (TernaryExpansion((), (2,)),)
    num, den = x.numerator, x.denominator
    seen = {}
    digits = []
    rem = num
    while rem not in seen:
        seen[rem] = len(digits)
        rem *= 3
        d = rem // den
        rem -= d * den
        digits.append(d)
    start = seen[rem]
    high = TernaryExpansion(tuple(digits[:start]), tuple(digits[start:]))
    j = triadic_exponent(den)
    if j is None:
        return (high,)
    # terminating expansion has digits[j-1] != 0 and zeros afterwards
    head = digits[:j]
    low = TernaryExpansion(tuple(head[:-1] + [head[-1] - 1]), (2,))
    return (high, low)


def ternary_digits(x, k: int) -> tuple[tuple[int, ...], ...]:
    """Length-k prefixes of every valid infinite representation of x.

    These are the digits of the closed stage-k cells holding x, read off
    x * 3**k without expanding x: two cells, the terminating prefix first,
    when x * 3**k is an integer strictly between 0 and 3**k; else one.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    x = _check_unit(x)
    return tuple(_digits_of_index(i, k) for i in _cell_candidates(x, 3**k))


def _cell_candidates(c: Fraction, scale: int) -> tuple[int, ...]:
    """Indices i with c in [i/scale, (i+1)/scale], i in [0, scale-1]."""
    num, den = c.numerator, c.denominator
    t = num * scale
    i = t // den
    out = []
    if i <= scale - 1:
        out.append(i)
    if t % den == 0 and i >= 1:
        out.append(i - 1)
    return tuple(out)


def _digits_of_index(i: int, k: int) -> tuple[int, ...]:
    """The k base-3 digits of i, most significant first."""
    if k > 64:
        # halve big indices first, so a deep stage costs far less than k
        # divisions of a k-digit integer
        high, low = divmod(i, 3 ** (k // 2))
        return _digits_of_index(high, k - k // 2) + _digits_of_index(low, k // 2)
    ds = []
    for _ in range(k):
        ds.append(i % 3)
        i //= 3
    return tuple(reversed(ds))


# ---------------------------------------------------------------------------
# position conditions: a position is "bad" when the digit tuple at that
# position kills membership
# ---------------------------------------------------------------------------

def _bad_cantor(ds) -> bool:
    return ds[0] == 1


def _bad_carpet_face(ds) -> bool:
    return ds[0] == 1 and ds[1] == 1


def _bad_sponge(ds) -> bool:
    return (ds[0] == 1) + (ds[1] == 1) + (ds[2] == 1) >= 2


def _bad_carpet2(ds) -> bool:
    return ds[0] == 1 and ds[1] == 1 and ds[2] == 1


_BAD = {
    "cantor": _bad_cantor,
    "carpet_face": _bad_carpet_face,
    "sponge": _bad_sponge,
    "carpet2": _bad_carpet2,
}


def _first_bad_forever(combo, bad):
    """First position where a representation tuple breaks the condition, or None.

    Decided exactly over preperiod + one joint period; rational expansions
    are eventually periodic so this is a complete check, not a truncation.
    """
    pre = max(len(e.preperiod) for e in combo)
    per = lcm(*(len(e.period) for e in combo))
    for i in range(1, pre + per + 1):
        if bad(tuple(e.digit(i) for e in combo)):
            return i
    return None


def _limit_scan(coords, space: str):
    """(combo, first violating position or None) for every tuple of
    representations, one per coordinate."""
    bad = _BAD[space]
    for combo in product(*(expansions(c) for c in coords)):
        yield combo, _first_bad_forever(combo, bad)


def satisfying_expansions(coords, space: str):
    """A representation combo witnessing limit-set membership, or None.

    One TernaryExpansion per coordinate such that every digit position
    satisfies the space condition.
    """
    return next((combo for combo, t in _limit_scan(coords, space) if t is None), None)


def first_violation(prefix_combo, space: str):
    """1-based position where digit prefixes break the space rule, or None."""
    bad = _BAD[space]
    for i, ds in enumerate(zip(*prefix_combo), 1):
        if bad(ds):
            return i
    return None


def _stage_scan(prefix_options, space: str):
    """(combo, first violating position or None) for every tuple of
    equal-length digit prefixes, one from each axis's options."""
    for combo in product(*prefix_options):
        yield combo, first_violation(combo, space)


def stage_witness(coords, k: int, space: str):
    """Length-k digit prefixes, one per coordinate, that break no rule; or None."""
    options = [ternary_digits(c, k) for c in coords]
    return next((combo for combo, t in _stage_scan(options, space) if t is None), None)


@dataclass(frozen=True)
class RemovedCell:
    """Closed cell of side 3**-stage, one [lo, hi] per axis, whose interior
    the stage-``stage`` construction removes."""

    stage: int
    cell: tuple[tuple[Fraction, Fraction], ...]
    removed: str


_REMOVED_NAME = {1: "middle-third", 2: "face-center", 3: "center"}


def refutation(coords, space: str, k: int | None = None):
    """(failed_stage, cells): a removed cell holding the point for every
    representation combo, and the largest stage among them.

    With ``k`` the point must lie outside the stage-k prefractal and each
    cell comes from length-k digit prefixes. Without it the point must lie
    outside the limit set, and each cell sits at its combo's exact first
    violating position. ValueError when some combo breaks no rule.
    """
    if k is None:
        combos = list(_limit_scan(coords, space))
        found = [(t, [e.prefix(t) for e in c]) for c, t in combos if t is not None]
    else:
        combos = list(_stage_scan([ternary_digits(c, k) for c in coords], space))
        found = [(t, p) for p, t in combos if t is not None]
    if len(found) < len(combos):
        raise ValueError("refutation requested for a member point")
    cells = []
    for t, prefixes in found:
        cell = []
        for prefix in prefixes:
            lo = Fraction(sum(d * 3 ** (t - 1 - i) for i, d in enumerate(prefix[:t])), 3**t)
            cell.append((lo, lo + Fraction(1, 3**t)))
        ones = sum(p[t - 1] == 1 for p in prefixes)
        removed = {"carpet_face": "center-square", "carpet2": "center"}.get(space) or _REMOVED_NAME[ones]
        cells.append(RemovedCell(t, tuple(cell), removed))
    return max(c.stage for c in cells), cells


def _point(point, space: str):
    """The point's coordinates, checked to lie in [0, 1] and to match the space."""
    coords = tuple(_check_unit(c) for c in point)
    if len(coords) != _SPACE_DIM[space]:
        raise ValueError(f"{space} expects {_SPACE_DIM[space]} coordinates")
    return coords


def membership(point, space: str) -> bool:
    """Limit-set membership for any supported space."""
    return satisfying_expansions(_point(point, space), space) is not None


def membership_stage(point, k: int, space: str) -> bool:
    """Stage-k membership for any supported space; point length must match."""
    coords = _point(point, space)
    if k < 0:
        raise ValueError("stage must be >= 0")
    return stage_witness(coords, k, space) is not None


def stage_profile(coords, kmax: int, space: str) -> list[bool]:
    """Membership verdicts for every stage 0..kmax in one digit pass.

    A representation combo admits stage k exactly when its first violating
    position exceeds k, so one scan of length-kmax prefixes decides all
    stages at once.
    """
    if kmax < 0:
        raise ValueError("stage must be >= 0")
    deepest = 0  # largest prefix length some combo survives
    for _, t in _stage_scan([ternary_digits(c, kmax) for c in coords], space):
        deepest = kmax if t is None else max(deepest, t - 1)
        if deepest == kmax:
            break
    return [k <= deepest for k in range(kmax + 1)]


def in_cantor(x) -> bool:
    """x lies in the middle-thirds Cantor set."""
    return membership((x,), "cantor")


def in_cantor_stage(x, k: int) -> bool:
    return membership_stage((x,), k, "cantor")


def in_carpet_face(x, y) -> bool:
    """(x, y) lies in the planar Sierpinski carpet."""
    return membership((x, y), "carpet_face")


def in_carpet_face_stage(x, y, k: int) -> bool:
    return membership_stage((x, y), k, "carpet_face")


def in_sponge(x, y, z) -> bool:
    """(x, y, z) lies in the Menger sponge (all stages at once)."""
    return membership((x, y, z), "sponge")


def in_sponge_stage(x, y, z, k: int) -> bool:
    """(x, y, z) lies in the stage-k sponge prefractal; stage 0 is the cube."""
    return membership_stage((x, y, z), k, "sponge")


def in_carpet2(x, y, z) -> bool:
    """(x, y, z) lies in the two-dimensional carpet in the cube (26-of-27 rule)."""
    return membership((x, y, z), "carpet2")


def in_carpet2_stage(x, y, z, k: int) -> bool:
    return membership_stage((x, y, z), k, "carpet2")


def cantor_endpoints(k: int) -> list[Fraction]:
    """The 2**(k+1) interval endpoints of the stage-k Cantor construction."""
    if k < 0:
        raise ValueError("k must be >= 0")
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(k):
        nxt = []
        for lo, hi in intervals:
            third = (hi - lo) / 3
            nxt.append((lo, lo + third))
            nxt.append((hi - third, hi))
        intervals = nxt
    out = []
    for lo, hi in intervals:
        out.append(lo)
        out.append(hi)
    return out


# ---------------------------------------------------------------------------
# exact containment of axis-aligned segments in stage-k prefractals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisSegment:
    """Axis-aligned segment: one running coordinate, two fixed ones.

    ``axis`` is 0, 1 or 2 (x, y, z); ``fixed`` gives the other two
    coordinates in axis order; the running coordinate spans [lo, hi].
    """

    axis: int
    fixed: tuple[Fraction, Fraction]
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ValueError("axis must be 0, 1 or 2")
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        for c in (*self.fixed, self.lo, self.hi):
            if not (0 <= c <= 1):
                raise ValueError("segment leaves the unit cube")

    @classmethod
    def from_endpoints(cls, a, b) -> "AxisSegment":
        form = axis_form(a, b)
        if form is None:
            raise ValueError("segment is not axis-aligned")
        return cls(*form)

    def endpoints(self):
        a = list(self.fixed)
        a.insert(self.axis, self.lo)
        b = list(self.fixed)
        b.insert(self.axis, self.hi)
        return tuple(a), tuple(b)


def segment_in_stage(seg: AxisSegment, k: int, space: str = "sponge") -> bool:
    """Exact: does every point of the segment lie in the stage-k prefractal?

    Decided by enumerating the cells of the 3**k grid the segment meets and
    testing each cell column for a surviving cell; no sampling involved.
    """
    if space not in ("sponge", "carpet2"):
        raise ValueError("space must be 'sponge' or 'carpet2'")
    if k < 0:
        raise ValueError("stage must be >= 0")
    scale = 3 ** k
    options = [ternary_digits(c, k) for c in seg.fixed]
    options.insert(seg.axis, None)  # the running cell's digits, set per cell

    # columns of cells met with positive overlap along the running axis
    lo_idx = (seg.lo.numerator * scale) // seg.lo.denominator
    hi_t = seg.hi.numerator * scale
    hi_idx = hi_t // seg.hi.denominator
    if hi_t % seg.hi.denominator == 0:
        hi_idx -= 1
    for i in range(lo_idx, hi_idx + 1):
        options[seg.axis] = (_digits_of_index(i, k),)
        if all(t is not None for _, t in _stage_scan(options, space)):
            return False
    return True
