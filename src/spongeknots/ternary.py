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

from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from itertools import product
from math import gcd, lcm

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
    """Eventually periodic ternary expansion 0.(preperiod)(period)^inf.

    Digits are stored as ``bytes`` of 0, 1 and 2; tuples are accepted and
    converted, so two expansions are equal exactly when their digits are.
    """

    preperiod: bytes
    period: bytes

    def __post_init__(self):
        pre, per = bytes(self.preperiod), bytes(self.period)
        if not per:
            raise ValueError("period must be non-empty")
        if (pre + per).translate(None, b"\0\1\2"):
            raise ValueError("digits must lie in {0,1,2}")
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @cached_property
    def ones(self) -> tuple[int, ...]:
        """0-based positions of the 1s in the first period.

        Past the preperiod, position i holds a 1 exactly when
        i = c (mod len(period)) for some c here.
        """
        per, start = self.period, len(self.preperiod)
        out, i = [], per.find(1)
        while i >= 0:
            out.append(start + i)
            i = per.find(1, i + 1)
        return tuple(out)

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
    For x = a / (3**j * d) with d prime to 3, the preperiod is the j digits
    of a // d and the period is that of (a % d) / d, which repeats from its
    first digit (its length is the order of 3 modulo d).
    """
    x = _check_unit(x)
    if x == 0:
        return (TernaryExpansion(b"", b"\0"),)
    if x == 1:
        return (TernaryExpansion(b"", b"\2"),)
    num, d, j = x.numerator, x.denominator, 0
    while d % 3 == 0:
        d //= 3
        j += 1
    head = bytes(_digits_of_index(num // d, j))
    if d == 1:
        # terminating expansion: its last digit is not 0, and zeros follow
        low = head[:-1] + bytes((head[-1] - 1,))
        return TernaryExpansion(head, b"\0"), TernaryExpansion(low, b"\2")
    return (TernaryExpansion(head, _period_digits(num % d, d)),)


_CHUNK = 8


@cache
def _chunk_digits() -> list[bytes]:
    """i -> the _CHUNK base-3 digits of i; built on first use, so a process
    that never expands a non-triadic coordinate does not hold it."""
    return [bytes(ds) for ds in product(range(3), repeat=_CHUNK)]


def _period_digits(start: int, d: int) -> bytes:
    """One period of start / d, for 0 < start < d and d prime to 3.

    Long division, _CHUNK digits per step.  The remainder after i digits is
    start * 3**i mod d, and the period ends at the first i > 0 where it is
    back at ``start``: that is within the next s <= _CHUNK digits exactly
    when the current remainder is start * 3**-s mod d, so those values are
    looked up instead of keeping a table of every remainder seen.
    """
    ends = {}
    back = start
    for s in range(1, _CHUNK + 1):
        back = (back + (-back * d) % 3 * d) // 3  # back * 3**-1 mod d
        ends.setdefault(back, s)
    digits, chunks, rem, scale = _chunk_digits(), [], start, 3**_CHUNK
    while (s := ends.get(rem)) is None:
        q, rem = divmod(rem * scale, d)
        chunks.append(digits[q])
    chunks.append(digits[rem * scale // d][:s])
    return b"".join(chunks)


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


def _classes_meet(a: TernaryExpansion, b: TernaryExpansion) -> bool:
    """Some position past both preperiods holds a 1 in both expansions.

    Classes c mod p_a and c' mod p_b share a position exactly when
    c = c' (mod gcd(p_a, p_b)) (generalized CRT), and then they share one
    past any bound; bucketing one side modulo the gcd costs
    O(|a.ones| + |b.ones|).
    """
    if not (a.ones and b.ones):
        return False
    g = gcd(len(a.period), len(b.period))
    seen = {c % g for c in a.ones}
    return any(c % g in seen for c in b.ones)


def _triple_meets(a: TernaryExpansion, b: TernaryExpansion, c: TernaryExpansion) -> bool:
    """Some position past the preperiods holds a 1 in all three expansions.

    Congruences have a common solution when they are pairwise compatible, so
    this looks for classes of a, b and c that agree pairwise modulo the gcds
    of their periods: b's and c's classes are bucketed by their residues, and
    each distinct residue pair of a's classes looks up its partners.
    """
    if not (a.ones and b.ones and c.ones):
        return False
    pa, pb, pc = len(a.period), len(b.period), len(c.period)
    gab, gac, gbc = gcd(pa, pb), gcd(pa, pc), gcd(pb, pc)
    b_by_ab = defaultdict(set)
    for x in b.ones:
        b_by_ab[x % gab].add(x % gbc)
    c_res = {(x % gac, x % gbc) for x in c.ones}
    return any(
        (w, v) in c_res
        for u, w in {(x % gab, x % gac) for x in a.ones}
        for v in b_by_ab.get(u, ())
    )


# whether a combo breaks its space's rule somewhere past the joint preperiod
_PERIODS_BREAK = {
    "cantor": lambda es: bool(es[0].ones),
    "carpet_face": lambda es: _classes_meet(es[0], es[1]),
    "sponge": lambda es: any(_classes_meet(es[a], es[b]) for a, b in ((0, 1), (0, 2), (1, 2))),
    "carpet2": lambda es: _triple_meets(*es),
}


def _prefix(e: TernaryExpansion, t: int) -> bytes:
    """The first t digits of an expansion."""
    pre, per = e.preperiod, e.period
    if t <= len(pre):
        return pre[:t]
    return pre + (per * -(-(t - len(pre)) // len(per)))[:t - len(pre)]


def _breaks(combo, space: str) -> bool:
    """Whether some digit position of a representation combo breaks the rule.

    Positions up to the joint preperiod are checked digit by digit; past it
    the rule is decided from the residue classes of the periods' 1s, so a
    combo costs O(preperiods + periods), not the lcm of the periods.
    """
    head = max(len(e.preperiod) for e in combo)
    if first_violation([_prefix(e, head) for e in combo], space) is not None:
        return True
    return _PERIODS_BREAK[space](combo)


def _limit_scan(coords, space: str):
    """(combo, whether it breaks the rule) for every tuple of
    representations, one per coordinate."""
    for combo in product(*(expansions(c) for c in coords)):
        yield combo, _breaks(combo, space)


def _first_bad(combo, space: str):
    """First violating position of a combo, or None.

    Prefixes of doubling length are scanned, up to the joint preperiod plus
    one joint period, past which the digits repeat.  Refutations call it
    only for combos that break the rule, so it stops at their first
    violation and costs O(that position), not the lcm of the periods.
    """
    head = max(len(e.preperiod) for e in combo)
    end = head + lcm(*(len(e.period) for e in combo))
    n = head + 1
    while (t := first_violation([_prefix(e, n) for e in combo], space)) is None and n < end:
        n = min(2 * n, end)
    return t


def satisfying_expansions(coords, space: str):
    """A representation combo witnessing limit-set membership, or None.

    One TernaryExpansion per coordinate such that every digit position
    satisfies the space condition.
    """
    return next((combo for combo, breaks in _limit_scan(coords, space) if not breaks), None)


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
        combos = [(c, _first_bad(c, space) if breaks else None) for c, breaks in _limit_scan(coords, space)]
        found = [(t, [_prefix(e, t) for e in c]) for c, t in combos if t is not None]
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

    The segment meets running cells ``lo_idx..hi_idx`` of the 3**k grid with
    positive length.  A running cell survives when some combo of the fixed
    coordinates' digit prefixes (at most 2 x 2, from ``ternary_digits``)
    breaks no rule at any position together with the cell's digits.

    Combos are bits of a mask: ``alive[t][d]`` holds the combos that running
    digit d keeps at position t + 1, so a cell survives when the AND of its
    digits' masks is non-zero.  ``full[t][m]`` says every cell below a block
    of t fixed running digits survives when the combos in m are still alive,
    filled bottom-up from ``full[k][m] = m != 0``.  The walk follows the two
    boundary paths of ``[lo_idx, hi_idx]`` down the ternary tree and reads
    ``full`` for each block strictly between them, so it costs O(k) mask
    steps instead of one rule scan per running cell; no sampling involved.
    """
    if space not in ("sponge", "carpet2"):
        raise ValueError("space must be 'sponge' or 'carpet2'")
    if k < 0:
        raise ValueError("stage must be >= 0")
    bad, axis = _BAD[space], seg.axis
    combos = list(product(*(ternary_digits(c, k) for c in seg.fixed)))
    masks = range(1 << len(combos))

    rows = {}  # fixed digits of every combo at one position -> alive row
    alive = []
    for t in range(k):
        key = tuple((a[t], b[t]) for a, b in combos)
        if key not in rows:
            rows[key] = tuple(
                sum(1 << j for j, ds in enumerate(key) if not bad(ds[:axis] + (d,) + ds[axis:]))
                for d in range(3)
            )
        alive.append(rows[key])

    scale = 3 ** k
    lo_idx = (seg.lo.numerator * scale) // seg.lo.denominator
    hi_t = seg.hi.numerator * scale
    hi_idx = hi_t // seg.hi.denominator
    if hi_t % seg.hi.denominator == 0:
        hi_idx -= 1
    lo_ds, hi_ds = _digits_of_index(lo_idx, k), _digits_of_index(hi_idx, k)

    # the shared path, down to the first digit where the two ends part
    m, split = masks[-1], 0
    while split < k and lo_ds[split] == hi_ds[split]:
        m &= alive[split][lo_ds[split]]
        if not m:
            return False
        split += 1
    if split == k:
        return True

    # only blocks below the split are ever read whole
    full = [None] * k + [[x != 0 for x in masks]]
    for t in range(k - 1, split, -1):
        below, (r0, r1, r2) = full[t + 1], alive[t]
        full[t] = [below[x & r0] and below[x & r1] and below[x & r2] for x in masks]

    row, below, a, b = alive[split], full[split + 1], lo_ds[split], hi_ds[split]
    if not all(below[m & row[d]] for d in range(a + 1, b)):
        return False
    lo_m, hi_m = m & row[a], m & row[b]
    # the blocks right of the low path and left of the high path lie inside
    for t in range(split + 1, k):
        if not (lo_m and hi_m):
            return False
        row, below, a, b = alive[t], full[t + 1], lo_ds[t], hi_ds[t]
        if not (all(below[lo_m & row[d]] for d in range(a + 1, 3))
                and all(below[hi_m & row[d]] for d in range(b))):
            return False
        lo_m, hi_m = lo_m & row[a], hi_m & row[b]
    return bool(lo_m and hi_m)
