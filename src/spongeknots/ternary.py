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
from itertools import combinations, product
from math import gcd, lcm

from .geometry import axis_form, frac

SPACES = ("cantor", "carpet_face", "sponge", "carpet2")

# space -> (coordinates, how many of them holding a 1 at one digit position
# remove the cell there)
_RULES = {"cantor": (1, 1), "carpet_face": (2, 2), "sponge": (3, 2), "carpet2": (3, 3)}

# space -> how many coordinates with a 1-free digit string put the point in
# the space: the other coordinates then hold fewer than ``ones`` 1s at every
# position, whatever their digits
_FREE_ENOUGH = {space: dim - ones + 1 for space, (dim, ones) in _RULES.items()}


def _check_unit(x) -> Fraction:
    """x as a Fraction, checked on integers to lie in [0, 1] (a Fraction's
    denominator is positive)."""
    x = frac(x)
    if not 0 <= x.numerator <= x.denominator:
        raise ValueError(f"coordinate out of [0,1]: {x}")
    return x


def _split_three(den: int) -> tuple[int, int]:
    """(j, d) with den == 3**j * d and d prime to 3."""
    j = 0
    while den % 81 == 0:
        den //= 81
        j += 4
    while den % 3 == 0:
        den //= 3
        j += 1
    return j, den


def triadic_exponent(den: int):
    """j such that den == 3**j, else None."""
    j, d = _split_three(den)
    return j if d == 1 else None


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
        tail = Fraction(_index_of_digits(per), 3 ** len(per) - 1)
        return (_index_of_digits(pre) + tail) / scale


def expansions(x) -> tuple[TernaryExpansion, ...]:
    """All infinite ternary representations of x in [0,1].

    Non-triadic rationals have exactly one; triadic rationals in (0,1) have
    two (terminating and the tail-of-2s form); 0 and 1 have one each.
    For x = a / (3**j * d) with d prime to 3, the preperiod is the j digits
    of a // d and the period is that of (a % d) / d, which repeats from its
    first digit (its length is the order of 3 modulo d).
    """
    return _expand(_check_unit(x))


def _expand(x: Fraction) -> tuple[TernaryExpansion, ...]:
    """``expansions`` of a coordinate already checked to lie in [0, 1]."""
    return _expansions(*_head_and_period(x.numerator, *_split_three(x.denominator)))


def _head_and_period(num: int, j: int, d: int) -> tuple[bytes, bytes]:
    """The digits every expansion of num / (3**j * d) is made from, for d
    prime to 3 and the value in [0, 1]: its j-digit preperiod and its
    period, or an empty period when the value is triadic in (0, 1), whose
    two expansions ``_expansions`` makes from the head alone."""
    if num == 0:
        return b"", b"\0"
    if num == d and j == 0:  # the value 1
        return b"", b"\2"
    head = _digit_bytes(num // d, j)
    return head, b"" if d == 1 else _period_digits(num % d, d)


def _expansions(head: bytes, period: bytes) -> tuple[TernaryExpansion, ...]:
    """The expansions of ``_head_and_period``'s digits."""
    if period:
        return (TernaryExpansion(head, period),)
    # terminating expansion: its last digit is not 0, and zeros follow
    low = head[:-1] + bytes((head[-1] - 1,))
    return TernaryExpansion(head, b"\0"), TernaryExpansion(low, b"\2")


def _has_one_free(head: bytes, period: bytes) -> bool:
    """Some expansion of ``_head_and_period``'s digits has no digit 1.

    A triadic head ends in 1 or 2: ending in 2 it is 1-free when it has no
    other 1, and ending in 1 its other form, the head with that 1 made 0 and
    2s after, is.  So either way no 1 before its last digit is the test.
    """
    if period:
        return 1 not in head and 1 not in period
    return head.find(1, 0, -1) < 0


_CHUNK = 8
_CHUNK_SCALE = 3**_CHUNK


@cache
def _chunk_digits() -> list[bytes]:
    """i -> the _CHUNK base-3 digits of i; built on first use, so a process
    that never splits a coordinate into digits does not hold it."""
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
    digits, chunks, rem, scale = _chunk_digits(), [], start, _CHUNK_SCALE
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
    return tuple(map(tuple, _stage_cells((x.numerator, x.denominator, k))[0]))


def _cell_candidates(num: int, den: int, scale: int) -> tuple[int, ...]:
    """Indices i with num/den in [i/scale, (i+1)/scale], i in [0, scale-1]."""
    t = num * scale
    i = t // den
    out = []
    if i <= scale - 1:
        out.append(i)
    if t % den == 0 and i >= 1:
        out.append(i - 1)
    return tuple(out)


def _digit_bytes(i: int, k: int) -> bytes:
    """The k base-3 digits of i < 3**k as bytes, most significant first,
    _CHUNK per division."""
    if k > 64:
        # halve big indices first, so a deep stage costs far less than k/_CHUNK
        # divisions of a k-digit integer
        high, low = divmod(i, 3 ** (k // 2))
        return _digit_bytes(high, k - k // 2) + _digit_bytes(low, k // 2)
    digits, scale = _chunk_digits(), _CHUNK_SCALE
    out = digits[i % scale]
    while k > _CHUNK:
        i //= scale
        k -= _CHUNK
        out = digits[i % scale] + out
    return out[_CHUNK - k:]


def _index_of_digits(ds) -> int:
    """The integer whose base-3 digits, most significant first, are ``ds``:
    the inverse of _digit_bytes, halving long prefixes the same way."""
    k = len(ds)
    if k > 64:
        return _index_of_digits(ds[:k - k // 2]) * 3 ** (k // 2) + _index_of_digits(ds[k - k // 2:])
    i = 0
    for d in ds:
        i = 3 * i + d
    return i


# ---------------------------------------------------------------------------
# position conditions: a position is "bad" when the digit tuple at that
# position kills membership
# ---------------------------------------------------------------------------

_BAD = {
    space: frozenset(ds for ds in product(range(3), repeat=dim) if ds.count(1) >= ones)
    for space, (dim, ones) in _RULES.items()
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


# k -> whether k expansions share a 1 somewhere past their preperiods
_MEET = {1: lambda e: bool(e.ones), 2: _classes_meet, 3: _triple_meets}


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
    if _first_violation([_prefix(e, head) for e in combo], space) is not None:
        return True
    ones = _RULES[space][1]
    return any(_MEET[ones](*es) for es in combinations(combo, ones))


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
    while (t := _first_violation([_prefix(e, n) for e in combo], space)) is None and n < end:
        n = min(2 * n, end)
    return t


def satisfying_expansions(coords, space: str):
    """A representation combo witnessing limit-set membership, or None.

    One TernaryExpansion per coordinate such that every digit position
    satisfies the space condition.
    """
    return _witness(list(map(_expand, _point(coords, space))), space)


def _witness(options, space: str):
    """The first combo, one expansion from each coordinate's options, that
    breaks no rule; or None."""
    return next((combo for combo in product(*options) if not _breaks(combo, space)), None)


def _first_violation(prefix_combo, space: str):
    """1-based position where digit prefixes break the space rule, or None."""
    bad = _BAD[space]
    for i, ds in enumerate(zip(*prefix_combo), 1):
        if ds in bad:
            return i
    return None


def _stage_scan(prefix_options, space: str):
    """(combo, first violating position or None) for every tuple of
    equal-length digit prefixes, one from each axis's options."""
    for combo in product(*prefix_options):
        yield combo, _first_violation(combo, space)


def _stage_options(coords, k: int):
    """(the digit strings of each checked coordinate's closed stage-k cells,
    as ``bytes``; how many coordinates have a cell with no digit 1)."""
    if k < 0:
        raise ValueError("stage must be >= 0")
    cells = [_stage_cells((c.numerator, c.denominator, k)) for c in coords]
    return [ds for ds, _ in cells], sum(free for _, free in cells)


@dataclass(frozen=True)
class RemovedCell:
    """Closed cell of side 3**-stage, one [lo, hi] per axis, whose interior
    the stage-``stage`` construction removes."""

    stage: int
    cell: tuple[tuple[Fraction, Fraction], ...]
    removed: str


_REMOVED_NAME = {1: "middle-third", 2: "face-center", 3: "center"}


def stage_certificate(point, k: int, space: str):
    """(witness, None) for a point of the stage-k prefractal, else (None,
    refutation), from one read of each coordinate's stage-k cells.

    The witness is the first combo in ``product`` order of length-k digit
    prefixes, one tuple of digits per coordinate, that breaks no rule.  The
    refutation is (failed_stage, cells): a removed cell holding the point for
    every combo, each from its prefixes cut at its first violating position,
    and the largest stage among them.
    """
    options, _ = _stage_options(_point(point, space), k)
    found = []
    for combo, t in _stage_scan(options, space):
        if t is None:
            return tuple(map(tuple, combo)), None
        found.append((t, combo))
    return None, _removed_cells(found, space)


def limit_certificate(point, space: str):
    """(witness, None) for a point of the limit set, else (None, refutation),
    from one expansion of each coordinate.

    The witness is that of ``satisfying_expansions``.  The refutation is
    (failed_stage, cells): a removed cell holding the point for every
    representation combo, each at its combo's exact first violating
    position, and the largest stage among them.
    """
    options = list(map(_expand, _point(point, space)))
    witness = _witness(options, space)
    if witness is not None:
        return witness, None
    found = []
    for combo in product(*options):
        t = _first_bad(combo, space)
        found.append((t, [_prefix(e, t) for e in combo]))
    return None, _removed_cells(found, space)


def _removed_cells(found, space: str):
    """(failed_stage, cells) from (first violating position t, digit
    prefixes of length at least t) of every representation combo."""
    cells = []
    for t, prefixes in found:
        cell = []
        for prefix in prefixes:
            lo = Fraction(_index_of_digits(prefix[:t]), 3**t)
            cell.append((lo, lo + Fraction(1, 3**t)))
        ones = sum(p[t - 1] == 1 for p in prefixes)
        removed = {"carpet_face": "center-square", "carpet2": "center"}.get(space) or _REMOVED_NAME[ones]
        cells.append(RemovedCell(t, tuple(cell), removed))
    return max(c.stage for c in cells), cells


def _point(point, space: str):
    """The point's coordinates, each checked once to lie in [0, 1], and their
    number checked against the space's."""
    if space not in _RULES:
        raise ValueError(f"unknown space {space!r}; expected one of {', '.join(SPACES)}")
    coords = tuple(map(_check_unit, point))
    dim = _RULES[space][0]
    if len(coords) != dim:
        raise ValueError(f"{space} expects {dim} coordinates")
    return coords


def membership(point, space: str) -> bool:
    """Limit-set membership for any supported space.

    Each denominator is split once, as 3**j * d with d prime to 3, and the
    coordinates are expanded one at a time, cheapest first: in order of
    j + d, which bounds the digits of an expansion, as its period divides
    phi(d) < d.  Once ``_FREE_ENOUGH[space]`` of them have an expansion with
    no digit 1 the point is a member whatever the others hold: that is
    read off the digit bytes, no ``TernaryExpansion`` is made and the other
    coordinates are never expanded.  Otherwise every combo of the
    expansions, made from the same bytes, is scanned as
    ``satisfying_expansions`` does, so no coordinate is expanded twice.
    """
    coords = _point(point, space)
    splits = [(c.numerator, *_split_three(c.denominator)) for c in coords]
    options = [()] * len(coords)
    free, enough = 0, _FREE_ENOUGH[space]
    for i in sorted(range(len(coords)), key=lambda i: splits[i][1] + splits[i][2]):
        options[i] = _head_and_period(*splits[i])
        free += _has_one_free(*options[i])
        if free >= enough:
            return True
    return _witness([_expansions(*digits) for digits in options], space) is not None


def membership_stage(point, k: int, space: str) -> bool:
    """Stage-k membership for any supported space; point length must match.

    Reads each coordinate's stage-k cells as digit bytes; enough coordinates
    with a 1-free cell (``_FREE_ENOUGH``) accept the point before any scan.
    """
    options, free = _stage_options(_point(point, space), k)
    return free >= _FREE_ENOUGH[space] or any(t is None for _, t in _stage_scan(options, space))


def stage_profile(coords, kmax: int, space: str) -> list[bool]:
    """Membership verdicts for every stage 0..kmax in one digit pass.

    A representation combo admits stage k exactly when its first violating
    position exceeds k, so one scan of length-kmax prefixes decides all
    stages at once; enough coordinates with a 1-free stage-kmax cell admit
    every stage before any scan.
    """
    options, free = _stage_options(_point(coords, space), kmax)
    if free >= _FREE_ENOUGH[space]:
        return [True] * (kmax + 1)
    deepest = 0  # largest prefix length some combo survives
    for _, t in _stage_scan(options, space):
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


def cantor_numerators(k: int, n: int | None = None) -> list[int]:
    """The first n <= 2**(k+1) (default all) stage-k Cantor endpoints times
    3**k, ascending, in O(n) however large k is: endpoints 2j and 2j + 1
    bound the j-th interval, whose low end's ternary digits are 2 x the
    binary digits of j."""
    if k < 0:
        raise ValueError("k must be >= 0")
    count = 2 ** (k + 1) if n is None else n
    lows, step = [0], 2
    while 2 * len(lows) < count:
        lows += [low + step for low in lows]
        step *= 3
    return [low + end for low in lows for end in (0, 1)][:count]


def cantor_endpoints(k: int) -> list[Fraction]:
    """The 2**(k+1) interval endpoints of the stage-k Cantor construction."""
    return [Fraction(c, 3**k) for c in cantor_numerators(k)]


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
        # on integers: lo < hi by cross-multiplying (denominators are
        # positive), and then lo >= 0 and hi <= 1 put the range in [0, 1]
        ln, ld, hn, hd = self.lo.numerator, self.lo.denominator, self.hi.numerator, self.hi.denominator
        if not ln * hd < hn * ld:
            raise ValueError("need lo < hi")
        u, v = self.fixed
        if not (0 <= ln and hn <= hd and 0 <= u.numerator <= u.denominator and 0 <= v.numerator <= v.denominator):
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


def _order_of_3(d: int, limit: int):
    """Least n >= 1 with 3**n = 1 mod d, for d prime to 3; None past ``limit``."""
    x, n = 3 % d, 1
    while x != 1 % d:
        if n >= limit:
            return None
        x, n = x * 3 % d, n + 1
    return n


def _settled_stage(coords, stage: int) -> int:
    """A stage K past which the containment verdict of no segment between
    points with these coordinates changes, or ``stage`` when K is not less.

    Write each coordinate's denominator as 3**j * d with d prime to 3.
    Every expansion of the coordinate repeats with period ord_d(3) from
    digit j, so with P the largest j and L the lcm of the orders, the
    digits of all coordinates repeat with period L from digit P; K is
    P + 7L.  A segment leaves the stage-k sponge exactly when some stage-k
    cell of its running range (the cells whose digits lie between the
    paths of lo and of hi) kills every combination of expansions of its
    fixed coordinates, at most 4.  Choose such a cell digit by digit: the
    state (the combinations killed so far, and whether the digits still
    follow lo's path and hi's) changes at most 6 times, and what a digit
    does depends only on the state and on the coordinates' digits at that
    position.  So of 7 whole periods past P, one leaves the state as it
    found it; cutting it out gives a cell one period shorter that kills
    every combination.  A segment that fails at some stage thus fails by
    stage K, and as the stages shrink, its verdict at every stage past K
    is its verdict at K.  One period is not enough: the segment x = 9/26,
    z = 0, y in [0, 1/13] has P = 0 and L = 3 and first fails at stage 4.
    """
    p, l = 0, 1
    for den in {c.denominator for c in coords}:
        j, d = _split_three(den)
        p = max(p, j)
        n = _order_of_3(d, max(stage - p, 0) // 7 + 1)
        if n is None:
            return stage
        l = lcm(l, n)
        if p + 7 * l >= stage:
            return stage
    return p + 7 * l


def check_segment_space(space: str):
    """ValueError unless segments can be checked in the space."""
    if space not in ("sponge", "carpet2"):
        raise ValueError("space must be 'sponge' or 'carpet2'")


def _stage_cells(key):
    """(the digit strings of the closed stage-k cells holding num / den, the
    terminating one first; whether one of them has no digit 1) for the key
    (num, den, k), a value in [0, 1], which lies in one or two cells."""
    num, den, k = key
    ds = tuple([_digit_bytes(i, k) for i in _cell_candidates(num, den, 3**k)])
    return ds, 1 not in ds[0] or 1 not in ds[-1]


# A word is a digit string read as one integer, a byte per digit, most
# significant first (``int.from_bytes``): words of equal length compare as
# their cell indices do, and a mask of bytes 1 picks out the digits 1, so
# the range test below reads every position at once.

def _stage_digits(num: int, den: int, e, k: int) -> tuple[bytes, int | None, bool]:
    """(digits, tail, free): the one digit split the stage-k cells of
    num / den are read from, and whether its best cell has no digit 1.

    A value num / 3**e with e <= k gives its e digits and tail = k - e: its
    cells are those digits followed by 0s and, for e > 0, the digits of
    num - 1 followed by 2s.  Let d be num's last digit: the two agree above
    it, hold d and d - 1 there, and 0s and 2s below, so the cell with fewer
    1s, the best, holds the 1s of the e digits without the last one, and
    the other cell those plus at most one.  Any other value lies inside one
    cell, whose k digits it gives, with tail None.
    """
    if e is not None and e <= k:
        digits = _digit_bytes(num, e)
        return digits, k - e, digits.find(1, 0, -1) < 0
    digits = _digit_bytes(num * 3**k // den, k)
    return digits, None, 1 not in digits


def _words(split: tuple[bytes, int | None, bool], ones: int) -> tuple[int, int, int]:
    """(low, high, best) from the ``_stage_digits`` of a value at stage k,
    where ``ones`` is the word of k digits 1: the words of its lowest and
    highest stage-k cells, and the 1s of its best cell.  A running segment
    ends in its low end's lowest cell and its high end's highest one.  The
    values 0 and 1 have no digits: 0 is never a high end and 1 never a low
    end, so low is that of 0 and high that of 1.
    """
    digits, tail, _ = split
    w = int.from_bytes(digits, "big")
    if tail is None:
        return w, w, w & ones
    pad = 8 * tail
    high = (w - 1) << pad | 2 * ones >> 8 * len(digits) if digits else 2 * ones
    return w << pad, high, (w & ones >> pad) >> 8 << pad + 8


def _range_kept(space: str, a: int, b: int, low: int, high: int) -> bool:
    """Whether every stage-k cell from word ``low`` to word ``high`` is kept
    when the fixed coordinates' best cells hold their 1s at ``a`` and ``b``.

    Both rules count 1s, and a best cell's 1s are within those of any cell
    holding its coordinate, so a running cell kept by some combo of fixed
    cells is kept by the best one.  That combo removes a running cell with
    a 1 at a forbidden position: for ``sponge`` one where a or b has a 1
    (and every cell when both do), for ``carpet2`` one where both do.
    Down to ``split``, where the ends part, every cell holds the shared
    digits; at it the ends' digits differ, so some cell holds a 1 there.
    Below it, a position is free of 1s only while the ends differ by 1 at
    the split and each position since holds 2 at the low end and 0 at the
    high end; past that run every digit occurs in the range.
    """
    if space == "sponge":
        if a & b:
            return False
        forbidden = a | b
    else:
        forbidden = a & b
    if not forbidden:
        return True
    parted = low ^ high
    if not parted:
        return not low & forbidden
    split = parted.bit_length() - 1 & ~7
    if ((low | 1 << split) & forbidden) >> split:
        return False
    below = (1 << split) - 1
    if (high >> split) - (low >> split) == 2:
        return not forbidden & below
    run = (low ^ below // 255 * 2 | high) & below  # zero bytes hold (2, 0)
    return not forbidden & (1 << run.bit_length()) - 1


def segment_in_stage(seg: AxisSegment, k: int, space: str = "sponge") -> bool:
    """Exact: does every point of the segment lie in the stage-k prefractal?

    Decided at the segment's settled stage when that is less than k.  When
    both fixed coordinates are triadic, it is the larger of their
    exponents E: past digit E neither has a 1 digit in either expansion,
    and both spaces need two 1s at one position to remove a cell, so no
    later stage removes more of the segment.  Otherwise it is
    ``_settled_stage`` of the segment's four coordinates.
    """
    check_segment_space(space)
    if k < 0:
        raise ValueError("stage must be >= 0")
    exponents = [triadic_exponent(c.denominator) for c in seg.fixed]
    if None in exponents:
        settled = _settled_stage((*seg.fixed, seg.lo, seg.hi), k)
    else:
        settled = max(exponents)
    return _walk(seg, min(k, settled), space)


def _walk(seg: AxisSegment, k: int, space: str) -> bool:
    """Whether the segment lies in the stage-k prefractal, decided at k itself.

    The segment meets running cells of the 3**k grid with positive length
    from the lowest cell holding lo (lo < 1) to the highest holding hi
    (hi > 0); ``_range_kept`` decides them from the best cells of the fixed
    coordinates.  Each of the four coordinates is split into digits once.
    """
    ones = ((1 << 8 * k) - 1) // 255
    (_, _, a), (_, _, b), (low, _, _), (_, high, _) = (
        _words(_stage_digits(c.numerator, c.denominator, triadic_exponent(c.denominator), k), ones)
        for c in (*seg.fixed, seg.lo, seg.hi)
    )
    return _range_kept(space, a, b, low, high)
