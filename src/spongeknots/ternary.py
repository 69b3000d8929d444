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
from functools import cache, cached_property, partial
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
    return tuple(_digits_of_index(i, k) for i in _cell_candidates(x.numerator, x.denominator, 3**k))


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


def _digit_bytes(i: int, k: int) -> bytes:
    """The k base-3 digits of i < 3**k as bytes, most significant first:
    the digits of _digits_of_index, _CHUNK per division."""
    if k > 64:
        high, low = divmod(i, 3 ** (k // 2))
        return _digit_bytes(high, k - k // 2) + _digit_bytes(low, k // 2)
    digits, scale = _chunk_digits(), 3**_CHUNK
    out = digits[i % scale]
    while k > _CHUNK:
        i //= scale
        k -= _CHUNK
        out = digits[i % scale] + out
    return out[_CHUNK - k:]


def _index_of_digits(ds) -> int:
    """The integer whose base-3 digits, most significant first, are ``ds``:
    the inverse of _digits_of_index, halving long prefixes the same way."""
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


class _Filled(dict):
    """A dict that fills each missing key with ``make(key)`` on first use."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _alive_row(bad, key):
    """The alive row of one space's rule ``bad`` for one key.

    A key holds the two fixed digits of every combo at one digit position,
    flattened: (a0, b0, a1, b1, ...) for at most 4 combos, so at most
    9 + 81 + 729 + 6561 keys.  Its row gives, for running digit d = 0, 1, 2,
    the mask of the combos whose digits together with d break no rule.
    Both rules count the 1s among the three digits, so the row is the same
    whichever axis d runs along.  It depends only on the rule, never on a
    segment.
    """
    pairs = list(zip(key[::2], key[1::2]))
    return tuple(sum(1 << j for j, (a, b) in enumerate(pairs) if (d, a, b) not in bad) for d in range(3))


_ALIVE = {space: _Filled(partial(_alive_row, _BAD[space])) for space in ("sponge", "carpet2")}


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


def stage_witness(coords, k: int, space: str):
    """Length-k digit prefixes, one per coordinate, that break no rule; or None.

    Each prefix is a tuple of digits, the first combo in ``product`` order of
    the coordinates' ``ternary_digits`` that breaks no rule.
    """
    options, _ = _stage_options(_point(coords, space), k)
    combo = next((combo for combo, t in _stage_scan(options, space) if t is None), None)
    return None if combo is None else tuple(map(tuple, combo))


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


def refutation(coords, space: str, k: int | None = None):
    """(failed_stage, cells): a removed cell holding the point for every
    representation combo, and the largest stage among them.

    With ``k`` the point must lie outside the stage-k prefractal and each
    cell comes from length-k digit prefixes. Without it the point must lie
    outside the limit set, and each cell sits at its combo's exact first
    violating position. ValueError when some combo breaks no rule.
    """
    if k is None:
        _, refuted = limit_certificate(coords, space)
        if refuted is None:
            raise ValueError("refutation requested for a member point")
        return refuted
    options, _ = _stage_options(_point(coords, space), k)
    combos = list(_stage_scan(options, space))
    if any(t is None for _, t in combos):
        raise ValueError("refutation requested for a member point")
    return _removed_cells([(t, p) for p, t in combos], space)


def limit_certificate(point, space: str):
    """(witness, None) for a point of the limit set, else (None, refutation),
    from one expansion of each coordinate.

    The witness is that of ``satisfying_expansions`` and the refutation that
    of ``refutation`` without a stage, so a caller that wants whichever of
    them the point has expands no coordinate twice.
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


class SegmentMemo:
    """What containment derives from each distinct coordinate value, for one
    pass over the segments of a curve.

    ``cells`` maps (numerator, denominator, k) to ``_stage_cells`` of the
    value, and ``exponents`` a denominator to its ``triadic_exponent``, each
    filled on first use.  Keys are ints, never Fractions: hashing a Fraction
    costs about what splitting its digits does.  It holds at most
    (distinct values x stages) digit strings of k bytes each, and lives only
    as long as the pass that made it.
    """

    __slots__ = ("cells", "exponents")

    def __init__(self):
        self.cells = _Filled(_stage_cells)
        self.exponents = _Filled(triadic_exponent)


def segment_in_stage(seg: AxisSegment, k: int, space: str = "sponge", *, memo: SegmentMemo | None = None) -> bool:
    """Exact: does every point of the segment lie in the stage-k prefractal?

    Decided at the segment's settled stage when that is less than k.  When
    both fixed coordinates are triadic, it is the larger of their
    exponents E: past digit E neither has a 1 digit in either expansion,
    and both spaces need two 1s at one position to remove a cell, so no
    later stage removes more of the segment.  Otherwise it is
    ``_settled_stage`` of the segment's four coordinates.

    ``memo`` carries the digits of the values already seen from one call to
    the next; without it the call makes its own.
    """
    check_segment_space(space)
    if k < 0:
        raise ValueError("stage must be >= 0")
    if memo is None:
        memo = SegmentMemo()
    exponents = [memo.exponents[c.denominator] for c in seg.fixed]
    if None in exponents:
        settled = _settled_stage((*seg.fixed, seg.lo, seg.hi), k)
    else:
        settled = max(exponents)
    return _walk(seg, min(k, settled), space, memo.cells)


def _walk(seg: AxisSegment, k: int, space: str, cells=None) -> bool:
    """Whether the segment lies in the stage-k prefractal, decided at k itself.

    The segment meets running cells ``lo_idx..hi_idx`` of the 3**k grid with
    positive length: lo_idx is the first cell of ``_cell_candidates`` of lo
    (lo < 1), and hi_idx the last of hi (the one below hi when hi * 3**k is
    an integer, as hi > 0).  So ``cells`` (``SegmentMemo.cells``, a fresh
    one when not given) gives the digits of both ends and of the fixed
    coordinates' stage-k cells.  A running cell survives when some combo
    of the fixed coordinates' cells (at most 2 x 2) breaks no rule at any
    position together with the cell's digits.

    Combos are bits of a mask: ``alive[t][d]`` holds the combos that running
    digit d keeps at position t + 1, read from the space's ``_ALIVE`` table,
    so a cell survives when the AND of its digits' masks is non-zero.
    ``full[t][m]`` says every cell below a block of t fixed running digits
    survives when the combos in m are still alive, filled bottom-up from
    ``full[k][m] = m != 0``.  The walk follows the two boundary paths of
    ``[lo_idx, hi_idx]`` down the ternary tree and reads ``full`` for each
    block strictly between them, so it costs O(k) mask steps instead of one
    rule scan per running cell; no sampling involved.  Before any of it, a
    segment is inside when enough of its fixed coordinates have a cell with
    no digit 1 (``_FREE_ENOUGH``: both for ``sponge``, one for ``carpet2``),
    since no running digit then brings a position up to the 1s that remove
    a cell.
    """
    if cells is None:
        cells = _Filled(_stage_cells)
    (u, v), lo, hi = seg.fixed, seg.lo, seg.hi
    firsts, u_free = cells[u.numerator, u.denominator, k]
    seconds, v_free = cells[v.numerator, v.denominator, k]
    if u_free + v_free >= _FREE_ENOUGH[space]:
        return True
    # each combo's two digit strings in turn, so zip reads one key per position
    digits = [ds for a in firsts for b in seconds for ds in (a, b)]
    alive = list(map(_ALIVE[space].__getitem__, zip(*digits)))
    masks = range(1 << len(firsts) * len(seconds))
    lo_ds = cells[lo.numerator, lo.denominator, k][0][0]
    hi_ds = cells[hi.numerator, hi.denominator, k][0][-1]

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
