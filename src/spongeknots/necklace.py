"""Pearl chain necklaces and their refinement under sphere inversions.

A necklace is a polygonal knot together with n >= 3 disjoint round balls
(pearls) centered on it, each meeting the knot in a straight subsegment.
Reflecting through pearl boundaries nests new pearls inside old ones;
generation m holds exactly n(n-1)^m pearls, indexed by reduced words in
the n reflections.  Radii are stored squared so every comparison stays in
exact rational arithmetic (disjointness and nesting are decided by
isolating and squaring the radical twice).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Point3, add3, dist_sq3, point_segment_dist_sq3, scale3, sub3
from .polyline import ClosedPolyline3


@dataclass(frozen=True)
class Pearl:
    center: Point3
    radius_sq: Fraction
    word: tuple[int, ...]  # reflection word, most recent generator first

    def __post_init__(self):
        if self.radius_sq <= 0:
            raise ValueError("pearl needs positive squared radius")
        if not self.word:
            raise ValueError("pearl needs a non-empty reflection word")
        for a, b in zip(self.word, self.word[1:]):
            if a == b:
                raise ValueError("reflection word has an immediate repeat")

    @property
    def generation(self) -> int:
        return len(self.word) - 1


def _sum_lt_sq(r1_sq: Fraction, r2_sq: Fraction, d_sq: Fraction) -> bool:
    """Exact test r1 + r2 < sqrt(d_sq) using only the squared quantities."""
    lhs = d_sq - r1_sq - r2_sq
    if lhs <= 0:
        return False
    return lhs * lhs > 4 * r1_sq * r2_sq


def _diff_gt_sq(r_big_sq: Fraction, r_small_sq: Fraction, d_sq: Fraction) -> bool:
    """Exact test sqrt(d_sq) < r_big - r_small (strict nesting)."""
    if r_small_sq >= r_big_sq:
        return False
    lhs = r_big_sq + r_small_sq - d_sq
    if lhs <= 0:
        return False
    return lhs * lhs > 4 * r_big_sq * r_small_sq


def pearls_disjoint(p: Pearl, q: Pearl) -> bool:
    return _sum_lt_sq(p.radius_sq, q.radius_sq, dist_sq3(p.center, q.center))


def pearl_inside(inner: Pearl, outer: Pearl) -> bool:
    return _diff_gt_sq(outer.radius_sq, inner.radius_sq, dist_sq3(inner.center, outer.center))


@dataclass(frozen=True)
class Necklace:
    """Pearls of one generation on a knot.

    That a generation holds n(n-1)^m pearls, pairwise disjoint at
    generation 0, is a claim ``checks.necklace`` decides (``pearl-count``,
    ``pearl-disjointness``), not an invariant of the type, so a stored
    necklace that breaks it still loads and fails by name.
    """

    pearls: tuple[Pearl, ...]
    knot: ClosedPolyline3
    n: int
    generation: int = 0


def invert_pearl(b: Pearl, other: Pearl) -> Pearl:
    """Image ball of ``other`` under reflection through ``b``.

    The word grows by b's leading generator, or cancels against it when
    ``other`` already starts with that letter (reflections are involutions).
    """
    d = sub3(other.center, b.center)
    dd = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    denom = dd - other.radius_sq
    if denom <= 0:
        raise ValueError("pearl contains the inversion center; image is no ball")
    center = add3(b.center, scale3(d, b.radius_sq / denom))
    radius_sq = b.radius_sq * b.radius_sq * other.radius_sq / (denom * denom)
    j = b.word[0]
    if len(other.word) > 1 and other.word[0] == j:
        word = other.word[1:]
    else:
        word = (j, *other.word)
    return Pearl(center, radius_sq, word)


def iterate(t: Necklace, m: int) -> Necklace:
    """Necklace whose pearls are the generation-m images under all reduced
    reflection words; count is exactly n(n-1)^m."""
    if m < 0:
        raise ValueError("generation must be >= 0")
    if t.generation != 0:
        raise ValueError("iterate starts from a generation-0 necklace")
    current = t.pearls
    base = {p.word[0]: p for p in t.pearls}
    for _ in range(m):
        nxt = []
        for j, b in sorted(base.items()):
            for p in current:
                if p.word[0] != j:
                    nxt.append(invert_pearl(b, p))
        current = tuple(nxt)
    return Necklace(current, t.knot, t.n, generation=m)


def pearls_by_word(t: Necklace, words) -> dict:
    """The pearl each word addresses, built by inverting the pearl of its
    last letter through those of the letters before it, last to first, or
    None where that chain fails (an unknown generator, a word that is not
    reduced, a pearl holding an inversion center).  Pearls are kept by
    word, so each suffix the words share is inverted once, however many
    words end in it."""
    base = {p.word[0]: p for p in t.pearls}
    built = {}  # suffix -> its pearl, or None
    for word in words:
        if not word or any(w not in base for w in word) or any(a == b for a, b in zip(word, word[1:])):
            built[word] = None
            continue
        pearl = base[word[-1]]
        for k in range(len(word) - 2, -1, -1):
            suffix = word[k:]
            if suffix not in built:
                try:
                    built[suffix] = None if pearl is None else invert_pearl(base[word[k]], pearl)
                except ValueError:
                    built[suffix] = None
            pearl = built[suffix]
        built[word] = pearl
    return {word: built[word] for word in words}


def make_necklace(knot: ClosedPolyline3, n: int) -> Necklace:
    """Subordinate n-pearl necklace: centers spread along edge interiors,
    one common exact radius keeping pearls disjoint and intersections
    straight."""
    if n < 3:
        raise ValueError("necklaces need n >= 3 pearls")
    edges = list(knot.segments())
    ne = len(edges)
    counts = [n // ne + (1 if i < n % ne else 0) for i in range(ne)]
    centers = []
    for (a, b), c in zip(edges, counts):
        d = sub3(b, a)
        for t in range(c):
            lam = Fraction(2 * t + 1, 2 * c)
            centers.append((add3(a, scale3(d, lam)), (a, b)))
    # common radius: strictly under half the closest center spacing and
    # strictly under the distance to every non-carrying edge
    min_center = None
    for i in range(n):
        for j in range(i + 1, n):
            d2 = dist_sq3(centers[i][0], centers[j][0])
            if d2 == 0:
                raise ValueError("pearl centers collide; reduce n")
            if min_center is None or d2 < min_center:
                min_center = d2
    min_edge = None
    for c, carrier in centers:
        for e in edges:
            if e == carrier:
                continue
            d2 = point_segment_dist_sq3(c, *e)
            if d2 == 0:
                raise ValueError("pearl center touches another edge; reduce n")
            if min_edge is None or d2 < min_edge:
                min_edge = d2
    radius_sq = min(min_center / 9, min_edge / 4)
    pearls = tuple(
        Pearl(c, radius_sq, (i + 1,)) for i, (c, _) in enumerate(centers)
    )
    return Necklace(pearls, knot, n)
