"""Staged connected-sum approximants of wild knots in the sponge.

Each squareflake detour square sprouts three splice sites (the middle
thirds of its bottom, left and top sides); a surviving cube of the next
sponge stage hangs off every site.  Tame summands are embedded into those
cubes and spliced into the curve, giving the staged connected sums whose
per-stage counts are 3 * 2^(m-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .embed import _orient, embed_into_cube, stage_for
from .geometry import Cube, axis_form, frac
from .grid import KNOT_DETERMINANTS, catalog
from .polyline import ClosedPolyline3
from .squareflake import detours, squareflake
from .ternary import AxisSegment, in_cantor, stage_witness

ZERO = Fraction(0)


@dataclass(frozen=True)
class SpliceSite:
    stage: int
    index: int  # 1-based within the stage
    kind: str  # "bottom" | "left" | "top"
    T: AxisSegment
    cube: Cube
    orientation: str  # cube-embedding orientation exposing the splice edge on T


def sites(m: int) -> list[SpliceSite]:
    """Splice sites of stage m: three per detour square, 3 * 2^(m-1) total."""
    if m < 1:
        raise ValueError("m must be >= 1")
    s = Fraction(1, 3 ** (m + 1))
    edge_x = 1 - Fraction(1, 3**m)
    out = []
    index = 1
    for y1, y2 in detours(m):
        bottom = SpliceSite(
            m, index, "bottom",
            AxisSegment(0, (y1, ZERO), 1 - 2 * s, 1 - s),
            Cube((1 - 2 * s, y1, ZERO), s),
            "x-edge-low",
        )
        left = SpliceSite(
            m, index + 1, "left",
            AxisSegment(1, (edge_x, ZERO), y1 + s, y1 + 2 * s),
            Cube((edge_x, y1 + s, ZERO), s),
            "y-edge",
        )
        top = SpliceSite(
            m, index + 2, "top",
            AxisSegment(0, (y2, ZERO), 1 - 2 * s, 1 - s),
            Cube((1 - 2 * s, y2 - s, ZERO), s),
            "x-edge-high",
        )
        out.extend((bottom, left, top))
        index += 3
    return out


# ---------------------------------------------------------------------------
# splicing
# ---------------------------------------------------------------------------

_OTHER_AXES = ((1, 2), (0, 2), (0, 1))


def splice(base: ClosedPolyline3, site: SpliceSite, summand: ClosedPolyline3) -> ClosedPolyline3:
    """Connected sum of base and summand along the summand's marked segment.

    The mark must lie inside site.T, site.T inside one base segment, and the
    summand must meet the base only inside site.T; the marked open segment
    is removed from both curves and the endpoints cross-joined into one
    closed walk, preserving the base orientation.
    """
    if "splice" not in summand.marks:
        raise ValueError("summand carries no splice mark")
    u, v = summand.marks["splice"]
    T = site.T
    ax = T.axis
    for p in (u, v):
        if tuple(p[i] for i in _OTHER_AXES[ax]) != T.fixed:
            raise ValueError("splice mark is not on the site segment")
        if not (T.lo <= p[ax] <= T.hi):
            raise ValueError("splice mark leaves the site segment")
    verts = base.vertices
    n = len(verts)
    forms = [axis_form(verts[i], verts[(i + 1) % n]) for i in range(n)]
    # T inside one base segment
    carrier = next(
        (i for i, f in enumerate(forms)
         if f is not None and f[0] == ax and f[1] == T.fixed and f[2] <= T.lo and T.hi <= f[3]),
        None,
    )
    if carrier is None:
        raise ValueError("site segment does not lie on the base curve")
    # base meets the summand's cube only along T
    near = site.cube.corner
    far = tuple(c + site.cube.side for c in near)
    for i, form in enumerate(forms):
        if form is None:
            raise ValueError("approximant segments must be axis-aligned")
        fax, fixed, lo, hi = form
        (o1, o2), (f1, f2) = _OTHER_AXES[fax], fixed
        if not (near[o1] <= f1 <= far[o1] and near[o2] <= f2 <= far[o2]):
            continue
        clo, chi = max(lo, near[fax]), min(hi, far[fax])
        if clo <= chi and not (fax == ax and fixed == T.fixed and T.lo <= clo and chi <= T.hi):
            raise ValueError(f"base meets the splice cube outside T at segment {i}")
    for w in summand.vertices:
        if not site.cube.contains_point(w):
            raise ValueError("summand leaves the splice cube")

    # orient the mark along the carrier walk direction
    if u == v:
        raise ValueError("degenerate splice mark")
    _, _, c_lo, c_hi = forms[carrier]
    if not (c_lo < min(u[ax], v[ax]) and max(u[ax], v[ax]) < c_hi):
        raise ValueError("splice mark touches a base vertex")
    forward = verts[(carrier + 1) % n][ax] > verts[carrier][ax]
    first, last = (u, v) if (u[ax] < v[ax]) == forward else (v, u)
    # locate the mark segment on the summand
    sverts = summand.vertices
    sn = len(sverts)
    pairs = ((sverts[t], sverts[(t + 1) % sn]) for t in range(sn))
    t = next((t for t, pair in enumerate(pairs) if pair in ((first, last), (last, first))), None)
    if t is None:
        raise ValueError("splice mark is not a segment of the summand")
    # the summand walked from `first` around to `last`
    path = sverts[t + 1:] + sverts[:t + 1]
    if sverts[t] == first:
        path = path[::-1]
    return ClosedPolyline3(verts[: carrier + 1] + path + verts[carrier + 1:], dict(base.marks))


# unit-cube quad whose first side runs along the splice edge x = z = 0
_FLAT_QUAD = tuple((Fraction(x, 3), Fraction(y, 3), ZERO) for x, y in ((0, 0), (0, 1), (1, 1), (1, 0)))


def flat_unknot(site: SpliceSite) -> ClosedPolyline3:
    """A genuine flat unknot for trivial splices: the boundary of the low
    one-ninth cell of the site cube's face, with its T-side as the mark.

    Keeping to cell boundaries of the face carpet makes the rectangle lie
    in the sponge at every stage and keeps neighboring rectangles apart.
    """
    if site.kind not in ("bottom", "left", "top"):
        raise ValueError(f"unknown site kind {site.kind!r}")
    verts = tuple(_orient(p, site.cube, site.orientation) for p in _FLAT_QUAD)
    return ClosedPolyline3(verts, {"splice": verts[:2], "stage": 0})


# ---------------------------------------------------------------------------
# assignments and approximants
# ---------------------------------------------------------------------------

TRIVIAL = "trivial"


@dataclass(frozen=True)
class KnotAssignment:
    """Which tame knot (or the unknot) is spliced at each (stage, site)."""

    stage: int
    entries: dict = field(default_factory=dict)  # (stage, index) -> (name, mirror)
    default: str = TRIVIAL

    def get(self, stage: int, index: int):
        return self.entries.get((stage, index), (self.default, False))

    @classmethod
    def uniform(cls, knot: str, stage: int) -> "KnotAssignment":
        entries = {}
        for q in range(1, stage + 1):
            for site in sites(q):
                entries[(q, site.index)] = (knot, False)
        return cls(stage, entries)

    @classmethod
    def all_trivial(cls, stage: int) -> "KnotAssignment":
        return cls(stage, {})


def _summand_stage(n: int) -> int:
    """Cantor stage for spliced summands: strictly more endpoints than levels,
    so the embedded copy stays clear of the far cube faces shared with
    neighboring site cubes."""
    k = stage_for(n)
    if 2 ** (k + 1) == n:
        k += 1
    return k


@dataclass(frozen=True)
class LedgerEntry:
    stage: int
    index: int
    kind: str
    knot: str
    nontrivial: bool
    mirror: bool
    spliced: bool
    cube: Cube
    summand_det: int


@dataclass(frozen=True)
class Approximant:
    m: int
    polyline: ClosedPolyline3
    ledger: tuple[LedgerEntry, ...]
    sponge_stage: int

    def expected_determinant(self) -> int:
        out = 1
        for e in self.ledger:
            if e.spliced:
                out *= e.summand_det
        return out

    def spliced_count(self, stage: int | None = None) -> int:
        return sum(
            1 for e in self.ledger if e.spliced and (stage is None or e.stage == stage)
        )


def _resolve_knot(name):
    """(diagram, det) for a knot name of an assignment."""
    if name == TRIVIAL:
        return None, 1
    return catalog(name), KNOT_DETERMINANTS[name]


def approximant(assign: KnotAssignment, m: int, include_trivial: bool = False) -> Approximant:
    """Build the stage-m connected-sum approximant for an assignment.

    Trivial sites are skipped by default (leaner curve); with
    ``include_trivial`` they splice a genuine flat unknot instead.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    poly = squareflake(m).polyline
    ledger = []
    top_stage = m
    for q in range(1, m + 1):
        for site in sites(q):
            name, mirror = assign.get(q, site.index)
            diagram, det = _resolve_knot(name)
            nontrivial = name != TRIVIAL
            spliced = nontrivial or include_trivial
            if nontrivial:
                g = diagram.mirrored() if mirror else diagram
                k = _summand_stage(g.n)
                summand = embed_into_cube(g, site.cube, site.orientation, k=k)
                poly = splice(poly, site, summand)
                top_stage = max(top_stage, site.stage + 1 + k)
            elif include_trivial:
                poly = splice(poly, site, flat_unknot(site))
            ledger.append(
                LedgerEntry(q, site.index, site.kind, name, nontrivial, mirror, spliced,
                            site.cube, det)
            )
    return Approximant(m, poly, tuple(ledger), top_stage)


# ---------------------------------------------------------------------------
# wild-point targeting (finite-stage content of the wild-set construction)
# ---------------------------------------------------------------------------

def wild_set_plan(targets, knot: str, m: int) -> KnotAssignment:
    """Assignment making exactly the sites chasing each target nontrivial.

    Targets are Cantor points on the edge that carries the construction
    (the right edge, parameterized by y).  At each stage q the unique site
    adjacent to the target's stage-q Cantor interval gets ``knot``; every
    other site stays trivial.
    """
    targets = tuple(frac(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be distinct")
    for t in targets:
        if not (0 <= t <= 1) or not in_cantor(t):
            raise ValueError(f"target {t} is not on the edge Cantor set")
    entries = {}
    for t in targets:
        (digits,) = stage_witness((t,), m, "cantor")  # its 1-free length-m prefix
        rank = 0  # position of the target's square among the stage squares
        for q in range(1, m + 1):
            d = digits[q - 1]
            # lower third adjoins the square's bottom side, upper its top
            offset = 1 if d == 0 else 3
            index = 3 * rank + offset
            entries[(q, index)] = (knot, False)
            rank = 2 * rank + (0 if d == 0 else 1)
    return KnotAssignment(m, entries)


def neighborhood_census(a: Approximant, p, r) -> int:
    """Spliced nontrivial summands whose cube lies within distance r of p."""
    p = tuple(frac(c) for c in p)
    r = frac(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    r2 = r * r
    return sum(
        1
        for e in a.ledger
        if e.nontrivial and e.spliced and e.cube.max_dist_sq(p) <= r2
    )


def clearance(a: Approximant, p) -> Fraction:
    """Smallest censusable radius at p: min over nontrivial cubes of the
    farthest-corner distance, returned squared (exact)."""
    dists = [e.cube.max_dist_sq(tuple(frac(c) for c in p)) for e in a.ledger if e.nontrivial]
    if not dists:
        raise ValueError("no nontrivial summands in the ledger")
    return min(dists)
