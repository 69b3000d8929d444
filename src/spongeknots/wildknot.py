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
from itertools import product

from .embed import embed_into_cube, stage_for
from .geometry import Cube, Point3, axis_form, frac
from .grid import GridDiagram, KNOT_DETERMINANTS, catalog
from .invariants import determinant, diagram_from_grid
from .polyline import ClosedPolyline3
from .squareflake import squareflake
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


def _stage_squares(m: int):
    """y-intervals of the detour squares added at stage m, ascending."""
    out = []
    for digits in product((0, 2), repeat=m - 1):
        k = 0
        for d in digits:
            k = 3 * k + d
        out.append(k)
    return sorted(out)


def sites(m: int) -> list[SpliceSite]:
    """Splice sites of stage m: three per detour square, 3 * 2^(m-1) total."""
    if m < 1:
        raise ValueError("m must be >= 1")
    s = Fraction(1, 3 ** (m + 1))
    edge_x = 1 - Fraction(1, 3**m)
    out = []
    index = 1
    for k in _stage_squares(m):
        y1 = Fraction(3 * k + 1, 3**m)
        y2 = Fraction(3 * k + 2, 3**m)
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

def _clip_to_cube(a: Point3, b: Point3, cube: Cube):
    """Closed intersection of an axis-aligned segment with a cube, or None."""
    data = axis_form(a, b)
    if data is None:
        raise ValueError("approximant segments must be axis-aligned")
    ax, fixed, lo, hi = data
    others = [i for i in range(3) if i != ax]
    for f, o in zip(fixed, others):
        if not (cube.corner[o] <= f <= cube.corner[o] + cube.side):
            return None
    clo = max(lo, cube.corner[ax])
    chi = min(hi, cube.corner[ax] + cube.side)
    if clo > chi:
        return None
    return ax, fixed, clo, chi


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
    t_ends = site.T.endpoints()
    # mark inside T
    ax = site.T.axis
    for p in (u, v):
        if tuple(p[i] for i in range(3) if i != ax) != site.T.fixed:
            raise ValueError("splice mark is not on the site segment")
        if not (site.T.lo <= p[ax] <= site.T.hi):
            raise ValueError("splice mark leaves the site segment")
    # T inside one base segment
    carrier = None
    verts = base.vertices
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        data = axis_form(a, b)
        if data is None or data[0] != ax:
            continue
        if data[1] == site.T.fixed and data[2] <= site.T.lo and site.T.hi <= data[3]:
            carrier = i
            break
    if carrier is None:
        raise ValueError("site segment does not lie on the base curve")
    # base meets the summand's cube only along T
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        clip = _clip_to_cube(a, b, site.cube)
        if clip is None:
            continue
        cax, cfixed, clo, chi = clip
        on_t = cax == ax and cfixed == site.T.fixed and site.T.lo <= clo and chi <= site.T.hi
        if not on_t:
            raise ValueError(f"base meets the splice cube outside T at segment {i}")
    for w in summand.vertices:
        if not site.cube.contains_point(w):
            raise ValueError("summand leaves the splice cube")

    # orient the mark along the carrier walk direction
    a, b = verts[carrier], verts[(carrier + 1) % n]
    if u == v:
        raise ValueError("degenerate splice mark")
    lo_m, hi_m = min(u[ax], v[ax]), max(u[ax], v[ax])
    if not (min(a[ax], b[ax]) < lo_m and hi_m < max(a[ax], b[ax])):
        raise ValueError("splice mark touches a base vertex")
    forward = b[ax] > a[ax]
    first, last = (u, v) if (u[ax] < v[ax]) == forward else (v, u)
    # locate the mark segment on the summand
    sverts = summand.vertices
    sn = len(sverts)
    mark_at = None
    for t in range(sn):
        pair = (sverts[t], sverts[(t + 1) % sn])
        if pair == (first, last):
            mark_at = (t, False)
            break
        if pair == (last, first):
            mark_at = (t, True)
            break
    if mark_at is None:
        raise ValueError("splice mark is not a segment of the summand")
    t, reverse = mark_at
    if reverse:
        path = [sverts[(t + 1 + j) % sn] for j in range(sn)]
    else:
        path = [sverts[(t + 1 + j) % sn] for j in range(sn)]
        path.reverse()
    # path now runs from `first` around the summand to `last`
    assert path[0] == first and path[-1] == last
    new_verts = list(verts[: carrier + 1]) + path + list(verts[carrier + 1:])
    return ClosedPolyline3(tuple(new_verts), dict(base.marks))


def flat_unknot(site: SpliceSite) -> ClosedPolyline3:
    """A genuine flat unknot for trivial splices: the boundary of the low
    one-ninth cell of the site cube's face, with its T-side as the mark.

    Keeping to cell boundaries of the face carpet makes the rectangle lie
    in the sponge at every stage and keeps neighboring rectangles apart.
    """
    cx, cy, cz = site.cube.corner
    s = site.cube.side
    w = s / 3
    if site.kind == "bottom":
        quad = [(cx, cy), (cx + w, cy), (cx + w, cy + w), (cx, cy + w)]
        mark = ((cx, cy, cz), (cx + w, cy, cz))
    elif site.kind == "left":
        quad = [(cx, cy), (cx, cy + w), (cx + w, cy + w), (cx + w, cy)]
        mark = ((cx, cy, cz), (cx, cy + w, cz))
    elif site.kind == "top":
        y = cy + s
        quad = [(cx, y), (cx + w, y), (cx + w, y - w), (cx, y - w)]
        mark = ((cx, y, cz), (cx + w, y, cz))
    else:
        raise ValueError(f"unknown site kind {site.kind!r}")
    verts = tuple((x, y, cz) for x, y in quad)
    return ClosedPolyline3(verts, {"splice": mark, "stage": 0})


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

    def to_json_dict(self):
        return {
            "stage": self.stage,
            "default": self.default,
            "entries": [
                {"stage": q, "index": i, "knot": name, "mirror": mirror}
                for (q, i), (name, mirror) in sorted(self.entries.items())
            ],
        }


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


def _resolve_knot(spec):
    """(name, diagram, det) for an assignment value."""
    if isinstance(spec, GridDiagram):
        return "custom", spec, determinant(diagram_from_grid(spec))
    name = str(spec)
    if name == TRIVIAL:
        return TRIVIAL, None, 1
    g = catalog(name)
    return name, g, KNOT_DETERMINANTS[name]


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
            name_spec, mirror = assign.get(q, site.index)
            name, diagram, det = _resolve_knot(name_spec)
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
