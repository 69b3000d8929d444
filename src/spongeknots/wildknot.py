"""Staged connected-sum approximants of wild knots in the sponge.

Each squareflake detour square sprouts three splice sites (the middle
thirds of its bottom, left and top sides); a surviving cube of the next
sponge stage hangs off every site.  Tame summands are embedded into those
cubes and spliced into the curve, giving the staged connected sums whose
per-stage counts are 3 * 2^(m-1).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .embed import _orient, _orient_maps, check_surviving_cube, embed_into_box, stage_for
from .geometry import Cube, frac, running_axis
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
    closed walk, preserving the base orientation.  The one-site case of
    ``_splice_sites``.
    """
    return _splice_sites(base, [(site, summand)])


def _cube_meets(cubes, lines):
    """``meets[j]``: every segment of ``lines`` that meets the closed cube
    ``cubes[j]`` (a (least, greatest) corner pair).  ``lines`` files the
    axis-parallel segments by line: (axis, fixed coordinates) -> [(lo, hi,
    segment)].

    Cubes are grouped by side h, and each group lays half-open cells of
    side h over space (h = 1 for a cube of side 0), so a cube meets at most
    two cells along each axis.  A cube is filed in every column of cells it
    meets, along each axis, under the first cell it meets along that axis.
    A line looks up the one column its fixed coordinates lie in, and each
    segment on it bisects that column for the cubes that meet its run of
    cells.  Two closed sets that meet share the cell of a common point, so
    no pair is missed.  O((n + c) log(n + c)) per group, for n segments
    and c cubes.
    """
    meets = [[] for _ in cubes]
    groups = defaultdict(list)  # side -> cubes
    for j, (near, far) in enumerate(cubes):
        if near[0] <= far[0]:  # a cube of negative side holds no point
            groups[far[0] - near[0] or 1].append(j)
    for h, members in groups.items():
        columns = defaultdict(list)  # (axis, cell, cell) -> [(first cell along axis, cube)]
        for j in members:
            cells = [range(a // h, b // h + 1) for a, b in zip(*cubes[j])]
            for ax, (o1, o2) in enumerate(_OTHER_AXES):
                for c1 in cells[o1]:
                    for c2 in cells[o2]:
                        columns[ax, c1, c2].append((cells[ax][0], j))
        for column in columns.values():
            column.sort()
        for (ax, (f1, f2)), line in lines.items():
            column = columns.get((ax, f1 // h, f2 // h))
            if column is None:
                continue
            o1, o2 = _OTHER_AXES[ax]
            for lo, hi, i in line:
                start = bisect_left(column, (lo // h - 1,))
                stop = bisect_right(column, (hi // h, len(cubes)))
                for _, j in column[start:stop]:
                    near, far = cubes[j]
                    if (near[o1] <= f1 <= far[o1] and near[o2] <= f2 <= far[o2]
                            and lo <= far[ax] and near[ax] <= hi):
                        meets[j].append(i)
    return meets


def _splice_sites(base: ClosedPolyline3, pairs) -> ClosedPolyline3:
    """Splice each (site, summand) of ``pairs`` into ``base``, in one pass.

    The curve, or the first ValueError, is the one that splicing the pairs
    one at a time in order gives: each site is checked, rule by rule as
    ``splice`` lists them, against the curve the earlier splices left,
    their summand segments included.

    Each curve's integer form, and each site, is brought to one integer
    scale, the lcm of their scales and denominators.  Each segment of the base
    and of every summand is filed once by its line, for carriers, and once
    under the site cubes it meets (``_cube_meets``).  A segment that takes
    a summand is cut into pieces, kept as its sorted walk positions
    (coordinates along its axis, negated when it walks down the axis).
    Pieces are ordered by keys: a base segment's key is its index; a
    summand segment's key is its carrier's key, then the splice position
    along the carrier and its place on the summand's path; a piece adds its
    first position.  Keys sort the curve in walk order, so the first
    segment a rule finds is the least key, and the index an error names
    counts the smaller keys.  The vertex list is assembled, and the
    polyline validated, once.  O(g (n + s) log(n + s)) for n segments in
    all, s sites and g distinct cube sides (m of them at stage m).
    """
    verts = base.vertices
    n = len(verts)
    # each curve's integer form, and the sites' coordinates, on one scale
    dens = {base.integer_form.scale}
    for site, summand in pairs:
        T, cube = site.T, site.cube
        dens.add(summand.integer_form.scale)
        dens.update(c.denominator for c in (*T.fixed, T.lo, T.hi, *cube.corner, cube.side))
    scale = lcm(*dens)
    factor = {d: scale // d for d in dens}

    def scaled(coords):
        return tuple(c.numerator * factor[c.denominator] for c in coords)

    def rescaled(poly):
        f = factor[poly.integer_form.scale]
        return [tuple(c * f for c in p) for p in poly.integer_form.points]

    # every segment: the base's, then each summand's in its own order
    points = rescaled(base)
    ends = list(zip(points, points[1:] + points[:1]))
    offsets, summand_points = [], []
    for _, summand in pairs:
        pts = rescaled(summand)
        offsets.append(len(ends))
        summand_points.append(pts)
        ends.extend(zip(pts, pts[1:] + pts[:1]))
    total = len(ends)
    axes = [None] * total  # running axis, None when oblique
    fixeds = [None] * total  # the other two coordinates
    lines = defaultdict(list)  # (axis, fixed coordinates) -> [(lo, hi, segment)]
    for i, (a, b) in enumerate(ends):
        ax = axes[i] = running_axis(a, b)
        if ax is not None:
            fixed = fixeds[i] = tuple(a[k] for k in _OTHER_AXES[ax])
            lines[ax, fixed].append((min(a[ax], b[ax]), max(a[ax], b[ax]), i))
    reach = {}  # per line: running maximum of hi over its entries sorted by lo
    for line_key, line in lines.items():
        line.sort()
        reach[line_key] = list(accumulate((hi for _, hi, _ in line), max))
    cubes = []
    for site, _ in pairs:
        near = scaled(site.cube.corner)
        side = site.cube.side.numerator * factor[site.cube.side.denominator]
        cubes.append((near, tuple(c + side for c in near)))
    meets = _cube_meets(cubes, lines)

    # the curve so far: live segments, their pieces and keys
    alive = [i < n for i in range(total)]
    start = list(verts) + [None] * (total - n)  # first vertex along the walk
    keys = [(i,) for i in range(n)] + [None] * (total - n)
    signs = [None] * total
    cuts = [None] * total  # walk positions: piece k runs from cuts[2k] to cuts[2k + 1]
    inserted = defaultdict(list)  # segment -> [(splice position, path segments, last vertex)]

    def go_live(i, a, b):
        ax = axes[i]
        if ax is None:
            cuts[i] = [0, 1]  # never cut: one piece, keyed like any other
        else:
            s = signs[i] = 1 if b[ax] > a[ax] else -1
            cuts[i] = [s * a[ax], s * b[ax]]

    for i in range(n):
        go_live(i, *ends[i])
    first_oblique = next((keys[i] + (0, 0) for i in range(n) if axes[i] is None), None)

    for j, (site, summand) in enumerate(pairs):
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
        fixed = scaled(T.fixed)
        t_lo, t_hi = scaled((T.lo, T.hi))
        # T inside one piece of the curve so far: the first such piece
        carrier = None  # (piece key, segment, piece number)
        line, line_reach = lines.get((ax, fixed), ()), reach.get((ax, fixed), ())
        k = bisect_left(line, (t_lo + 1,)) - 1  # the last entry with lo <= t_lo
        while k >= 0 and line_reach[k] >= t_hi:
            _, hi, i = line[k]
            k -= 1
            if hi < t_hi or not alive[i]:
                continue
            cut = cuts[i]
            p, q = (t_lo, t_hi) if signs[i] > 0 else (-t_hi, -t_lo)
            c = bisect_right(cut, p) - 1
            if c >= 0 and cut[c | 1] >= q:
                key = keys[i] + (cut[c & ~1], 0)
                if carrier is None or key < carrier[0]:
                    carrier = (key, i, c // 2)
        if carrier is None:
            raise ValueError("site segment does not lie on the base curve")
        # the curve meets the summand's cube only along T
        near, far = cubes[j]
        bad = None  # key of the first piece that meets the cube outside T
        for i in meets[j]:
            if not alive[i]:
                continue
            fax, s, cut = axes[i], signs[i], cuts[i]
            on_t = fax == ax and fixeds[i] == fixed
            p, q = (near[fax], far[fax]) if s > 0 else (-far[fax], -near[fax])
            for c in range(bisect_left(cut, p) // 2, (bisect_right(cut, q) + 1) // 2):
                a, b = cut[2 * c], cut[2 * c + 1]
                lo, hi = (a, b) if s > 0 else (-b, -a)
                if on_t and t_lo <= max(lo, near[fax]) and min(hi, far[fax]) <= t_hi:
                    continue
                key = keys[i] + (a, 0)
                if bad is None or key < bad:
                    bad = key
        if first_oblique is not None and (bad is None or first_oblique < bad):
            raise ValueError("approximant segments must be axis-aligned")
        if bad is not None:
            index = sum(
                keys[i] + (cuts[i][c], 0) < bad
                for i in range(total) if alive[i] for c in range(0, len(cuts[i]), 2)
            )
            raise ValueError(f"base meets the splice cube outside T at segment {index}")
        pts = summand_points[j]
        if not all(a <= c <= b for w in pts for a, c, b in zip(near, w, far)):
            raise ValueError("summand leaves the splice cube")

        # orient the mark along the carrier walk direction
        if u == v:
            raise ValueError("degenerate splice mark")
        _, i, piece = carrier
        s, cut = signs[i], cuts[i]
        a, b = cut[2 * piece], cut[2 * piece + 1]
        c_lo, c_hi = (a, b) if s > 0 else (-b, -a)
        if not (c_lo < min(u[ax], v[ax]) * scale and max(u[ax], v[ax]) * scale < c_hi):
            raise ValueError("splice mark touches a base vertex")
        first, last = (u, v) if (u[ax] < v[ax]) == (s > 0) else (v, u)
        # locate the mark segment on the summand, on integers: a mark off
        # the scale's grid is no segment of it
        ends_at = [[c * scale for c in p] for p in (first, last)]
        sn = len(pts)
        t = None
        if all(c.denominator == 1 for p in ends_at for c in p):
            head, tail = (tuple(c.numerator for c in p) for p in ends_at)
            t = next((t for t in range(sn) if (pts[t], pts[(t + 1) % sn]) in ((head, tail), (tail, head))), None)
        if t is None:
            raise ValueError("splice mark is not a segment of the summand")
        # the summand walked from `first` around to `last`, cut into the carrier piece
        sverts = summand.vertices
        backward = pts[t] == head
        order = [(t - d) % sn for d in range(sn)] if backward else [(t + 1 + d) % sn for d in range(sn)]
        at, to = s * pts[order[0]][ax], s * pts[order[-1]][ax]
        cut[2 * piece + 1:2 * piece + 1] = [at, to]
        path = []
        for d in range(sn - 1):
            h, e = order[d], order[d + 1]
            seg = offsets[j] + (e if backward else h)
            alive[seg], start[seg], keys[seg] = True, sverts[h], keys[i] + (at, 1, d)
            go_live(seg, pts[h], pts[e])
            path.append(seg)
            if axes[seg] is None and (first_oblique is None or keys[seg] + (0, 0) < first_oblique):
                first_oblique = keys[seg] + (0, 0)
        inserted[i].append((at, path, sverts[order[-1]]))

    # the vertex list: each segment's first vertex, then the paths cut into it
    out = []
    stack = [iter(range(n))]
    while stack:
        item = next(stack[-1], None)
        if item is None:
            stack.pop()
        elif isinstance(item, tuple):
            out.append(item)
        else:
            out.append(start[item])
            if item in inserted:
                stack.append(iter([x for _, path, last in sorted(inserted[item]) for x in (*path, last)]))
    return ClosedPolyline3(tuple(out), dict(base.marks))


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


def _placed(unit: ClosedPolyline3, site: SpliceSite) -> ClosedPolyline3:
    """The unit-cube summand carried into the site cube, as
    ``embed_into_cube`` would embed it there: its integer form goes through
    one integer affine map per coordinate."""
    scale, points = unit.integer_form
    den, maps = _orient_maps(site.cube, site.orientation, scale)
    placed = [tuple(off + mul * p[src] for src, mul, off in maps) for p in points]
    mark = tuple(sorted(_orient(p, site.cube, site.orientation) for p in unit.marks["splice"]))
    return ClosedPolyline3.from_integers(den, placed, {"splice": mark})


def approximant(assign: KnotAssignment, m: int, include_trivial: bool = False) -> Approximant:
    """Build the stage-m connected-sum approximant for an assignment.

    Trivial sites are skipped by default (leaner curve); with
    ``include_trivial`` they splice a genuine flat unknot instead.  Each
    distinct (knot, mirror, Cantor stage) summand is embedded once, in the
    unit cube, and carried into each of its site cubes, each checked to
    survive its stage; all sites are then spliced in one pass.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    ledger = []
    pairs = []  # (site, summand) in splice order
    units = {}  # (knot, mirror, Cantor stage) -> its embedding in the unit cube
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
                unit = units.get((name, mirror, k))
                if unit is None:
                    unit = units[name, mirror, k] = embed_into_box(g, (ZERO,) * 3, Fraction(1), "y-edge", k)
                check_surviving_cube(site.cube)
                pairs.append((site, _placed(unit, site)))
                top_stage = max(top_stage, site.stage + 1 + k)
            elif include_trivial:
                pairs.append((site, flat_unknot(site)))
            ledger.append(
                LedgerEntry(q, site.index, site.kind, name, nontrivial, mirror, spliced,
                            site.cube, det)
            )
    poly = _splice_sites(squareflake(m).polyline, pairs)
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
