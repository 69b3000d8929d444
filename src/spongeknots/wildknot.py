"""Staged connected-sum approximants of wild knots in the sponge.

Each squareflake detour square sprouts three splice sites (the middle
thirds of its bottom, left and top sides); a surviving cube of the next
sponge stage hangs off every site.  Tame summands are embedded into those
cubes and spliced into the curve, giving the staged connected sums whose
per-stage counts are 3 * 2^(m-1).
"""

from __future__ import annotations

import reprlib
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate
from math import lcm

from .embed import check_surviving_cube, cube_edge, embed_into_box, place
from .geometry import FIXED_AXES, Cube, frac, running_axis
from .grid import KNOT_DETERMINANTS, catalog
from .polyline import ClosedPolyline3, IntegerForm
from .squareflake import middle_thirds, squareflake
from .ternary import in_cantor, stage_certificate


@dataclass(frozen=True)
class SpliceSite:
    stage: int
    index: int  # 1-based within the stage
    kind: str  # "bottom" | "left" | "top"
    cube: Cube
    orientation: str  # names the cube edge the site lies on, ``embed.cube_edge``


def sites(m: int) -> list[SpliceSite]:
    """Splice sites of stage m: three per detour square, 3 * 2^(m-1) total,
    each a stage-(m+1) grid cube, on ints over 3**(m+1) from the detours'
    middle thirds (a, a + 1) / 3**m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    scale = 3 ** (m + 1)
    out = []
    for a, _ in middle_thirds(m):
        y = 3 * a
        index = len(out) + 1
        out += [
            SpliceSite(m, index, "bottom", Cube(scale, (scale - 2, y, 0), 1), "x-edge-low"),
            SpliceSite(m, index + 1, "left", Cube(scale, (scale - 3, y + 1, 0), 1), "y-edge"),
            SpliceSite(m, index + 2, "top", Cube(scale, (scale - 2, y + 2, 0), 1), "x-edge-high"),
        ]
    return out


# ---------------------------------------------------------------------------
# splicing
# ---------------------------------------------------------------------------

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
            for ax, (o1, o2) in enumerate(FIXED_AXES):
                for c1 in cells[o1]:
                    for c2 in cells[o2]:
                        columns[ax, c1, c2].append((cells[ax][0], j))
        for column in columns.values():
            column.sort()
        for (ax, (f1, f2)), line in lines.items():
            column = columns.get((ax, f1 // h, f2 // h))
            if column is None:
                continue
            o1, o2 = FIXED_AXES[ax]
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

    Each splice is a connected sum along the summand's marked segment,
    segment ``marks["splice"]`` of its vertex cycle.  The mark must lie
    inside T, the cube edge the site's orientation names
    (``embed.cube_edge``), T inside a segment of the base curve as given,
    its carrier, and the summand must meet the curve only inside T; the
    marked open segment is removed from both curves and the endpoints
    cross-joined into one closed walk, preserving the base orientation.
    A carrier is the first base segment that holds T, and it carries at
    most one splice.

    The rules are checked site by site, in the order of the errors below,
    against the curve the earlier splices left, their summand segments
    included.  Where each site's T lies in a base segment of its own, the
    curve, or the first ValueError, is the one that splicing the pairs one
    at a time in order gives.

    Each curve's integer form and each site cube is brought to one integer
    scale, the lcm of their scales, and the walk and the curve it gives
    stay on that scale.  Each segment of the base and of every summand is
    filed once by its line, for carriers, and once under the site cubes it
    meets (``_cube_meets``).  Pieces of the curve are ordered by keys: base
    segment i is (i, 0) up to the mark it carries, then the spliced path's
    segments (i, 1, d), then (i, 2) after the mark.  Keys sort the curve in
    walk order, so the first segment a rule finds is the least key, and the
    index an error names counts the smaller keys.  The vertex list, each
    base vertex followed by the path spliced into its segment, is assembled,
    and the polyline validated, once.
    O(g (n + s) log(n + s)) for n segments in all, s sites and g distinct
    cube sides (m of them at stage m).
    """
    n = len(base)
    # each curve's integer form and each site cube on one scale
    scale = lcm(*{base.integer_form.scale, *(x.scale for pair in pairs for x in (pair[0].cube, pair[1].integer_form))})

    def rescaled(poly):
        f = scale // poly.integer_form.scale
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
    axes = [None] * len(ends)  # running axis, None when oblique
    fixeds = [None] * len(ends)  # the other two coordinates
    lines = defaultdict(list)  # (axis, fixed coordinates) -> [(lo, hi, segment)]
    for i, (a, b) in enumerate(ends):
        ax = axes[i] = running_axis(a, b)
        if ax is not None:
            fixed = fixeds[i] = tuple(a[k] for k in FIXED_AXES[ax])
            lines[ax, fixed].append((min(a[ax], b[ax]), max(a[ax], b[ax]), i))
    reach = {}  # per line: running maximum of hi over its entries sorted by lo
    for line_key, line in lines.items():
        line.sort()
        reach[line_key] = list(accumulate((hi for _, hi, _ in line), max))
    cubes, edges = [], []  # per site: its cube's (least, greatest) corners, and T
    for site, _ in pairs:
        f = scale // site.cube.scale
        ax, fixed, lo, hi = cube_edge(site.cube, site.orientation)
        edges.append((ax, tuple(c * f for c in fixed), lo * f, hi * f))
        near = tuple(c * f for c in site.cube.corner)
        cubes.append((near, tuple(c + site.cube.side * f for c in near)))
    meets = _cube_meets(cubes, lines)

    # the curve so far: the path spliced into each carrier, and the key of
    # each summand segment on it
    paths = {}  # carrier -> the summand's vertices in walk order
    keys = {}  # summand segment -> (carrier, 1, its place on the path)
    first_oblique = next(((i, 0) for i in range(n) if axes[i] is None), None)

    for j, (site, summand) in enumerate(pairs):
        if "splice" not in summand.marks:
            raise ValueError("summand carries no splice mark")
        pts = summand_points[j]
        sn, t = len(pts), summand.marks["splice"]
        if not 0 <= t < sn:
            raise ValueError("splice mark is not a segment of the summand")
        u, v = pts[t], pts[(t + 1) % sn]
        ax, fixed, t_lo, t_hi = edges[j]
        for p in (u, v):
            if tuple(p[i] for i in FIXED_AXES[ax]) != fixed:
                raise ValueError("splice mark is not on the site segment")
            if not (t_lo <= p[ax] <= t_hi):
                raise ValueError("splice mark leaves the site segment")
        # T inside a base segment: the first such
        carrier = None
        line, line_reach = lines.get((ax, fixed), ()), reach.get((ax, fixed), ())
        k = bisect_left(line, (t_lo + 1,)) - 1  # the last entry with lo <= t_lo
        while k >= 0 and line_reach[k] >= t_hi:
            _, hi, i = line[k]
            k -= 1
            if hi >= t_hi and i < n and (carrier is None or i < carrier):
                carrier = i
        if carrier is None:
            raise ValueError("site segment does not lie on the base curve")
        if carrier in paths:
            raise ValueError("base segment already carries a splice")
        # the curve meets the summand's cube only along T
        near, far = cubes[j]
        bad = None  # key of the first piece that meets the cube outside T
        for i in meets[j]:
            a, b = ends[i]
            if i >= n:
                pieces = [(keys[i], a, b)] if i in keys else []
            elif i in paths:
                pieces = [((i, 0), a, paths[i][0]), ((i, 2), paths[i][-1], b)]
            else:
                pieces = [((i, 0), a, b)]
            fax = axes[i]
            on_t = fax == ax and fixeds[i] == fixed
            for key, p, q in pieces:
                lo, hi = sorted((p[fax], q[fax]))
                if lo <= far[fax] and near[fax] <= hi and not (
                        on_t and t_lo <= max(lo, near[fax]) and min(hi, far[fax]) <= t_hi):
                    bad = key if bad is None else min(bad, key)
        if first_oblique is not None and (bad is None or first_oblique < bad):
            raise ValueError("approximant segments must be axis-aligned")
        if bad is not None:
            index = sum(key < bad for key in (*((i, 0) for i in range(n)), *((i, 2) for i in paths), *keys.values()))
            raise ValueError(f"base meets the splice cube outside T at segment {index}")
        if not all(a <= c <= b for w in pts for a, c, b in zip(near, w, far)):
            raise ValueError("summand leaves the splice cube")

        a, b = ends[carrier]
        if not (min(a[ax], b[ax]) < min(u[ax], v[ax]) and max(u[ax], v[ax]) < max(a[ax], b[ax])):
            raise ValueError("splice mark touches a base vertex")
        # the summand walked from the mark's end the carrier meets first
        # around to its other end
        backward = (u[ax] < v[ax]) == (a[ax] < b[ax])
        order = [(t - d) % sn for d in range(sn)] if backward else [(t + 1 + d) % sn for d in range(sn)]
        for d in range(sn - 1):
            seg = offsets[j] + (order[d + 1] if backward else order[d])
            keys[seg] = (carrier, 1, d)
            if axes[seg] is None and (first_oblique is None or keys[seg] < first_oblique):
                first_oblique = keys[seg]
        paths[carrier] = [pts[h] for h in order]

    out = [p for i in range(n) for p in (points[i], *paths.get(i, ()))]
    return ClosedPolyline3(IntegerForm(scale, tuple(out)), dict(base.marks))


# unit-cube quad whose first side, its mark, runs along the splice edge x = z = 0
_FLAT_QUAD = ClosedPolyline3(IntegerForm(3, ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0))), {"splice": 0, "stage": 0})


def flat_unknot(site: SpliceSite) -> ClosedPolyline3:
    """A genuine flat unknot for trivial splices: the boundary of the low
    one-ninth cell of the site cube's face, with its T-side as the mark.

    Keeping to cell boundaries of the face carpet makes the rectangle lie
    in the sponge at every stage and keeps neighboring rectangles apart.
    """
    if site.kind not in ("bottom", "left", "top"):
        raise ValueError(f"unknown site kind {site.kind!r}")
    return place(_FLAT_QUAD, site.cube, site.orientation)


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

    def __post_init__(self):
        for name in (self.default, *(knot for knot, _ in self.entries.values())):
            if name != TRIVIAL and name not in KNOT_DETERMINANTS:
                raise ValueError(f"unknown catalog knot: {reprlib.repr(name)} (have {sorted(KNOT_DETERMINANTS)})")

    def get(self, stage: int, index: int):
        return self.entries.get((stage, index), (self.default, False))

    @classmethod
    def uniform(cls, knot: str, stage: int) -> "KnotAssignment":
        # stage q indexes its sites 1..3 * 2**(q-1)
        entries = {(q, i): (knot, False) for q in range(1, stage + 1) for i in range(1, 3 * 2 ** (q - 1) + 1)}
        return cls(stage, entries)

    @classmethod
    def all_trivial(cls, stage: int) -> "KnotAssignment":
        return cls(stage, {})


def _summand_stage(n: int) -> int:
    """Cantor stage for spliced summands: strictly more endpoints than levels,
    so the embedded copy stays clear of the far cube faces shared with
    neighboring site cubes: the least k with 2**(k+1) > n."""
    return n.bit_length() - 1


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

    def __post_init__(self):
        if self.knot != TRIVIAL and self.knot not in KNOT_DETERMINANTS:
            raise ValueError(f"unknown knot {reprlib.repr(self.knot)}")
        det = KNOT_DETERMINANTS.get(self.knot, 1)
        if self.summand_det != det:
            raise ValueError(f"summand_det of {self.knot} is {det}, not {self.summand_det}")
        if self.nontrivial != (self.knot != TRIVIAL):
            raise ValueError(f"{self.knot} entry has nontrivial {self.nontrivial}")
        if self.nontrivial and not self.spliced:
            raise ValueError(f"nontrivial {self.knot} entry is not spliced")


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


def sponge_stage_of_ledger(m: int, ledger) -> int:
    """The sponge stage of a stage-m approximant with this ledger: the
    largest of m and q + 1 + k over its nontrivial entries, a stage-q
    summand of Cantor stage k (``_summand_stage``) in a stage-(q + 1) cube."""
    knots = {e.knot for e in ledger if e.nontrivial}
    k = {name: _summand_stage(catalog(name).n) for name in knots}
    return max([m, *(e.stage + 1 + k[e.knot] for e in ledger if e.nontrivial)])


def _resolve_knot(name):
    """(diagram, det) for a knot name of an assignment."""
    if name == TRIVIAL:
        return None, 1
    return catalog(name), KNOT_DETERMINANTS[name]


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
                    unit = units[name, mirror, k] = embed_into_box(g, Cube(1, (0, 0, 0), 1), "y-edge", k)
                check_surviving_cube(site.cube)
                pairs.append((site, place(unit, site.cube, site.orientation)))
            elif include_trivial:
                pairs.append((site, flat_unknot(site)))
            ledger.append(
                LedgerEntry(q, site.index, site.kind, name, nontrivial, mirror, spliced,
                            site.cube, det)
            )
    poly = _splice_sites(squareflake(m).polyline, pairs)
    return Approximant(m, poly, tuple(ledger), sponge_stage_of_ledger(m, ledger))


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
        (digits,) = stage_certificate((t,), m, "cantor")[0]  # its 1-free length-m prefix
        rank = 0  # position of the target's square among the stage squares
        for q in range(1, m + 1):
            d = digits[q - 1]
            # lower third adjoins the square's bottom side, upper its top
            offset = 1 if d == 0 else 3
            index = 3 * rank + offset
            entries[(q, index)] = (knot, False)
            rank = 2 * rank + (0 if d == 0 else 1)
    return KnotAssignment(m, entries)
