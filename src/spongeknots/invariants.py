"""Independent verification oracle for the geometric constructions.

Provides exact simplicity testing for closed 3D polylines, exact generic
projection to planar knot diagrams, and two independently implemented
knot invariants:

* ``determinant`` -- |det| of a Goeritz matrix read off a checkerboard
  coloring of the diagram's face arrangement;
* ``determinant_minor`` -- |det| of a minor of the integer crossing
  (coloring) matrix, an independent second route used to cross-check the
  first;
* ``tricolorings`` -- the number of Fox 3-colorings, from the nullity of
  the same crossing relations over GF(3).

Everything here is exact rational/integer arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .geometry import Point2, box_meet, cross2, running_axis, seg_seg_2d, seg_seg_3d, sub2
from .grid import GridDiagram, walk_points
from .polyline import ClosedPolyline3

ZERO = Fraction(0)


class NonGenericProjection(ValueError):
    """Raised when a projection direction fails an exact genericity check."""


# ---------------------------------------------------------------------------
# simplicity
# ---------------------------------------------------------------------------

def _axis_meets(boxes):
    """Lists ``after[i]`` of every j > i such that the axis-parallel segments
    with boxes i and j meet; ``boxes[i]`` is None for an oblique segment.

    Collinear segments are bucketed by their line and paired along it in
    order of ``lo``.  Perpendicular ones, along axes a < b, can meet only
    at one value of the remaining coordinates; each such group is swept
    along a, keeping the b-coordinates of the a-segments that span the
    sweep position in a sorted list, and each b-segment queries its span
    of that list.  At one position inserts come before queries and queries
    before removals, since segments are closed.  O(n log n + hits) for n
    segments, besides the list moves.
    """
    n = len(boxes)
    after = [[] for _ in range(n)]
    lines = defaultdict(list)  # (axis, fixed coordinates) -> [(lo, hi, i)]
    groups = defaultdict(list)  # (a, b, remaining coordinates) -> [(a-coordinate, kind, ...)]
    for i, box in enumerate(boxes):
        if box is None:
            continue
        lo, hi = box
        ax = next(a for a in range(len(lo)) if lo[a] != hi[a])
        lines[ax, lo[:ax] + lo[ax + 1:]].append((lo[ax], hi[ax], i))
        for other in range(len(lo)):
            if other == ax:
                continue
            a, b = min(ax, other), max(ax, other)
            rest = tuple(c for k, c in enumerate(lo) if k != a and k != b)
            events = groups[a, b, rest]
            if ax == a:  # spans a at b-coordinate lo[b]: insert (kind 0), then remove (kind 2)
                key = lo[b] * n + i
                events.append((lo[a], 0, key))
                events.append((hi[a], 2, key))
            else:  # sits at a-coordinate lo[a], spans b: query (kind 1)
                events.append((lo[a], 1, lo[b] * n, (hi[b] + 1) * n, i))
    for line in lines.values():
        line.sort()
        for k, (_, hi, i) in enumerate(line):
            for t in range(k + 1, len(line)):
                lo_j, _, j = line[t]
                if lo_j > hi:
                    break
                after[min(i, j)].append(max(i, j))
    for events in groups.values():
        events.sort()
        active = []  # b-coordinate * n + segment index, sorted
        for event in events:
            kind = event[1]
            if kind == 0:
                insort(active, event[2])
            elif kind == 2:
                del active[bisect_left(active, event[2])]
            else:
                i = event[4]
                for key in active[bisect_left(active, event[2]):bisect_left(active, event[3])]:
                    j = key % n
                    after[min(i, j)].append(max(i, j))
    return after


def _oblique_partners(bounds, boxes):
    """Lists ``partners[i]`` of every j > i such that segment i or j is
    oblique (``boxes[k]`` None) and their bounding boxes ``bounds`` overlap
    along the first axis.

    Segments are swept in order of their low end along that axis, keeping
    the oblique and the axis-parallel ones whose high end may still reach
    the sweep position in two lists; a segment pairs with the oblique ones
    still active and, when it is oblique itself, with the axis-parallel
    ones.  Each list drops its ended segments as it is read, so the sweep
    costs O(n log n + pairs).
    """
    n = len(bounds)
    partners = [[] for _ in range(n)]
    if None not in boxes:
        return partners
    active = ([], [])  # axis-parallel, oblique
    for k in sorted(range(n), key=lambda k: bounds[k][0][0]):
        x = bounds[k][0][0]
        oblique = boxes[k] is None
        for group in active if oblique else active[1:]:
            group[:] = [j for j in group if bounds[j][1][0] >= x]
            for j in group:
                partners[min(j, k)].append(max(j, k))
        active[oblique].append(k)
    return partners


def _meets(walk):
    """(i, j, meet) for every pair i < j of segments of a closed integer walk
    that meet, in order of i, then j.

    Segment i joins walk[i] to walk[i + 1] (mod n), in 2D or 3D, and every
    coordinate is an int.  ``meet`` is ("point", p) or ("overlap", (p, q))
    in the walk's coordinates, as from ``seg_seg_3d``/``seg_seg_2d``.  The
    axis-parallel pairs that meet are found by ``_axis_meets`` and meet in
    the intersection of their boxes, an integer box.  A pair with an
    oblique segment is a candidate only when ``_oblique_partners`` finds
    their ranges along the first axis overlapping, and goes through the
    exact routine, on the integers as Fractions, only when their bounding
    boxes meet (closed segments that meet have meeting boxes).  Pairs are
    yielded one first index i at a time, so a caller that stops at its
    first bad pair skips the rest.
    """
    n = len(walk)
    ends = list(zip(walk, walk[1:] + walk[:1]))
    bounds = [(tuple(map(min, a, b)), tuple(map(max, a, b))) for a, b in ends]
    # an axis-parallel segment is its own box; None marks an oblique one
    boxes = [None if running_axis(a, b) is None else box for box, (a, b) in zip(bounds, ends)]
    after = _axis_meets(boxes)
    partners = _oblique_partners(bounds, boxes)
    seg_seg = seg_seg_3d if len(walk[0]) == 3 else seg_seg_2d
    for i in range(n):
        box_i = boxes[i]
        for j in sorted(after[i] + partners[i]):
            box_j = boxes[j]
            if box_i is None or box_j is None:
                if box_meet(bounds[i], bounds[j]) is None:
                    continue
                meet = seg_seg(*(tuple(map(Fraction, v)) for v in (*ends[i], *ends[j])))
                if meet is not None:
                    yield i, j, meet
                continue
            lo, hi = box_meet(box_i, box_j)
            yield i, j, ("point", lo) if lo == hi else ("overlap", (lo, hi))


def is_simple(p: ClosedPolyline3) -> bool:
    """Exact: no two non-adjacent segments meet; adjacent ones meet only at
    the shared vertex.  Decided on the curve's integer form."""
    verts = p.integer_form.points
    n = len(verts)
    for i, j, (kind, x) in _meets(verts):
        if kind == "overlap":
            return False
        if j == i + 1:
            shared = verts[j]
        elif i == 0 and j == n - 1:
            shared = verts[0]
        else:
            return False
        if x != shared:
            return False
    return True


# ---------------------------------------------------------------------------
# knot diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Crossing:
    over_arc: int
    under_in: int
    under_out: int
    point: Point2


@dataclass(frozen=True)
class KnotDiagram:
    """Combinatorial diagram of a knot plus the planar walk that drew it.

    ``walk`` is the cyclic list of corner points of the projected curve;
    ``events`` lists the crossings as (segment_i, segment_j, point,
    over_is_i); ``passes[i]`` lists the (crossing id, passes over) of walk
    segment i in order along it, from which the Goeritz faces are traced.
    """

    crossings: tuple[Crossing, ...]
    n_arcs: int
    walk: tuple[Point2, ...] = field(repr=False)
    events: tuple = field(repr=False)
    passes: tuple = field(repr=False)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


def _segment_param(a: Point2, b: Point2, x: Point2) -> Fraction:
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx != 0:
        return (x[0] - a[0]) / dx
    return (x[1] - a[1]) / dy


def _passes(walk, events):
    """Per walk segment, the (crossing id, passes over) of its crossings in
    order along it."""
    m = len(walk)
    along = [[] for _ in range(m)]
    for cid, (i, j, x, over_is_i) in enumerate(events):
        along[i].append((_segment_param(walk[i], walk[(i + 1) % m], x), cid, over_is_i))
        along[j].append((_segment_param(walk[j], walk[(j + 1) % m], x), cid, not over_is_i))
    return tuple(tuple((cid, over) for _, cid, over in sorted(seg)) for seg in along)


def _build_diagram(walk, events) -> KnotDiagram:
    """walk: cyclic 2D corner points; events: (i, j, point, over_is_i).

    Arcs run from one under passage to the next along the curve, so a
    passage lies on arc (under passages before it) mod (crossing count), and
    the under strand leaves a crossing on the next arc.
    """
    passes = _passes(walk, events)
    n = len(events)
    over_arc, under_in = [0] * n, [0] * n
    unders = 0
    for seg in passes:
        for cid, over in seg:
            if over:
                over_arc[cid] = unders % n
            else:
                under_in[cid] = unders % n
                unders += 1
    crossings = tuple(
        Crossing(over_arc[c], under_in[c], (under_in[c] + 1) % n, events[c][2]) for c in range(n)
    )
    return KnotDiagram(crossings, max(n, 1), tuple(walk), tuple(events), passes)


def diagram_from_grid(d: GridDiagram) -> KnotDiagram:
    """Diagram of the rendered grid presentation, verticals over horizontals."""
    pts = walk_points(d)
    walk = tuple((Fraction(x), Fraction(y)) for x, y in pts)
    m = len(walk)
    events = []
    # even walk segments are horizontal (rows), odd are vertical (columns)
    for j in range(1, m, 2):
        col = walk[j][0]
        ylo, yhi = sorted((walk[j][1], walk[(j + 1) % m][1]))
        for i in range(0, m, 2):
            row = walk[i][1]
            xlo, xhi = sorted((walk[i][0], walk[(i + 1) % m][0]))
            if xlo < col < xhi and ylo < row < yhi:
                events.append((i, j, (col, row), False))  # vertical (j) over
    return _build_diagram(walk, tuple(events))


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def project(p: ClosedPolyline3, direction) -> KnotDiagram:
    """Exact orthogonal-view diagram of the polyline along ``direction``.

    Segments parallel to the direction collapse to points and are removed
    from the planar walk.  Genericity is checked exactly: no collinear
    overlaps, no touching at segment endpoints, no triple points, no depth
    ties; any violation raises NonGenericProjection naming the pair.

    Decided on integers: with the direction scaled to integers d and ax its
    last nonzero axis, the integer vertex v has the image
    ``(v[k] * d[ax] - v[ax] * d[k]) * sign(d[ax])`` for the other axes k
    and the depth ``v[ax] * sign(d[ax])``, positive multiples of the view
    coordinates and depth.  A crossing is kept as its parameters along the
    two segments over one common denominator, so touches, depth ties and
    triple points are compared by cross-multiplying.  The diagram is built
    in Fractions only at the end.
    """
    d = tuple(Fraction(c) for c in direction)
    if d == (ZERO, ZERO, ZERO):
        raise ValueError("direction must be nonzero")
    ax = next(k for k in (2, 1, 0) if d[k] != 0)
    k0, k1 = (k for k in range(3) if k != ax)
    scale_d = lcm(*(c.denominator for c in d))
    d_ax, d0, d1 = (d[k].numerator * (scale_d // d[k].denominator) for k in (ax, k0, k1))
    sign = 1 if d_ax > 0 else -1
    scale, verts = p.integer_form
    n = len(verts)
    images = [((v[k0] * d_ax - v[ax] * d0) * sign, (v[k1] * d_ax - v[ax] * d1) * sign) for v in verts]
    # segments parallel to the direction collapse; the corners left are
    # the images of the others' starts, and no two neighbours are equal,
    # since a collapsed run has one image at both its ends
    red_seg = [i for i in range(n) if images[i] != images[(i + 1) % n]]
    reduced = [images[i] for i in red_seg]
    m = len(reduced)
    if m < 3:
        raise NonGenericProjection("projection collapses the curve")
    events = []  # (i, j, crossing point times den, den, over_is_i)
    for i, j, (kind, _) in _meets(reduced):
        if kind == "overlap":
            raise NonGenericProjection(f"collinear overlap of segments {i} and {j}")
        if (j == i + 1) or (i == 0 and j == m - 1):
            continue  # can only be the shared corner
        (px, py), (qx, qy) = reduced[i], reduced[(i + 1) % m]
        (cx, cy), (ex, ey) = reduced[j], reduced[(j + 1) % m]
        ux, uy, vx, vy, wx, wy = qx - px, qy - py, ex - cx, ey - cy, cx - px, cy - py
        # the crossing is at s / den along segment i and t / den along j
        den, s, t = ux * vy - uy * vx, wx * vy - wy * vx, wx * uy - wy * ux
        if den < 0:
            den, s, t = -den, -s, -t
        # parallel segments meet in one point only at an end of both
        if den == 0 or s in (0, den) or t in (0, den):
            raise NonGenericProjection(f"segments {i} and {j} touch at an endpoint")
        di = _depth_times(verts, red_seg[i], ax, sign, den, s)
        dj = _depth_times(verts, red_seg[j], ax, sign, den, t)
        if di == dj:
            raise NonGenericProjection(f"depth tie between segments {i} and {j}")
        events.append((i, j, (px * den + ux * s, py * den + uy * s), den, di < dj))
    # the view coordinates are the integer images over scale * |d[ax]|
    unit = scale * abs(d_ax)
    seen = set()
    for (_, _, (x, y), den, _) in events:
        g = gcd(x, y, den)
        key = (x // g, y // g, den // g)  # the point in lowest terms
        if key in seen:
            raise NonGenericProjection(f"triple point at {(Fraction(x, den * unit), Fraction(y, den * unit))}")
        seen.add(key)
    walk = tuple((Fraction(x, unit), Fraction(y, unit)) for x, y in reduced)
    return _build_diagram(walk, tuple(
        (i, j, (Fraction(x, den * unit), Fraction(y, den * unit)), over) for i, j, (x, y), den, over in events
    ))


def _depth_times(verts, seg: int, ax: int, sign: int, den: int, s: int) -> int:
    """Depth of the point s / den along integer segment ``seg``, times den
    and a positive constant."""
    a, b = verts[seg][ax] * sign, verts[(seg + 1) % len(verts)][ax] * sign
    return a * den + s * (b - a)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def generic_directions():
    """Deterministic sequence of candidate view directions.

    Starts with the exact depth axis (collapsing its parallels), then
    near-depth rational shears (q, p, p*q) over increasing prime pairs
    p < q, which are never parallel to an axis segment.
    """
    yield (0, 0, 1)
    for i, p in enumerate(_PRIMES):
        for q in _PRIMES[i + 1:]:
            yield (q, p, p * q)


def project_generic(p: ClosedPolyline3, skip: int = 0) -> tuple[KnotDiagram, tuple]:
    """First generic projection of p (after skipping ``skip`` successes)."""
    successes = 0
    for d in generic_directions():
        try:
            diag = project(p, d)
        except NonGenericProjection:
            continue
        if successes == skip:
            return diag, d
        successes += 1
    raise NonGenericProjection("no generic direction found in the search sequence")


# ---------------------------------------------------------------------------
# invariants from the diagram
# ---------------------------------------------------------------------------

def _bareiss_det(mat) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [row[:] for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _coloring_matrix(d: KnotDiagram):
    """Integer crossing relations: row per crossing, 2*over - in - out = 0."""
    rows = []
    for c in d.crossings:
        row = [0] * d.n_arcs
        row[c.over_arc] += 2
        row[c.under_in] -= 1
        row[c.under_out] -= 1
        rows.append(row)
    return rows


def determinant_minor(d: KnotDiagram) -> int:
    """Knot determinant via the crossing-relation matrix minor.

    This is the Alexander matrix evaluated at -1; deleting one row and one
    column and taking |det| gives the determinant.  Kept independent of
    the Goeritz route as a cross-check.
    """
    if d.crossing_count == 0:
        return 1
    mat = _coloring_matrix(d)
    minor = [row[1:] for row in mat[1:]]
    return abs(_bareiss_det(minor))


def tricolorings(d: KnotDiagram) -> int:
    """Number of Fox 3-colorings: 3**nullity of the relations over GF(3)."""
    if d.crossing_count == 0:
        return 3
    mat = [[v % 3 for v in row] for row in _coloring_matrix(d)]
    rows = len(mat)
    cols = d.n_arcs
    rank = 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if mat[i][c] % 3 != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 if mat[r][c] % 3 == 1 else 2
        mat[r] = [(v * inv) % 3 for v in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c] % 3 != 0:
                f = mat[i][c]
                mat[i] = [(a - f * b) % 3 for a, b in zip(mat[i], mat[r])]
        rank += 1
        r += 1
        if r == rows:
            break
    return 3 ** (cols - rank)


# ---------------------------------------------------------------------------
# Goeritz determinant via the faces of the crossing order
# ---------------------------------------------------------------------------

def _checkerboard(d: KnotDiagram):
    """Faces and checkerboard classes of a diagram with crossings, traced
    from its crossing order alone as a rotation system (Edmonds 1960).

    Piece k of the curve runs from passage k to passage k + 1 of the cyclic
    list of the 2c passages; dart 2k runs along it and dart 2k + 1 back.
    At a crossing with over direction o and under direction u, the darts
    leaving it are, counter-clockwise, +o, +u, -o, -u when u points left of
    o, else +o, -u, -o, +u.  A face is an orbit of "reverse the dart, then
    turn to its clockwise neighbour", and lies left of each of its darts.
    The face left of the curve changes class at every passage; class 0 is
    the unbounded face's.  Returns (face of each dart, class of each face,
    the darts leaving each crossing counter-clockwise from +o).
    """
    walk, m = d.walk, len(d.walk)
    passages = [(i, cid, over) for i, seg in enumerate(d.passes) for cid, over in seg]
    n = len(passages)
    at = {(cid, over): (q, i) for q, (i, cid, over) in enumerate(passages)}
    rings, clockwise = [], [0] * (2 * n)
    for cid in range(d.crossing_count):
        (qo, io), (qu, iu) = at[cid, True], at[cid, False]
        o, u = (sub2(walk[(i + 1) % m], walk[i]) for i in (io, iu))
        plus_u, minus_u = 2 * qu, 2 * ((qu - 1) % n) + 1
        if cross2(o, u) < 0:
            plus_u, minus_u = minus_u, plus_u
        ring = (2 * qo, plus_u, 2 * ((qo - 1) % n) + 1, minus_u)
        rings.append(ring)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            clockwise[b] = a
    # faces are numbered as the walk meets them from walk[0]: dense elimination
    # of the Goeritz minor in this order is about 3x faster on approximants
    face, faces = [None] * (2 * n), 0
    for start in (h % (2 * n) for h in range(-2, 2 * n - 2)):  # walk[0] is on piece n - 1
        h = start
        while face[h] is None:
            face[h] = faces
            h = clockwise[h ^ 1]
        faces = max(faces, face[start] + 1)
    assert faces == d.crossing_count + 2, "crossing order is not a plane diagram"
    # the least corner v is no crossing and lies on the piece ending the
    # passages before it; the unbounded face is right of it on a left turn
    v = min(range(m), key=walk.__getitem__)
    left = cross2(sub2(walk[v], walk[v - 1]), sub2(walk[(v + 1) % m], walk[v])) > 0
    outer = 2 * sum(map(len, d.passes[:v])) - 2 + left
    color = [None] * faces
    for h in range(2 * n):
        c = (h // 2 + h + outer // 2 + outer) % 2  # (piece + side) mod 2, 0 on the outer dart
        assert color[face[h]] in (None, c), "faces are not checkerboard colourable"
        color[face[h]] = c
    return face, color, rings


def determinant(d: KnotDiagram, color_class: int = 0) -> int:
    """Knot determinant as |det| of a Goeritz matrix of the diagram.

    ``color_class`` selects which checkerboard class indexes the matrix
    (0 = the class of the unbounded face); both classes give the same
    value, which the tests exploit.
    """
    if d.crossing_count == 0:
        return 1
    face, color, rings = _checkerboard(d)
    incid = []  # per crossing: (face_a, face_b, eta) over the chosen class
    for ring in rings:
        f_swept, f_other, f_swept_op, f_other_op = (face[h] for h in ring)
        assert color[f_swept] == color[f_swept_op] != color[f_other] == color[f_other_op]
        if color[f_swept] == color_class:
            incid.append((f_swept, f_swept_op, 1))
        else:
            incid.append((f_other, f_other_op, -1))
    regions = [f for f, c in enumerate(color) if c == color_class]
    index = {f: k for k, f in enumerate(regions)}
    nw = len(regions)
    g = [[0] * nw for _ in range(nw)]
    for fa, fb, eta in incid:
        ia, ib = index[fa], index[fb]
        if ia == ib:
            continue
        g[ia][ib] -= eta
        g[ib][ia] -= eta
    for k in range(nw):
        g[k][k] = -sum(g[k][t] for t in range(nw) if t != k)
    minor = [row[1:] for row in g[1:]]
    return abs(_bareiss_det(minor))
