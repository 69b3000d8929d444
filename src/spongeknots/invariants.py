"""Independent verification oracle for the geometric constructions.

Provides exact simplicity testing for closed 3D polylines, exact generic
projection to planar knot diagrams, and two independently implemented
knot invariants:

* ``determinant`` -- |det| of a Goeritz matrix read off a checkerboard
  coloring of the diagram's face arrangement;
* ``tricolorings`` -- the number of Fox 3-colorings, from the nullity of
  the crossing relations (``crossing_relations``) over GF(3).

The second determinant route, |det| of a minor of the crossing relations,
is a test reference that reads the same relations.

Every decision here is exact integer arithmetic on the curves' integer forms.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .geometry import box_meet, cross2, running_axis, sub2
from .grid import GridDiagram, walk_points
from .polyline import ClosedPolyline3


class NonGenericProjection(ValueError):
    """Raised when a projection direction fails an exact genericity check."""


# ---------------------------------------------------------------------------
# simplicity
# ---------------------------------------------------------------------------

def _axis_meets(boxes, axes):
    """(i, j) with i < j for the axis-parallel segments i and j whose boxes
    meet, but for perpendicular neighbours, which meet only at their shared
    vertex.  ``boxes[i]`` is segment i's box, its ends in order, and
    ``axes[i]`` the axis it runs along, None for an oblique segment.

    Collinear segments are bucketed by their line and paired along it in
    order of ``lo``; neighbours among them are kept, since a fold-back is
    an overlap.  Perpendicular ones, along axes a < b that both carry
    segments, can meet only at one value of the remaining coordinate; each
    such group is swept along a, keeping the b-coordinates of the
    a-segments that span the sweep position in a sorted list, and each
    b-segment queries its span of that list.  At one position inserts come
    before queries and queries before removals, since segments are closed.
    O(n log n + hits) comparisons for n segments; each ``insort`` and
    ``del`` also moves O(active) list entries.
    """
    n = len(boxes)
    by_axis = defaultdict(list)  # axis -> segments running along it
    for i, ax in enumerate(axes):
        if ax is not None:
            by_axis[ax].append(i)
    pairs = []
    for ax, segs in by_axis.items():
        lines = defaultdict(list)  # fixed coordinates -> [(lo, hi, i)]
        for i in segs:
            lo, hi = boxes[i]
            lines[lo[:ax] + lo[ax + 1:]].append((lo[ax], hi[ax], i))
        for line in lines.values():
            line.sort()
            for k, (_, hi, i) in enumerate(line):
                for t in range(k + 1, len(line)):
                    lo_j, _, j = line[t]
                    if lo_j > hi:
                        break
                    pairs.append((i, j) if i < j else (j, i))
    for a, b in combinations(sorted(by_axis), 2):
        rest = 3 - a - b  # the remaining axis of a 3D walk
        groups = defaultdict(list)  # remaining coordinate -> [(a-coordinate, kind, ...)]
        for i in by_axis[a]:  # spans a at b-coordinate lo[b]: insert (kind 0), then remove (kind 2)
            lo, hi = boxes[i]
            events = groups[lo[rest] if rest < len(lo) else None]
            key = lo[b] * n + i
            events.append((lo[a], 0, key))
            events.append((hi[a], 2, key))
        for i in by_axis[b]:  # sits at a-coordinate lo[a], spans b: query (kind 1)
            lo, hi = boxes[i]
            groups[lo[rest] if rest < len(lo) else None].append((lo[a], 1, lo[b] * n, (hi[b] + 1) * n, i))
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
                        if (i - j) % n not in (1, n - 1):  # perpendicular neighbours are dropped
                            pairs.append((i, j) if i < j else (j, i))
    return pairs


def _oblique_partners(bounds, axes):
    """(i, j) with i < j for every two segments, i or j oblique
    (``axes[k]`` None), whose bounding boxes ``bounds`` overlap along the
    first axis.

    Segments are swept in order of their low end along that axis, keeping
    the oblique and the axis-parallel ones whose high end may still reach
    the sweep position in two lists; a segment pairs with the oblique ones
    still active and, when it is oblique itself, with the axis-parallel
    ones.  Each list drops its ended segments as it is read, so the sweep
    costs O(n log n + pairs).
    """
    pairs = []
    active = ([], [])  # axis-parallel, oblique
    for k in sorted(range(len(bounds)), key=lambda k: bounds[k][0][0]):
        x = bounds[k][0][0]
        oblique = axes[k] is None
        for group in active if oblique else active[1:]:
            group[:] = [j for j in group if bounds[j][1][0] >= x]
            pairs += [(j, k) if j < k else (k, j) for j in group]
        active[oblique].append(k)
    return pairs


def _cross(u, v):
    """Cross product of integer vectors: its three components in 3D, its
    one (the z-component) in 2D."""
    if len(u) == 2:
        return (u[0] * v[1] - u[1] * v[0],)
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return sum(map(mul, u, v))


def _meet(a, b, c, d):
    """How the integer segments [a, b] and [c, d], in 2D or 3D, meet: None,
    "overlap", or (den, s, t) with den > 0 when they meet in one point,
    which lies s / den along [a, b] and t / den along [c, d].

    Decided by integer cross and dot products (de Berg et al.,
    *Computational Geometry*, ch. 2).  With u = b - a, v = d - c,
    w = c - a and n = u x v: lines that are not parallel meet, in 3D only
    when w . n = 0, at s / den = (w x v) . n / n . n and
    t / den = (w x u) . n / n . n.  Parallel segments meet only when w is
    parallel to u as well, and are then compared along u.
    """
    u, v, w = (tuple(q - p for p, q in zip(*e)) for e in ((a, b), (c, d), (a, c)))
    n = _cross(u, v)
    if any(n):
        if len(n) == 3 and _dot(w, n):
            return None  # skew lines
        den, s, t = _dot(n, n), _dot(_cross(w, v), n), _dot(_cross(w, u), n)
        return (den, s, t) if 0 <= s <= den and 0 <= t <= den else None
    if any(_cross(w, u)):
        return None  # parallel lines apart
    # one line: c and d lie tc / uu and td / uu along [a, b]
    uu, tc = _dot(u, u), _dot(w, u)
    td = tc + _dot(v, u)
    lo, hi = min(tc, td), max(tc, td)
    if hi < 0 or lo > uu:
        return None
    if hi > 0 and lo < uu:
        return "overlap"
    # end to end, at a (hi = 0) or at b (lo = uu), where c sits when tc is 0 or uu
    return 1, int(lo == uu), int(tc not in (0, uu))


def _meets(walk):
    """(i, j, meet) for the pairs i < j of segments of a closed integer walk
    that overlap or meet away from a shared vertex, in order of i, then j.

    Segment i joins walk[i] to walk[i + 1] (mod n), in 2D or 3D, and every
    coordinate is an int.  ``meet`` is "overlap", or (den, s, t) as from
    ``_meet`` for a pair that meets in one point.  Neighbours share a
    vertex and meet in one point only there, so they are yielded only when
    they overlap.  The candidate pairs, found by ``_axis_meets`` and
    ``_oblique_partners``, are sorted once into one list.  The axis-parallel
    pairs among them meet in the intersection of their boxes, an integer
    box; ``_meet`` is asked only for the parameters of a point hit of
    non-neighbours.  A pair with an oblique segment goes through ``_meet``
    only when their bounding boxes meet (closed segments that meet have
    meeting boxes).  Pairs are decided one at a time, so a caller that
    stops at its first bad pair skips the rest.
    """
    n = len(walk)
    ends = list(zip(walk, walk[1:] + walk[:1]))
    axes = [running_axis(a, b) for a, b in ends]  # None marks an oblique segment
    # an axis-parallel segment is its own box, its ends in order
    bounds = [
        ((a, b) if a < b else (b, a)) if ax is not None else (tuple(map(min, a, b)), tuple(map(max, a, b)))
        for ax, (a, b) in zip(axes, ends)
    ]
    pairs = _axis_meets(bounds, axes)
    if None in axes:
        pairs += _oblique_partners(bounds, axes)
    pairs.sort()
    for i, j in pairs:
        neighbours = j == i + 1 or (i == 0 and j == n - 1)
        hit = box_meet(bounds[i], bounds[j])
        if axes[i] is not None and axes[j] is not None:
            if hit[0] != hit[1]:
                yield i, j, "overlap"
            elif not neighbours:
                yield i, j, _meet(*ends[i], *ends[j])
        elif hit is not None:
            meet = _meet(*ends[i], *ends[j])
            if meet == "overlap" or (meet is not None and not neighbours):
                yield i, j, meet


def is_simple(p: ClosedPolyline3) -> bool:
    """Exact: no two segments overlap and no two non-adjacent ones meet, so
    adjacent ones meet only at their shared vertex.  Decided on the curve's
    integer form."""
    return next(_meets(p.integer_form.points), None) is None


# ---------------------------------------------------------------------------
# knot diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Crossing:
    over_arc: int
    under_in: int
    under_out: int


@dataclass(frozen=True)
class KnotDiagram:
    """Combinatorial diagram of a knot plus the planar walk that drew it.

    ``walk`` is the cyclic list of integer corner points of the drawn curve,
    ``unit`` times its view coordinates; ``events`` lists the crossings as
    (segment_i, segment_j, den, s, t, over_is_i), the crossing lying
    s / den along segment i and t / den along segment j; ``passes[i]``
    lists the (crossing id, passes over) of walk segment i in order along
    it, from which the Goeritz faces are traced.
    """

    crossings: tuple[Crossing, ...]
    n_arcs: int
    walk: tuple = field(repr=False)
    unit: int = field(repr=False)
    events: tuple = field(repr=False)
    passes: tuple = field(repr=False)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


def _passes(m, events):
    """Per segment of an m-segment walk, the (crossing id, passes over) of
    its crossings in order along it, their parameters s / den compared by
    cross-multiplying."""
    along = [[] for _ in range(m)]
    for cid, (i, j, den, s, t, over_is_i) in enumerate(events):
        along[i].append((s, den, cid, over_is_i))
        along[j].append((t, den, cid, not over_is_i))
    order = cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])
    return tuple(tuple((cid, over) for _, _, cid, over in sorted(seg, key=order)) for seg in along)


def _build_diagram(walk, unit, events) -> KnotDiagram:
    """walk: cyclic 2D integer corner points, ``unit`` times the drawn ones;
    events: (i, j, den, s, t, over_is_i).

    Arcs run from one under passage to the next along the curve, so a
    passage lies on arc (under passages before it) mod (crossing count), and
    the under strand leaves a crossing on the next arc.
    """
    passes = _passes(len(walk), events)
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
    crossings = tuple(Crossing(over_arc[c], under_in[c], (under_in[c] + 1) % n) for c in range(n))
    return KnotDiagram(crossings, max(n, 1), tuple(walk), unit, tuple(events), passes)


def diagram_from_grid(d: GridDiagram) -> KnotDiagram:
    """Diagram of the rendered grid presentation, verticals over horizontals."""
    walk = tuple(walk_points(d))
    m = len(walk)
    events = []
    # even walk segments are horizontal (rows), odd are vertical (columns);
    # a row and a column share a corner or cross inside both
    for j in range(1, m, 2):
        for i in range(0, m, 2):
            meet = _meet(walk[i], walk[(i + 1) % m], walk[j], walk[(j + 1) % m])
            if meet is not None and 0 < meet[1] < meet[0] and 0 < meet[2] < meet[0]:
                events.append((i, j, *meet, False))  # vertical (j) over
    return _build_diagram(walk, 1, tuple(events))


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def project(p: ClosedPolyline3, direction) -> KnotDiagram:
    """Exact orthogonal-view diagram of the polyline along ``direction``.

    Segments parallel to the direction collapse to points and are removed
    from the planar walk.  Genericity is checked exactly: no collinear
    overlaps, no touching at segment endpoints, no triple points, no depth
    ties; any violation raises NonGenericProjection naming the pair.

    Decided on integers: with the direction (ints or Fractions) scaled to
    integers d and ax its last nonzero axis, the integer vertex v has the
    image ``(v[k] * d[ax] - v[ax] * d[k]) * sign(d[ax])`` for the other axes
    k and the depth ``v[ax] * sign(d[ax])``, positive multiples of the view
    coordinates and depth.  Each crossing is kept as the parameters
    (den, s, t) ``_meets`` gives it, so touches, depth ties and triple
    points are compared by cross-multiplying, and the diagram keeps the
    integer walk.
    """
    if not any(direction):
        raise ValueError("direction must be nonzero")
    ax = next(k for k in (2, 1, 0) if direction[k] != 0)
    k0, k1 = (k for k in range(3) if k != ax)
    scale_d = lcm(*(c.denominator for c in direction))
    d_ax, d0, d1 = (direction[k].numerator * (scale_d // direction[k].denominator) for k in (ax, k0, k1))
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
    events = []  # (i, j, den, s, t, over_is_i)
    for i, j, meet in _meets(reduced):
        if meet == "overlap":
            raise NonGenericProjection(f"collinear overlap of segments {i} and {j}")
        den, s, t = meet
        if s in (0, den) or t in (0, den):
            raise NonGenericProjection(f"segments {i} and {j} touch at an endpoint")
        di = _depth_times(verts, red_seg[i], ax, sign, den, s)
        dj = _depth_times(verts, red_seg[j], ax, sign, den, t)
        if di == dj:
            raise NonGenericProjection(f"depth tie between segments {i} and {j}")
        events.append((i, j, den, s, t, di < dj))
    # the view coordinates are the integer images over scale * |d[ax]|
    unit = scale * abs(d_ax)
    seen = set()
    for i, _, den, s, _, _ in events:
        (px, py), (qx, qy) = reduced[i], reduced[(i + 1) % m]
        x, y = px * den + (qx - px) * s, py * den + (qy - py) * s
        g = gcd(x, y, den)
        key = (x // g, y // g, den // g)  # the crossing point in lowest terms
        if key in seen:
            raise NonGenericProjection(f"triple point at {(Fraction(x, den * unit), Fraction(y, den * unit))}")
        seen.add(key)
    return _build_diagram(reduced, unit, tuple(events))


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


def project_generic(p: ClosedPolyline3) -> tuple[KnotDiagram, tuple]:
    """First generic projection of p along ``generic_directions``, with its
    direction."""
    for d in generic_directions():
        try:
            return project(p, d), d
        except NonGenericProjection:
            continue
    raise NonGenericProjection("no generic direction found in the search sequence")


# ---------------------------------------------------------------------------
# invariants from the diagram
# ---------------------------------------------------------------------------

def _clear(row, a, pivot, p, cols, i):
    """Clear the pivot column's entry ``a`` from row ``i``, a dict ``row``
    of its nonzeros with that entry already popped: row <- f * row - h *
    pivot, f > 0 and f * a = h * p, where ``pivot`` is the pivot row
    without its pivot entry ``p``.  ``cols`` follows the entries the update
    fills and cancels.  Returns (f, c): the update scales the determinant by
    f, and the row's content c > 0 is divided out of it again."""
    g = gcd(p, a)
    f, h = abs(p) // g, (a if p > 0 else -a) // g
    if f != 1:
        for k in row:
            row[k] *= f
    for k, v in pivot.items():
        w = row.get(k, 0) - h * v
        if w:
            if k not in row:
                cols[k].add(i)
            row[k] = w
        elif k in row:
            del row[k]
            cols[k].discard(i)
    c = 1
    if f != 1 and row:
        c = gcd(*row.values())
        if c != 1:
            for k in row:
                row[k] //= c
    return f, c


def _clear_mod3(row, a, pivot, p, cols, i):
    """``_clear`` over GF(3): row <- row - (a / p) * pivot, mod 3, where
    1 / p = p for p = 1 or 2."""
    h = a * p
    for k, v in pivot.items():
        w = (row.get(k, 0) - h * v) % 3
        if w:
            if k not in row:
                cols[k].add(i)
            row[k] = w
        elif k in row:
            del row[k]
            cols[k].discard(i)


def _eliminate(rows, clear):
    """Gaussian elimination of rows, each a {column: value} dict of its
    nonzeros, that touches only nonzeros; the dicts are consumed.  Yields
    each step's pivot and what ``clear`` returned for each row it cleared,
    one step per unit of rank, and stops when no column has an entry left.

    Each step takes the column with the fewest entries left (minimum
    degree; Markowitz 1957, George and Liu 1989), and in it the row with
    the fewest, ties going to the least index, and clears that column from
    the column's other rows with ``clear`` (``_clear`` on integers,
    ``_clear_mod3`` over GF(3)).
    """
    cols = defaultdict(set)  # column -> rows with an entry there
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    # (-entries, -column) of each column, sorted, so the last is the pivot
    # column; a key whose column has since changed is stale and skipped
    order = sorted((-len(s), -j) for j, s in cols.items())
    while order:
        count, j = order.pop()
        count, j = -count, -j
        if j not in cols or len(cols[j]) != count or count == 0:
            continue
        column = cols.pop(j)
        r = min(column, key=lambda i: (len(rows[i]), i))
        column.remove(r)
        pivot, rows[r] = rows[r], None
        p = pivot.pop(j)
        for k in pivot:
            cols[k].discard(r)
        updates = [clear(rows[i], rows[i].pop(j), pivot, p, cols, i) for i in column]
        for k in pivot:
            insort(order, (-len(cols[k]), -k))
        yield p, updates


def _sparse_det(rows) -> int:
    """|det| of a square integer matrix given by its rows, each a
    {column: value} dict of its nonzeros; the dicts are consumed.

    ``_eliminate`` with fraction-free updates: a row is scaled by f before
    the pivot row is subtracted, and its content c divided out after, so
    |det| = (product of pivots) * (product of c) / (product of f), and 0
    when the rank falls short of the order.
    """
    steps = 0
    pivots = scaled = divided = 1
    for p, updates in _eliminate(rows, _clear):
        steps += 1
        pivots *= p
        for f, c in updates:
            scaled *= f
            divided *= c
    return abs(pivots * divided // scaled) if steps == len(rows) else 0


def crossing_relations(d: KnotDiagram) -> list[dict]:
    """The Fox coloring relation of each crossing, 2 * over - in - out = 0,
    as the {arc: coefficient} dict of its nonzero coefficients."""
    rows = []
    for c in d.crossings:
        row = {}
        for arc, v in ((c.over_arc, 2), (c.under_in, -1), (c.under_out, -1)):
            row[arc] = row.get(arc, 0) + v
        rows.append({arc: v for arc, v in row.items() if v})
    return rows


def _rank_mod3(rows) -> int:
    """Rank over GF(3) of the integer rows, each a {column: value} dict."""
    rows = [{j: v % 3 for j, v in row.items() if v % 3} for row in rows]
    return sum(1 for _ in _eliminate(rows, _clear_mod3))


def tricolorings(d: KnotDiagram) -> int:
    """Number of Fox 3-colorings: 3**nullity of the crossing relations over
    GF(3)."""
    if d.crossing_count == 0:
        return 3
    return 3 ** (d.n_arcs - _rank_mod3(crossing_relations(d)))


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
    the unbounded face's.  The turning senses and the least corner are read
    on the integer walk: a positive scale changes neither.  Returns (face
    of each dart, class of each face, the darts leaving each crossing
    counter-clockwise from +o).
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
    # faces are numbered as the walk meets them from walk[0], the order in which
    # the plane arrangement of the tests numbers them, so the two compare face
    # for face; the elimination's cost does not depend on it
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
    if color_class not in (0, 1):
        raise ValueError(f"color_class must be 0 (the unbounded face's class) or 1, not {color_class!r}")
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
    g = [{} for _ in regions]  # row k: the nonzeros of the Goeritz matrix, by region
    for fa, fb, eta in incid:
        ia, ib = index[fa], index[fb]
        if ia != ib:
            for a, b in ((ia, ib), (ib, ia)):
                row = g[a]
                row[b] = row.get(b, 0) - eta
                row[a] = row.get(a, 0) + eta  # the diagonal is minus the row's other entries
    return _sparse_det([{k: v for k, v in row.items() if k and v} for row in g[1:]])
