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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import lcm

from .geometry import Point2, Point3, box_meet, cross2, dot2, seg_seg_2d, seg_seg_3d, sub2
from .grid import GridDiagram, walk_points
from .polyline import ClosedPolyline3

ZERO = Fraction(0)


class NonGenericProjection(ValueError):
    """Raised when a projection direction fails an exact genericity check."""


# ---------------------------------------------------------------------------
# simplicity
# ---------------------------------------------------------------------------

def _meets(walk):
    """(i, j, meet) for every pair i < j of segments of a closed walk that meet.

    Segment i joins walk[i] to walk[i + 1] (mod n), in 2D or 3D.  ``meet`` is
    ("point", p) or ("overlap", (p, q)), as from ``seg_seg_3d``/``seg_seg_2d``.
    The walk is scaled once to integers; two axis-parallel segments meet in
    the intersection of their boxes, every other pair goes through the exact
    Fraction routine.
    """
    n = len(walk)
    scale = lcm(*(c.denominator for v in walk for c in v))
    ints = [tuple(c.numerator * (scale // c.denominator) for c in v) for v in walk]
    boxes = [
        (tuple(map(min, a, b)), tuple(map(max, a, b)))
        if sum(s != t for s, t in zip(a, b)) == 1 else None
        for a, b in zip(ints, ints[1:] + ints[:1])
    ]
    seg_seg = seg_seg_3d if len(walk[0]) == 3 else seg_seg_2d
    for i in range(n):
        box_i = boxes[i]
        for j in range(i + 1, n):
            box_j = boxes[j]
            if box_i is None or box_j is None:
                meet = seg_seg(walk[i], walk[(i + 1) % n], walk[j], walk[(j + 1) % n])
                if meet is not None:
                    yield i, j, meet
                continue
            hit = box_meet(box_i, box_j)
            if hit is None:
                continue
            lo, hi = (tuple(Fraction(c, scale) for c in corner) for corner in hit)
            yield i, j, ("point", lo) if hit[0] == hit[1] else ("overlap", (lo, hi))


def is_simple(p: ClosedPolyline3) -> bool:
    """Exact: no two non-adjacent segments meet; adjacent ones meet only at
    the shared vertex."""
    verts = p.vertices
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
    sign: int
    point: Point2


@dataclass(frozen=True)
class KnotDiagram:
    """Combinatorial diagram of a knot plus the planar walk that drew it.

    ``walk`` is the cyclic list of corner points of the projected curve;
    ``events`` lists the crossings as (segment_i, segment_j, point,
    over_is_i).  Both are retained so the face arrangement can be rebuilt
    for the Goeritz computation.
    """

    crossings: tuple[Crossing, ...]
    n_arcs: int
    source: str
    walk: tuple[Point2, ...] = field(repr=False)
    events: tuple = field(repr=False)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


def _segment_param(a: Point2, b: Point2, x: Point2) -> Fraction:
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx != 0:
        return (x[0] - a[0]) / dx
    return (x[1] - a[1]) / dy


def _build_diagram(walk, events, source) -> KnotDiagram:
    """walk: cyclic 2D corner points; events: (i, j, point, over_is_i)."""
    m = len(walk)
    if not events:
        return KnotDiagram((), 1, source, tuple(walk), ())
    # passages: (position along the cyclic curve, crossing id, is_over, seg index)
    per_seg = [[] for _ in range(m)]
    for cid, (i, j, x, over_is_i) in enumerate(events):
        a_i, b_i = walk[i], walk[(i + 1) % m]
        a_j, b_j = walk[j], walk[(j + 1) % m]
        per_seg[i].append((_segment_param(a_i, b_i, x), cid, over_is_i))
        per_seg[j].append((_segment_param(a_j, b_j, x), cid, not over_is_i))
    passages = []  # (crossing id, is_over) in curve order
    for i in range(m):
        for t, cid, over in sorted(per_seg[i], key=lambda e: e[0]):
            passages.append((cid, over))
    n_pass = len(passages)
    unders = [q for q, (cid, over) in enumerate(passages) if not over]
    n_arcs = len(unders)
    # arc id for each passage position: arcs are the open runs between unders;
    # run after unders[r] (exclusive) up to unders[r+1] (inclusive) gets id r+1 mod n_arcs
    arc_at = [None] * n_pass
    for r in range(n_arcs):
        start = unders[r]
        end = unders[(r + 1) % n_arcs]
        q = (start + 1) % n_pass
        while True:
            arc_at[q] = (r + 1) % n_arcs
            if q == end:
                break
            q = (q + 1) % n_pass
    over_arc = {}
    under_in = {}
    under_out = {}
    for q, (cid, over) in enumerate(passages):
        if over:
            over_arc[cid] = arc_at[q]
        else:
            under_in[cid] = arc_at[q]
            under_out[cid] = (arc_at[q] + 1) % n_arcs
    crossings = []
    for cid, (i, j, x, over_is_i) in enumerate(events):
        oi, oj = (i, j) if over_is_i else (j, i)
        o_dir = sub2(walk[(oi + 1) % m], walk[oi])
        u_dir = sub2(walk[(oj + 1) % m], walk[oj])
        sign = 1 if cross2(o_dir, u_dir) > 0 else -1
        crossings.append(Crossing(over_arc[cid], under_in[cid], under_out[cid], sign, x))
    return KnotDiagram(tuple(crossings), n_arcs, source, tuple(walk), tuple(events))


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
    return _build_diagram(walk, tuple(events), "grid")


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def _projection_maps(direction):
    d = tuple(Fraction(c) for c in direction)
    if d == (ZERO, ZERO, ZERO):
        raise ValueError("direction must be nonzero")
    for ax in (2, 1, 0):
        if d[ax] != 0:
            break
    keep = [i for i in range(3) if i != ax]

    def proj(v: Point3) -> Point2:
        t = v[ax] / d[ax]
        return (v[keep[0]] - t * d[keep[0]], v[keep[1]] - t * d[keep[1]])

    def depth(v: Point3) -> Fraction:
        return v[ax] / d[ax]

    return proj, depth


def project(p: ClosedPolyline3, direction) -> KnotDiagram:
    """Exact orthogonal-view diagram of the polyline along ``direction``.

    Segments parallel to the direction collapse to points and are removed
    from the planar walk.  Genericity is checked exactly: no collinear
    overlaps, no touching at segment endpoints, no triple points, no depth
    ties; any violation raises NonGenericProjection naming the pair.
    """
    proj, depth = _projection_maps(direction)
    verts = p.vertices
    n = len(verts)
    images = [proj(v) for v in verts]
    walk = []
    seg_of = []  # original segment index for each reduced segment
    for i in range(n):
        if images[i] == images[(i + 1) % n]:
            continue  # collapsed: parallel to direction
        walk.append(images[i])
        seg_of.append(i)
    # merge consecutive equal walk corners produced by collapses
    reduced = []
    red_seg = []
    for q in range(len(walk)):
        if reduced and walk[q] == reduced[-1]:
            continue
        reduced.append(walk[q])
        red_seg.append(seg_of[q])
    if len(reduced) >= 2 and reduced[0] == reduced[-1]:
        reduced.pop()
        red_seg.pop()
    m = len(reduced)
    if m < 3:
        raise NonGenericProjection("projection collapses the curve")
    # reduced walk segment q: reduced[q] -> reduced[q+1], drawn by original
    # segment red_seg... the original non-collapsed segment whose image starts
    # at reduced[q]; its endpoints give the depth interpolation.
    events = []
    for i, j, (kind, x) in _meets(reduced):
        if kind == "overlap":
            raise NonGenericProjection(f"collinear overlap of segments {i} and {j}")
        if (j == i + 1) or (i == 0 and j == m - 1):
            continue  # can only be the shared corner
        if x in (reduced[i], reduced[(i + 1) % m], reduced[j], reduced[(j + 1) % m]):
            raise NonGenericProjection(f"segments {i} and {j} touch at an endpoint")
        di = _depth_at(p, red_seg[i], proj, depth, x)
        dj = _depth_at(p, red_seg[j], proj, depth, x)
        if di == dj:
            raise NonGenericProjection(f"depth tie between segments {i} and {j}")
        events.append((i, j, x, di < dj))
    seen = {}
    for (i, j, x, _) in events:
        if x in seen:
            raise NonGenericProjection(f"triple point at {x}")
        seen[x] = (i, j)
    return _build_diagram(tuple(reduced), tuple(events), "projection")


def _depth_at(p: ClosedPolyline3, orig_seg: int, proj, depth, x: Point2) -> Fraction:
    a = p.vertices[orig_seg]
    b = p.vertices[(orig_seg + 1) % len(p.vertices)]
    pa, pb = proj(a), proj(b)
    t = _segment_param(pa, pb, x)
    return depth(a) + t * (depth(b) - depth(a))


def _primes():
    yield from (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def generic_directions():
    """Deterministic sequence of candidate view directions.

    Starts with the exact depth axis (collapsing its parallels), then
    near-depth rational shears (q, p, p*q) over increasing prime pairs
    p < q, which are never parallel to an axis segment.
    """
    yield (0, 0, 1)
    ps = list(_primes())
    for i in range(len(ps) - 1):
        for j in range(i + 1, len(ps)):
            yield (ps[j], ps[i], ps[i] * ps[j])


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
# Goeritz determinant via the face arrangement
# ---------------------------------------------------------------------------

def _dir_cmp(d1, d2):
    """CCW angular order starting just above the +x axis."""
    def half(d):
        return 0 if (d[1] > 0 or (d[1] == 0 and d[0] > 0)) else 1

    h1, h2 = half(d1), half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    c = cross2(d1, d2)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


class _Arrangement:
    """Planar subdivision of the diagram walk split at crossing points."""

    def __init__(self, d: KnotDiagram):
        m = len(d.walk)
        splits = [[] for _ in range(m)]
        for (i, j, x, _) in d.events:
            a_i, b_i = d.walk[i], d.walk[(i + 1) % m]
            a_j, b_j = d.walk[j], d.walk[(j + 1) % m]
            splits[i].append((_segment_param(a_i, b_i, x), x))
            splits[j].append((_segment_param(a_j, b_j, x), x))
        edges = []
        for i in range(m):
            pts = [d.walk[i]]
            for _, x in sorted(splits[i], key=lambda e: e[0]):
                pts.append(x)
            pts.append(d.walk[(i + 1) % m])
            for a, b in zip(pts, pts[1:]):
                edges.append((a, b))
        self.edges = edges
        # half-edges: (point_from, point_to); twin = reversed
        out = {}
        for a, b in edges:
            out.setdefault(a, []).append(b)
            out.setdefault(b, []).append(a)
        for v, nbrs in out.items():
            nbrs.sort(key=cmp_to_key(lambda p, q: _dir_cmp(sub2(p, v), sub2(q, v))))
            for p, q in zip(nbrs, nbrs[1:]):
                if sub2(p, v) == sub2(q, v):
                    raise ValueError("overlapping edges at a vertex")
        self.out = out
        self._build_faces()

    def _next_halfedge(self, h):
        a, b = h
        nbrs = self.out[b]
        back = a
        idx = nbrs.index(back)
        return (b, nbrs[(idx - 1) % len(nbrs)])

    def _build_faces(self):
        face_of = {}
        faces = []
        for a, b in self.edges:
            for h in ((a, b), (b, a)):
                if h in face_of:
                    continue
                fid = len(faces)
                cycle = []
                cur = h
                while cur not in face_of:
                    face_of[cur] = fid
                    cycle.append(cur)
                    cur = self._next_halfedge(cur)
                faces.append(cycle)
        self.face_of = face_of
        self.faces = faces
        areas = []
        for cycle in faces:
            s = ZERO
            for (a, b) in cycle:
                s += cross2(a, b)
            areas.append(s / 2)
        self.areas = areas
        negs = [i for i, s in enumerate(areas) if s < 0]
        if len(negs) != 1:
            raise ValueError("arrangement is not a single connected diagram")
        self.outer = negs[0]

    def two_coloring(self):
        """0/1 colors per face, alternating across every edge; outer gets 0."""
        nf = len(self.faces)
        color = [None] * nf
        color[self.outer] = 0
        stack = [self.outer]
        adj = [[] for _ in range(nf)]
        for a, b in self.edges:
            f1 = self.face_of[(a, b)]
            f2 = self.face_of[(b, a)]
            adj[f1].append(f2)
            adj[f2].append(f1)
        while stack:
            f = stack.pop()
            for g in adj[f]:
                if color[g] is None:
                    color[g] = 1 - color[f]
                    stack.append(g)
                elif color[g] == color[f]:
                    raise ValueError("diagram faces are not checkerboard colorable")
        return color


def determinant(d: KnotDiagram, color_class: int = 0) -> int:
    """Knot determinant as |det| of a Goeritz matrix of the diagram.

    ``color_class`` selects which checkerboard class indexes the matrix
    (0 = the class of the unbounded face); both classes give the same
    value, which the tests exploit.
    """
    if d.crossing_count == 0:
        return 1
    arr = _Arrangement(d)
    color = arr.two_coloring()
    m = len(d.walk)
    incid = []  # per crossing: (face_a, face_b, eta) over the chosen class
    for (i, j, x, over_is_i) in d.events:
        oi, oj = (i, j) if over_is_i else (j, i)
        o = sub2(d.walk[(oi + 1) % m], d.walk[oi])
        u = sub2(d.walk[(oj + 1) % m], d.walk[oj])
        if cross2(o, u) < 0:
            u = (-u[0], -u[1])
        h_o = _outgoing_along(arr, x, o)
        h_no = _outgoing_along(arr, x, (-o[0], -o[1]))
        h_u = _outgoing_along(arr, x, u)
        h_nu = _outgoing_along(arr, x, (-u[0], -u[1]))
        f_swept = arr.face_of[h_o]
        f_swept_op = arr.face_of[h_no]
        f_other = arr.face_of[h_u]
        f_other_op = arr.face_of[h_nu]
        assert color[f_swept] == color[f_swept_op] != color[f_other] == color[f_other_op]
        if color[f_swept] == color_class:
            incid.append((f_swept, f_swept_op, 1))
        else:
            incid.append((f_other, f_other_op, -1))
    regions = sorted({f for i, (fa, fb, _) in enumerate(incid) for f in (fa, fb)}
                     | {i for i, c in enumerate(color) if c == color_class})
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


def _outgoing_along(arr: _Arrangement, v: Point2, direction: Point2):
    for w in arr.out[v]:
        d = sub2(w, v)
        if cross2(d, direction) == 0 and dot2(d, direction) > 0:
            return (v, w)
    raise ValueError(f"no outgoing edge at {v} along {direction}")
