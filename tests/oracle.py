"""The test oracles, and the test-only helpers the tests share.

The tests check the package against the oracles here; ``build``,
``verify`` and ``predicate`` never import this module, so the package
holds only what a command runs.  The package's source rules
(``test_source_rules.py``) hold here too.

* The subdivision oracle decides membership by literal recursive
  subdivision and shares no code with the digit predicates of
  ``spongeknots.ternary``, which it exists to check.
* ``determinant_minor`` is the second determinant route: |det| of a minor
  of the crossing relations, independent of the Goeritz route of
  ``invariants.determinant`` at the matrix level.
* ``limit_point`` builds one pearl per word, the per-word reference that
  ``necklace.pearls_by_word`` is checked against; ``invert_point`` is the
  point inversion ``invert_pearl`` generalises.
* ``summand_ledger``, ``neighborhood_census`` and ``clearance`` state the
  necklace and wild-point claims that no report states yet.
* The rest rebuild, from what the commands run, conveniences the tests
  use: a curve and a cube from rationals, an embedding into a sponge
  cube, one splice, a site's edge, the Cantor endpoints, and a few cube
  and segment predicates.
"""

from fractions import Fraction
from itertools import chain, product
from math import lcm

from spongeknots.embed import check_surviving_cube, cube_edge, embed_into_box
from spongeknots.geometry import ZERO, Cube, Point3, add3, frac, scale3, sub3
from spongeknots.invariants import KnotDiagram, _sparse_det, crossing_relations
from spongeknots.necklace import Necklace, Pearl, invert_pearl
from spongeknots.polyline import ClosedPolyline3, IntegerForm
from spongeknots.ternary import AxisSegment, TernaryExpansion, _index_of_digits, cantor_numerators
from spongeknots.wildknot import Approximant, _splice_sites

# ---------------------------------------------------------------------------
# membership by literal subdivision
# ---------------------------------------------------------------------------

# removed child offsets, written out literally per construction: middle
# third; central square; central cube plus the six face-center cubes;
# central cube only
_REMOVED = {
    "cantor": frozenset({(1,)}),
    "carpet_face": frozenset({(1, 1)}),
    "sponge": frozenset(
        {
            (1, 1, 1),  # central cube
            (0, 1, 1), (2, 1, 1),  # face centers, x faces
            (1, 0, 1), (1, 2, 1),  # face centers, y faces
            (1, 1, 0), (1, 1, 2),  # face centers, z faces
        }
    ),
    "carpet2": frozenset({(1, 1, 1)}),
}


def oracle_profile(point, kmax: int, space: str) -> list[bool]:
    """Stage 0..kmax membership verdicts by one literal subdivision descent:
    subdivide each surviving cell into 3, 9 or 27 children, delete the
    interiors the construction removes, and descend into every closed child
    containing the query point."""
    if space not in _REMOVED:
        raise ValueError(f"unknown space: {space}")
    if kmax < 0:
        raise ValueError("stage must be >= 0")
    removed = _REMOVED[space]
    dim = len(next(iter(removed)))
    coords = tuple(frac(c) for c in point)
    if len(coords) != dim:
        raise ValueError(f"{space} expects {dim} coordinates")
    for c in coords:
        if not (0 <= c <= 1):
            raise ValueError("point outside the unit cell")

    nums = [c.numerator for c in coords]
    dens = [c.denominator for c in coords]
    # a cell at depth t is the per-axis index tuple of [i/3^t, (i+1)/3^t]
    profile = [True]
    alive = {(0,) * dim}
    scale = 1
    for _ in range(kmax):
        scale *= 3
        nxt = set()
        for cell in alive:
            child_axis_options = []
            for ax in range(dim):
                base = cell[ax] * 3
                opts = []
                for o in range(3):
                    i = base + o
                    # closed containment: i/scale <= c <= (i+1)/scale
                    t = nums[ax] * scale
                    if i * dens[ax] <= t <= (i + 1) * dens[ax]:
                        opts.append(i)
                child_axis_options.append(opts)
            for child in product(*child_axis_options):
                offs = tuple(child[ax] - cell[ax] * 3 for ax in range(dim))
                if offs not in removed:
                    nxt.add(child)
        profile.append(bool(nxt))
        if not nxt:
            profile.extend([False] * (kmax - len(profile) + 1))
            break
        alive = nxt
    return profile


def subdivision_oracle(point, k: int, space: str) -> bool:
    """Membership of a rational point in the stage-k prefractal.

    ``point`` is a tuple of rationals matching the dimension of ``space``
    (1 for cantor, 2 for carpet_face, 3 for sponge/carpet2).
    """
    return oracle_profile(point, k, space)[k]


# ---------------------------------------------------------------------------
# the second determinant route
# ---------------------------------------------------------------------------

def determinant_minor(d: KnotDiagram) -> int:
    """Knot determinant via the crossing-relation matrix minor.

    This is the Alexander matrix evaluated at -1; deleting one row and one
    column and taking |det| gives the determinant.  Kept independent of
    the Goeritz route as a cross-check.
    """
    if d.crossing_count == 0:
        return 1
    # the relations of crossings 1.. over arcs 1..
    return _sparse_det([{arc: v for arc, v in row.items() if arc} for row in crossing_relations(d)[1:]])


# ---------------------------------------------------------------------------
# necklaces
# ---------------------------------------------------------------------------

def invert_point(b: Pearl, x) -> Point3:
    """Reflection through the pearl boundary: c + r^2 (x-c)/|x-c|^2."""
    x = tuple(frac(c) for c in x)
    d = sub3(x, b.center)
    dd = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    if dd == 0:
        raise ValueError("cannot invert the center of the sphere")
    return add3(b.center, scale3(d, b.radius_sq / dd))


def limit_point(t: Necklace, word) -> tuple[Point3, Fraction]:
    """Center and squared-radius bound of the pearl addressed by a reduced
    word; nested-ball certificate for the limit-set point of that address."""
    word = tuple(int(w) for w in word)
    if not word:
        raise ValueError("word must have length >= 1")
    for a, b in zip(word, word[1:]):
        if a == b:
            raise ValueError("word is not reduced")
    base = {p.word[0]: p for p in t.pearls}
    if any(w not in base for w in word):
        raise ValueError("word uses an unknown generator")
    pearl = base[word[-1]]
    for j in reversed(word[:-1]):
        pearl = invert_pearl(base[j], pearl)
    return pearl.center, pearl.radius_sq


def summand_ledger(n: int, m: int):
    """Connected-summand counts per stage for an n-pearl necklace knot K.

    Stage q adds n(n-1)^(q-1) summands whose chirality follows word-length
    parity: odd words contribute mirror copies, even words plain copies.
    Returns per-stage increments and cumulative (plain, mirror) totals,
    with the seed knot counted once at stage 0.
    """
    if n < 3:
        raise ValueError("necklaces need n >= 3 pearls")
    if m < 0:
        raise ValueError("stage must be >= 0")
    stages = []
    plain, mirror = 1, 0  # the seed knot itself
    for q in range(1, m + 1):
        added = n * (n - 1) ** (q - 1)
        if q % 2 == 1:
            mirror += added
            stages.append({"stage": q, "added": added, "chirality": "mirror"})
        else:
            plain += added
            stages.append({"stage": q, "added": added, "chirality": "plain"})
    return {"plain": plain, "mirror": mirror, "total": plain + mirror, "stages": stages}


# ---------------------------------------------------------------------------
# wild points
# ---------------------------------------------------------------------------

def max_dist_sq(cube: Cube, p: Point3) -> Fraction:
    """Squared distance from p to the farthest point of the cube."""
    corner, side = cube_rationals(cube)
    total = ZERO
    for i in range(3):
        lo = corner[i]
        hi = lo + side
        total += max(abs(p[i] - lo), abs(p[i] - hi)) ** 2
    return total


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
        if e.nontrivial and e.spliced and max_dist_sq(e.cube, p) <= r2
    )


def clearance(a: Approximant, p) -> Fraction:
    """Smallest censusable radius at p: min over nontrivial cubes of the
    farthest-corner distance, returned squared (exact)."""
    dists = [max_dist_sq(e.cube, tuple(frac(c) for c in p)) for e in a.ledger if e.nontrivial]
    if not dists:
        raise ValueError("no nontrivial summands in the ledger")
    return min(dists)


# ---------------------------------------------------------------------------
# conveniences rebuilt from what the commands run
# ---------------------------------------------------------------------------

def closed_polyline(points, marks=None) -> ClosedPolyline3:
    """The curve through rational points, each coordinate read by ``frac``:
    the scale is the lcm of the distinct denominators."""
    rows = [[frac(c) for c in p] for p in points]
    scale = lcm(*{c.denominator for c in chain.from_iterable(rows)})
    form = tuple(tuple(c.numerator * (scale // c.denominator) for c in row) for row in rows)
    return ClosedPolyline3(IntegerForm(scale, form), dict(marks or {}))


def cube_of(corner, side) -> Cube:
    """The cube of a rational corner and side, each read by ``frac``: the
    scale is the lcm of their denominators."""
    values = [frac(c) for c in (*corner, side)]
    scale = lcm(*{c.denominator for c in values})
    *near, s = (c.numerator * (scale // c.denominator) for c in values)
    return Cube(scale, tuple(near), s)


def cube_rationals(q: Cube):
    """(corner, side) of a cube as Fractions."""
    return tuple(Fraction(c, q.scale) for c in q.corner), Fraction(q.side, q.scale)


def site_edge(site) -> AxisSegment:
    """The site's edge T, the edge of its cube its orientation names, as a
    segment of Fractions."""
    ax, fixed, lo, hi = cube_edge(site.cube, site.orientation)
    s = site.cube.scale
    return AxisSegment(ax, tuple(Fraction(c, s) for c in fixed), Fraction(lo, s), Fraction(hi, s))


def embed_into_cube(d, q: Cube, orientation: str = "y-edge", k: int | None = None) -> ClosedPolyline3:
    """Embed into a surviving sponge cube; containment then holds in M_(s+k)."""
    s = check_surviving_cube(q)
    poly = embed_into_box(d, q, orientation, k)
    poly.marks["sponge_stage"] = s + poly.marks["stage"]
    return poly


def splice(base: ClosedPolyline3, site, summand: ClosedPolyline3) -> ClosedPolyline3:
    """Connected sum of base and summand at one site: the one-site case of
    ``wildknot._splice_sites``, with its rules and its errors."""
    return _splice_sites(base, [(site, summand)])


def cantor_endpoints(k: int) -> list[Fraction]:
    """The 2**(k+1) interval endpoints of the stage-k Cantor construction."""
    return [Fraction(c, 3**k) for c in cantor_numerators(k)]


def axis_form(a: Point3, b: Point3):
    """(axis, fixed_coords, lo, hi) when the segment is axis-parallel, else None.

    ``fixed_coords`` are the other two coordinates in axis order and the
    running coordinate spans [lo, hi].
    """
    diffs = [i for i in range(3) if a[i] != b[i]]
    if len(diffs) != 1:
        return None
    ax = diffs[0]
    lo, hi = (a[ax], b[ax]) if a[ax] <= b[ax] else (b[ax], a[ax])
    fixed = tuple(a[i] for i in range(3) if i != ax)
    return (ax, fixed, lo, hi)


def segment_from_endpoints(a, b) -> AxisSegment:
    form = axis_form(a, b)
    if form is None:
        raise ValueError("segment is not axis-aligned")
    return AxisSegment(*form)


def segment_endpoints(seg: AxisSegment):
    a = list(seg.fixed)
    a.insert(seg.axis, seg.lo)
    b = list(seg.fixed)
    b.insert(seg.axis, seg.hi)
    return tuple(a), tuple(b)


def expansion_value(e: TernaryExpansion) -> Fraction:
    """The rational 0.(preperiod)(period)^inf."""
    pre, per = e.preperiod, e.period
    scale = 3 ** len(pre)
    tail = Fraction(_index_of_digits(per), 3 ** len(per) - 1)
    return (_index_of_digits(pre) + tail) / scale


def contains_point(cube: Cube, p: Point3) -> bool:
    corner, side = cube_rationals(cube)
    return all(corner[i] <= p[i] <= corner[i] + side for i in range(3))


def interiors_meet(cube: Cube, other: Cube) -> bool:
    (c, s), (d, t) = cube_rationals(cube), cube_rationals(other)
    for i in range(3):
        if c[i] + s <= d[i]:
            return False
        if d[i] + t <= c[i]:
            return False
    return True
