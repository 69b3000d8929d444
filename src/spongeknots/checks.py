"""One check suite per artifact kind, shared by ``build`` and ``verify``.

Each suite takes the artifact object alone (as built, or as
``serialize.load_artifact`` returns it) and recomputes every claim from
scratch.  An input the artifact does not store is a keyword argument, by
default derived from the artifact or left out with the checks it feeds.
"""

from __future__ import annotations

import sys
from operator import attrgetter

from .geometry import running_axis
from .grid import KNOT_DETERMINANTS, catalog
from .invariants import determinant, diagram_from_grid, is_simple, project, project_generic
from .necklace import pearl_inside, pearls_by_word, pearls_disjoint
from .squareflake import middle_thirds, replaced_count
from .ternary import triadic_exponent, verify_containment
from .wildknot import sites, sponge_stage_of_ledger


class CheckList:
    """Named pass/fail checks; prints one line each."""

    def __init__(self):
        self.results = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.results.append((name, bool(ok), detail))

    def report(self, out=None):
        for name, ok, detail in self.results:
            suffix = f" ({detail})" if detail else ""
            print(f"{name}: {'PASS' if ok else 'FAIL'}{suffix}", file=out or sys.stdout)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def first_failure(self):
        for name, ok, detail in self.results:
            if not ok:
                return name
        return None


def _grid_stage(poly):
    """Least k such that every segment runs along a line of the 3**-k grid:
    the triadic exponent of the curve's scale, read from its integer form.

    None when some segment is oblique or some coordinate is not triadic.
    """
    scale, points = poly.integer_form
    if any(running_axis(a, b) is None for a, b in zip(points, points[1:] + points[:1])):
        return None
    return triadic_exponent(scale)


def polyline(poly, knot=None) -> CheckList:
    """Containment and simplicity of a bare polyline; given the catalog
    ``knot`` it embeds, its determinant along (0, 0, 1) against the knot's.

    Containment runs at the ``sponge_stage`` mark, else at the finest
    triadic grid whose lines carry every segment (where an embedding puts
    them); it fails when neither gives a stage.
    """
    mark = poly.marks.get("sponge_stage")
    stage = mark if isinstance(mark, int) else _grid_stage(poly)
    checks = CheckList()
    if stage is None:
        checks.add("containment", False, "no triadic grid carries every segment")
    else:
        checks.add("containment", all(verify_containment(poly, stage)), f"stage {stage}")
    checks.add("simplicity", is_simple(poly))
    if knot is not None:
        det = determinant(project(poly, (0, 0, 1)))
        checks.add("determinant", det == KNOT_DETERMINANTS[knot], f"det {det}")
        checks.add("grid-projection-match", det == determinant(diagram_from_grid(catalog(knot))))
    return checks


def _detours(s) -> bool:
    """Record i of ``s.replaced`` is the i-th stage-m detour: its removed
    segment runs along y on x = 1, z = 0, over the i-th of
    ``middle_thirds(m)``, (a, b) over 3**m, and its path is (1, b, 0),
    (d, b, 0), (d, a, 0), (1, a, 0) with d = 1 - 3**-m.  The values 1, 0
    and d are read from record 0 and checked on integers; every other
    value must equal one of them, an identity test where the records
    share their Fractions, as a build's and a load's do."""
    scale = 3**s.m
    (one, zero), path = s.replaced[0][0].fixed, s.replaced[0][1]
    d = path[1][0] if len(path) == 4 else zero
    if not (one == 1 and zero == 0 and d.numerator == scale - 1 and d.denominator == scale):
        return False
    return all(
        seg.axis == 1 and seg.fixed == (one, zero)
        and seg.lo.numerator * scale == a * seg.lo.denominator and seg.hi.numerator * scale == b * seg.hi.denominator
        and path == ((one, seg.hi, zero), (d, seg.hi, zero), (d, seg.lo, zero), (one, seg.lo, zero))
        for (seg, path), (a, b) in zip(s.replaced, middle_thirds(s.m))
    )


def squareflake(s) -> CheckList:
    checks = CheckList()
    checks.add("simplicity", is_simple(s.polyline))
    checks.add("containment", all(verify_containment(s.polyline, s.m)), f"stage {s.m}")
    # a count of b bits cannot equal 2**(m-1) or 4 * 2**m once m > b:
    # decided without forming the power for a huge stored m, whose records
    # are read only once their count holds
    if s.m >= 1:
        count = len(s.replaced)
        checks.add("replaced-count", s.m <= count.bit_length() and count == replaced_count(s.m) and _detours(s))
    count = len(s.polyline)
    checks.add("vertex-count", s.m <= count.bit_length() and count == 4 + 4 * (2**s.m - 1))
    return checks


def approximant(a, det: bool = False) -> CheckList:
    """``containment`` also needs the stored sponge stage to be the one the
    ledger gives (``sponge_stage_of_ledger``).  The determinant is checked
    when ``det`` is set or at most 9 summands are spliced.  A curve that is
    not simple has no knot type, so its determinant is skipped."""
    checks = CheckList()
    simple = is_simple(a.polyline)
    checks.add("simplicity", simple)
    stage = a.sponge_stage
    contained = all(verify_containment(a.polyline, stage)) and stage == sponge_stage_of_ledger(a.m, a.ledger)
    checks.add("containment", contained, f"stage {stage}")
    # the ledger, in (stage, index) order, is the sites of stages 1..m:
    # 3 * (2**m - 1) entries.  A length of b bits cannot equal that count
    # once m > b, so the count is decided without forming the power, and
    # no site is built, for a huge stored m
    count = len(a.ledger)
    counts_ok = 1 <= a.m <= count.bit_length() and count == 3 * (2**a.m - 1) and [
        (e.stage, e.index, e.kind, e.cube) for e in sorted(a.ledger, key=attrgetter("stage", "index"))
    ] == [(s.stage, s.index, s.kind, s.cube) for q in range(1, a.m + 1) for s in sites(q)]
    checks.add("ledger-counts", counts_ok)
    if simple and (det or a.spliced_count() <= 9):
        d, direction = project_generic(a.polyline)
        value = determinant(d)
        checks.add("determinant", value == a.expected_determinant(), f"det {value} along {direction}")
    return checks


def assignment(a) -> CheckList:
    """``assignment-sites``: the stage is at least 1 and every entry names a
    site of stages 1..stage, a stage q in that range and an index from 1 to
    3 * 2**(q - 1).  An index of b bits is below that count once q > b, so
    a huge q forms no power."""
    checks = CheckList()
    checks.add("assignment-sites", a.stage >= 1 and all(
        1 <= q <= a.stage and 1 <= i and (i.bit_length() < q or i <= 3 * 2 ** (q - 1)) for q, i in a.entries
    ))
    return checks


def _pearl_count(n: int, m: int, stored: int):
    """n(n-1)**m, or None when it certainly exceeds ``stored``: the bit
    lengths are compared first, so a huge generation forms no huge power."""
    if m > 0 and m * ((n - 1).bit_length() - 1) > stored.bit_length():
        return None
    return n * (n - 1) ** m


def necklace(base, iterated=None) -> CheckList:
    """Checks of a generation-0 necklace and, when given, one iterated generation.

    One ``pearls_by_word`` pass builds the pearls of the stored words of
    m + 1 letters and of their parent words, each suffix inverted once;
    ``nesting`` and ``iterate-match`` both read it.  Words of other lengths
    are not built, so the cost follows the artifact, not its stored
    generation.  ``iterate-match`` holds when the stored words are all the
    reduced words of m + 1 letters over the base's letters, one each, and
    each stored pearl is the one its word addresses.
    """
    it = iterated if iterated is not None else base
    m = it.generation
    if m < 0:
        raise ValueError("generation must be >= 0")
    count = _pearl_count(base.n, m, len(it.pearls))
    checks = CheckList()
    checks.add("pearl-count", base.n >= 3 and len(it.pearls) == count, f"{len(it.pearls)} pearls")
    ps = base.pearls
    checks.add(
        "pearl-disjointness",
        all(pearls_disjoint(ps[i], ps[j]) for i in range(len(ps)) for j in range(i + 1, len(ps))),
    )
    words = {p.word for p in it.pearls if len(p.word) == m + 1}
    built = pearls_by_word(base, [*words, *(w[:-1] for w in words if m >= 1)])
    nest_ok = sib_ok = True
    orphan = None
    if m >= 1:
        groups = {}
        for p in it.pearls:
            groups.setdefault(p.word[:-1], []).append(p)
        parents = [(p, built[p.word[:-1]] if p.word in words else None) for p in it.pearls]
        orphan = next((p.word for p, parent in parents if parent is None), None)
        nest_ok = orphan is None and all(pearl_inside(p, parent) for p, parent in parents)
        sib_ok = all(
            pearls_disjoint(g[i], g[j])
            for g in groups.values() for i in range(len(g)) for j in range(i + 1, len(g))
        )
    checks.add("nesting", nest_ok, "" if orphan is None else f"no parent pearl for word {list(orphan)}")
    checks.add("sibling-disjointness", sib_ok)
    if iterated is not None:
        letters = len({p.word for p in ps if len(p.word) == 1})  # len(ps) when one distinct letter each
        match = (
            count is not None and count <= len(it.pearls) and letters == len(ps)
            and len(words) == len({p.word for p in it.pearls}) == letters * (letters - 1) ** m
            and all(built[p.word] == p for p in it.pearls)
        )
        checks.add("iterate-match", match)
    return checks


# artifact kind -> suite of the object serialize.load_artifact returns
SUITES = {
    "polyline": polyline,
    "squareflake": squareflake,
    "approximant": approximant,
    "assignment": assignment,
    "necklace": lambda pair: necklace(*pair),
}
