"""One check suite per artifact kind, shared by ``build`` and ``verify``.

Each suite takes the artifact object alone (as built, or as
``serialize.load_artifact`` returns it) and recomputes every claim from
scratch.  Inputs the artifact does not store are keyword arguments whose
default is derived from the artifact itself.
"""

from __future__ import annotations

import sys
from math import lcm

from .embed import verify_containment
from .geometry import axis_form
from .grid import validate
from .invariants import determinant, is_simple, project_generic
from .necklace import iterate, pearl_inside, pearls_by_word, pearls_disjoint
from .squareflake import replaced_count
from .ternary import triadic_exponent


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


def _triadic_stage(poly):
    """Least k such that every vertex coordinate lies on the 3**-k grid, else None."""
    exponents = [triadic_exponent(d) for d in {c.denominator for v in poly.vertices for c in v}]
    return None if None in exponents else max(exponents)


def _grid_stage(poly):
    """Least k such that every segment runs along a line of the 3**-k grid.

    None when some segment is oblique or some coordinate is not triadic.
    """
    if any(axis_form(a, b) is None for a, b in poly.segments()):
        return None
    return _triadic_stage(poly)


def _order_of_3(d: int, limit: int):
    """Least n >= 1 with 3**n = 1 mod d, for d prime to 3; None past ``limit``."""
    x, n = 3 % d, 1
    while x != 1 % d:
        if n >= limit:
            return None
        x, n = x * 3 % d, n + 1
    return n


def _settled_stage(coords, stage: int) -> int:
    """A stage K past which the containment verdict of no segment between
    points with these coordinates changes, or ``stage`` when K is not less.

    Write each coordinate's denominator as 3**j * d with d prime to 3.
    Every expansion of the coordinate repeats with period ord_d(3) from
    digit j, so with P the largest j and L the lcm of the orders, the
    digits of all coordinates repeat with period L from digit P; K is
    P + 7L.  A segment leaves the stage-k sponge exactly when some stage-k
    cell of its running range (the cells whose digits lie between the
    paths of lo and of hi) kills every combination of expansions of its
    fixed coordinates, at most 4.  Choose such a cell digit by digit: the
    state (the combinations killed so far, and whether the digits still
    follow lo's path and hi's) changes at most 6 times, and what a digit
    does depends only on the state and on the coordinates' digits at that
    position.  So of 7 whole periods past P, one leaves the state as it
    found it; cutting it out gives a cell one period shorter that kills
    every combination.  A segment that fails at some stage thus fails by
    stage K, and as the stages shrink, its verdict at every stage past K
    is its verdict at K.  One period is not enough: the segment x = 9/26,
    z = 0, y in [0, 1/13] has P = 0 and L = 3 and first fails at stage 4.
    """
    p, l = 0, 1
    for den in {c.denominator for c in coords}:
        j = 0
        while den % 3 == 0:
            den //= 3
            j += 1
        p = max(p, j)
        n = _order_of_3(den, max(stage - p, 0) // 7 + 1)
        if n is None:
            return stage
        l = lcm(l, n)
        if p + 7 * l >= stage:
            return stage
    return p + 7 * l


def _add_containment(checks: CheckList, poly, stage: int):
    """Containment at ``stage``, decided at the triadic stage E of the
    vertices when that is less.  An oblique segment fails at every stage,
    and past digit E no fixed coordinate of an axis-parallel segment has a
    1 digit in either expansion, so no later stage removes more of it.  A
    curve with a vertex that is not triadic is decided by
    ``_settled_stage`` instead."""
    triadic = _triadic_stage(poly)
    if triadic is None:
        decided = _settled_stage((c for v in poly.vertices for c in v), stage)
    else:
        decided = min(stage, triadic)
    checks.add("containment", all(verify_containment(poly, decided)), f"stage {stage}")


def polyline(poly) -> CheckList:
    """Containment and simplicity of a bare polyline.

    Containment runs at the ``sponge_stage`` mark, else at the finest
    triadic grid whose lines carry every segment (where an embedding puts
    them); it is left out when neither gives a stage.
    """
    mark = poly.marks.get("sponge_stage")
    stage = mark if isinstance(mark, int) else _grid_stage(poly)
    checks = CheckList()
    if stage is not None:
        _add_containment(checks, poly, stage)
    checks.add("simplicity", is_simple(poly))
    return checks


def grid(g) -> CheckList:
    checks = CheckList()
    v = validate(g)
    checks.add("grid-valid", v is None, "" if v is None else str(v))
    return checks


def squareflake(s) -> CheckList:
    checks = CheckList()
    checks.add("simplicity", is_simple(s.polyline))
    _add_containment(checks, s.polyline, s.m)
    # a count of b bits cannot equal 2**(m-1) or 4 * 2**m once m > b:
    # decided without forming the power for a huge stored m
    if s.m >= 1:
        count = len(s.replaced)
        checks.add("replaced-count", s.m <= count.bit_length() and count == replaced_count(s.m))
    count = len(s.polyline)
    checks.add("vertex-count", s.m <= count.bit_length() and count == 4 + 4 * (2**s.m - 1))
    return checks


def approximant(a, det: bool | None = None) -> CheckList:
    """``det`` forces (True) or skips (False) the determinant; None checks it
    only when at most 9 summands are spliced.  A curve that is not simple
    has no knot type, so its determinant is skipped too."""
    checks = CheckList()
    simple = is_simple(a.polyline)
    checks.add("simplicity", simple)
    _add_containment(checks, a.polyline, a.sponge_stage)
    # stops at the first stage whose count differs, long before a huge stored m
    counts_ok = all(
        sum(1 for e in a.ledger if e.stage == q) == 3 * 2 ** (q - 1)
        for q in range(1, a.m + 1)
    )
    checks.add("ledger-counts", counts_ok)
    if simple and (det or (det is None and a.spliced_count() <= 9)):
        d, direction = project_generic(a.polyline)
        value = determinant(d)
        checks.add("determinant", value == a.expected_determinant(), f"det {value} along {direction}")
    return checks


def assignment(_) -> CheckList:
    checks = CheckList()
    checks.add("assignment-readable", True)
    return checks


def _pearl_count(n: int, m: int, stored: int):
    """n(n-1)**m, or None when it certainly exceeds ``stored``: the bit
    lengths are compared first, so a huge generation forms no huge power."""
    if m > 0 and m * ((n - 1).bit_length() - 1) > stored.bit_length():
        return None
    return n * (n - 1) ** m


def necklace(base, iterated=None) -> CheckList:
    """Checks of a generation-0 necklace and, when given, one iterated generation.

    Each stored pearl's parent is built from the pearl's own word, each
    suffix of the parent words inverted once, and the generation is
    iterated only when it cannot hold more pearls than are stored, so the
    cost follows the artifact, not its stored generation.
    """
    it = iterated if iterated is not None else base
    m = it.generation
    count = _pearl_count(base.n, m, len(it.pearls))
    checks = CheckList()
    checks.add("pearl-count", len(it.pearls) == count, f"{len(it.pearls)} pearls")
    ps = base.pearls
    checks.add(
        "pearl-disjointness",
        all(pearls_disjoint(ps[i], ps[j]) for i in range(len(ps)) for j in range(i + 1, len(ps))),
    )
    nest_ok = sib_ok = True
    orphan = None
    if m >= 1:
        groups = {}
        for p in it.pearls:
            groups.setdefault(p.word[:-1], []).append(p)
        parents = pearls_by_word(base, [word for word in groups if len(word) == m])
        orphan = next((p.word for p in it.pearls if parents.get(p.word[:-1]) is None), None)
        nest_ok = orphan is None and all(pearl_inside(p, parents[p.word[:-1]]) for p in it.pearls)
        sib_ok = all(
            pearls_disjoint(g[i], g[j])
            for g in groups.values() for i in range(len(g)) for j in range(i + 1, len(g))
        )
    checks.add("nesting", nest_ok, "" if orphan is None else f"no parent pearl for word {list(orphan)}")
    checks.add("sibling-disjointness", sib_ok)
    if iterated is not None:
        match = count is not None and count <= len(iterated.pearls) and {
            p.word: (p.center, p.radius_sq) for p in iterate(base, m).pearls
        } == {p.word: (p.center, p.radius_sq) for p in iterated.pearls}
        checks.add("iterate-match", match)
    return checks


# artifact kind -> suite of the object serialize.load_artifact returns
SUITES = {
    "polyline": polyline,
    "grid": grid,
    "squareflake": squareflake,
    "approximant": approximant,
    "assignment": assignment,
    "necklace": lambda pair: necklace(*pair),
}
