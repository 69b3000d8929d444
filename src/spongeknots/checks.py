"""One check suite per artifact kind, shared by ``build`` and ``verify``.

Each suite takes the artifact object alone (as built, or as
``serialize.load_artifact`` returns it) and recomputes every claim from
scratch.  Inputs the artifact does not store are keyword arguments whose
default is derived from the artifact itself.
"""

from __future__ import annotations

import sys

from .embed import verify_containment
from .geometry import running_axis
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


def _grid_stage(poly):
    """Least k such that every segment runs along a line of the 3**-k grid:
    the triadic exponent of the curve's scale, read from its integer form.

    None when some segment is oblique or some coordinate is not triadic.
    """
    scale, points = poly.integer_form
    if any(running_axis(a, b) is None for a, b in zip(points, points[1:] + points[:1])):
        return None
    return triadic_exponent(scale)


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
        checks.add("containment", all(verify_containment(poly, stage)), f"stage {stage}")
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
    checks.add("containment", all(verify_containment(s.polyline, s.m)), f"stage {s.m}")
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
    stage = a.sponge_stage
    checks.add("containment", all(verify_containment(a.polyline, stage)), f"stage {stage}")
    # the ledger holds each site of stages 1..m once: 3 * (2**m - 1) distinct
    # (stage, index) pairs, stage q indexing 1..3 * 2**(q-1).  A length of
    # b bits cannot equal that count once m > b: decided without forming
    # the power for a huge stored m
    count = len(a.ledger)
    pairs = {(e.stage, e.index) for e in a.ledger}
    counts_ok = (
        1 <= a.m <= count.bit_length() and count == len(pairs) == 3 * (2**a.m - 1)
        and all(1 <= q <= a.m and 1 <= i <= 3 * 2 ** (q - 1) for q, i in pairs)
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
