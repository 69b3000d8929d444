"""One check suite per artifact kind, shared by ``build`` and ``verify``.

Each suite takes the artifact object alone (as built, or as
``serialize.load_artifact`` returns it) and recomputes every claim from
scratch.  Inputs the artifact does not store are keyword arguments whose
default is derived from the artifact itself.
"""

from __future__ import annotations

import sys

from .embed import verify_containment
from .geometry import axis_form
from .grid import validate
from .invariants import determinant, is_simple, project_generic
from .necklace import iterate, pearl_inside, pearls_disjoint
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


def _add_containment(checks: CheckList, poly, stage: int):
    checks.add("containment", all(verify_containment(poly, stage)), f"stage {stage}")


def _grid_stage(poly):
    """Least k such that every segment runs along a line of the 3**-k grid.

    None when some segment is oblique or some coordinate is not triadic.
    """
    if any(axis_form(a, b) is None for a, b in poly.segments()):
        return None
    exponents = [triadic_exponent(c.denominator) for v in poly.vertices for c in v]
    return None if None in exponents else max(exponents)


def polyline(poly, stage: int | None = None) -> CheckList:
    """Containment and simplicity of a bare polyline.

    ``stage`` defaults to the ``sponge_stage`` mark, else to the finest
    triadic grid whose lines carry every segment (where an embedding puts
    them); containment is left out when neither gives a stage.
    """
    if stage is None:
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
    if s.m >= 1:
        checks.add("replaced-count", len(s.replaced) == replaced_count(s.m))
    checks.add("vertex-count", len(s.polyline) == 4 + 4 * (2**s.m - 1))
    return checks


def approximant(a, det: bool | None = None) -> CheckList:
    """``det`` forces (True) or skips (False) the determinant; None checks it
    only when at most 9 summands are spliced."""
    checks = CheckList()
    checks.add("simplicity", is_simple(a.polyline))
    _add_containment(checks, a.polyline, a.sponge_stage)
    counts_ok = all(
        sum(1 for e in a.ledger if e.stage == q) == 3 * 2 ** (q - 1)
        for q in range(1, a.m + 1)
    )
    checks.add("ledger-counts", counts_ok)
    if det or (det is None and a.spliced_count() <= 9):
        d, direction = project_generic(a.polyline)
        value = determinant(d)
        checks.add("determinant", value == a.expected_determinant(), f"det {value} along {direction}")
    return checks


def assignment(_) -> CheckList:
    checks = CheckList()
    checks.add("assignment-readable", True)
    return checks


def necklace(base, iterated=None) -> CheckList:
    """Checks of a generation-0 necklace and, when given, one iterated generation."""
    it = iterated if iterated is not None else base
    m = it.generation
    checks = CheckList()
    checks.add("pearl-count", len(it.pearls) == base.n * (base.n - 1) ** m, f"{len(it.pearls)} pearls")
    ps = base.pearls
    checks.add(
        "pearl-disjointness",
        all(pearls_disjoint(ps[i], ps[j]) for i in range(len(ps)) for j in range(i + 1, len(ps))),
    )
    nest_ok = sib_ok = True
    if m >= 1:
        parents = {p.word: p for p in iterate(base, m - 1).pearls}
        nest_ok = all(pearl_inside(p, parents[p.word[:-1]]) for p in it.pearls)
        groups = {}
        for p in it.pearls:
            groups.setdefault(p.word[:-1], []).append(p)
        sib_ok = all(
            pearls_disjoint(g[i], g[j])
            for g in groups.values() for i in range(len(g)) for j in range(i + 1, len(g))
        )
    checks.add("nesting", nest_ok)
    checks.add("sibling-disjointness", sib_ok)
    if iterated is not None:
        recomputed = iterate(base, m)
        match = {p.word: (p.center, p.radius_sq) for p in recomputed.pearls} == {
            p.word: (p.center, p.radius_sq) for p in iterated.pearls
        }
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
