"""Arc presentations of knots in grid form.

A grid diagram is an ordered list of n unordered pairs {a_i, b_i} where
the a's and the b's are each a permutation of 1..n and a_i != b_i.  Row i
carries the horizontal segment from (a_i, i) to (b_i, i); every column
carries the vertical segment joining its two marked points; verticals
cross over horizontals.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GridDiagram:
    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if len(self.pairs) != self.n:
            raise ValueError("need exactly n pairs")

    @property
    def a(self):
        return tuple(p[0] for p in self.pairs)

    @property
    def b(self):
        return tuple(p[1] for p in self.pairs)

    def mirrored(self) -> "GridDiagram":
        """Mirror image: reflect columns (j -> n+1-j)."""
        m = self.n + 1
        return GridDiagram(self.n, tuple((m - a, m - b) for a, b in self.pairs))

    def to_json_dict(self):
        return {"n": self.n, "pairs": [[a, b] for a, b in self.pairs]}

    @classmethod
    def from_json_dict(cls, d):
        return cls(int(d["n"]), tuple((int(a), int(b)) for a, b in d["pairs"]))


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str

    def __str__(self):
        return f"{self.rule}: {self.detail}"


def validate(d: GridDiagram):
    """None when the diagram is a valid single-component knot presentation,
    otherwise the first violated rule with indices."""
    ids = set(range(1, d.n + 1))
    if set(d.a) != ids:
        return Violation("a-permutation", f"a = {d.a} is not a permutation of 1..{d.n}")
    if set(d.b) != ids:
        return Violation("b-permutation", f"b = {d.b} is not a permutation of 1..{d.n}")
    for i, (a, b) in enumerate(d.pairs, start=1):
        if a == b:
            return Violation("distinct-pair", f"pair {i} has a_{i} == b_{i} == {a}")
    if len(_row_cycle(d)) != d.n:
        return Violation("connected", "walk does not visit all rows in one cycle (link, not knot)")
    return None


def _row_cycle(d: GridDiagram):
    """Rows in traversal order starting from row 1, alternating column/row moves."""
    a_to_row = {a: i for i, a in enumerate(d.a, start=1)}
    order = [1]
    col = d.b[0]
    while True:
        nxt = a_to_row[col]
        if nxt == 1:
            break
        order.append(nxt)
        col = d.b[nxt - 1]
        if len(order) > d.n:
            break
    return order


def walk_points(d: GridDiagram):
    """The 2n marked points in cyclic traversal order.

    Each row contributes its entry point then its exit point; consecutive
    points alternate horizontal and vertical moves, ending one vertical
    move above the start.
    """
    rows = _row_cycle(d)
    pts = []
    enter = d.a[0]
    for r in rows:
        a, b = d.pairs[r - 1]
        exit_ = b if enter == a else a
        pts.append((enter, r))
        pts.append((exit_, r))
        enter = exit_
    return pts


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------
# Presentations found by exhaustive search over valid small-n grid diagrams,
# keeping the lexicographically first whose determinant and Fox 3-coloring
# count match the intended knot (unknot: 1/3, trefoil: 3/9, figure-eight:
# 5/3).  The verification is repeated in the test suite.

_CATALOG = {
    "unknot": GridDiagram(2, ((1, 2), (2, 1))),
    "trefoil": GridDiagram(5, ((1, 3), (2, 4), (3, 5), (4, 1), (5, 2))),
    "figure-eight": GridDiagram(6, ((1, 3), (2, 6), (4, 1), (3, 5), (6, 4), (5, 2))),
}

KNOT_DETERMINANTS = {"unknot": 1, "trefoil": 3, "figure-eight": 5}


def catalog(name: str) -> GridDiagram:
    """Reference grid diagrams: unknot, trefoil, figure-eight."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog knot: {name!r} (have {sorted(_CATALOG)})") from None


def catalog_names():
    return tuple(sorted(_CATALOG))
