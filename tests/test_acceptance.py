"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Everything asserted here is exact (integer/rational equality); the only
tolerance that exists is the one-minute budget on the randomized sweep.
"""

import random
import time
from collections import defaultdict
from fractions import Fraction as F

from spongeknots.embed import embed_grid, embed_into_box, stage_for, verify_containment
from spongeknots.geometry import Cube
from spongeknots.grid import catalog
from spongeknots.invariants import (
    determinant,
    determinant_minor,
    is_simple,
    project,
    project_generic,
    tricolorings,
)
from spongeknots.necklace import (
    Pearl,
    invert_point,
    iterate,
    make_necklace,
    pearl_inside,
    pearls_disjoint,
    summand_ledger,
)
from spongeknots.oracle import oracle_profile
from spongeknots.polyline import closed_polyline
from spongeknots.squareflake import replaced_count, squareflake
from spongeknots.ternary import (
    AxisSegment,
    in_sponge,
    segment_in_stage,
    stage_profile,
)
from spongeknots.wildknot import (
    KnotAssignment,
    SpliceSite,
    approximant,
    clearance,
    neighborhood_census,
    sites,
    splice,
    wild_set_plan,
)

SPACES = (("cantor", 1), ("carpet_face", 2), ("sponge", 3), ("carpet2", 3))


def _verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_predicate_oracle_equivalence():
    rng = random.Random(0x5EED)
    t0 = time.time()
    n_points = 10_000
    checked = 0
    for _ in range(n_points):
        p = []
        for _ in range(3):
            den = rng.randint(1, 3**8)
            p.append(F(rng.randint(0, den), den))
        p = tuple(p)
        for space, dim in SPACES:
            q = p[:dim]
            if stage_profile(q, 5, space) != oracle_profile(q, 5, space):
                _verdict(1, False, f"disagreement at {q} in {space}")
            checked += 6
    elapsed = time.time() - t0
    _verdict(
        1,
        elapsed < 60.0,
        f"digit predicates == subdivision oracle on {n_points} points x 4 spaces x k<=5 "
        f"({checked} verdicts, {elapsed:.1f}s)",
    )


def test_criterion_2_cantor_dust_extends_over_depth():
    rng = random.Random(0xD057)
    for _ in range(1000):
        x = F(sum(rng.choice((0, 2)) * 3**i for i in range(12)), 3**12)
        y = F(sum(rng.choice((0, 2)) * 3**i for i in range(12)), 3**12)
        den = rng.randint(1, 10**6)
        z = F(rng.randint(0, den), den)
        if not in_sponge(x, y, z):
            _verdict(2, False, f"dust point ({x},{y}) with z={z} escaped the sponge")
    _verdict(2, True, "1000 random Cantor-dust pairs lift to the sponge for random z")


def test_criterion_3_theorem_a_desk_scale():
    results = []
    for name, n, det in (("trefoil", 5, 3), ("figure-eight", 6, 5)):
        g = catalog(name)
        poly, rep = embed_grid(g)
        ok = (
            stage_for(n) == 2
            and rep.stage == 2
            and len(poly) == 4 * n
            and all(verify_containment(poly, rep.stage))
            and is_simple(poly)
            and determinant(project(poly, (0, 0, 1))) == det
        )
        results.append(ok)
    _verdict(
        3,
        all(results),
        "trefoil and figure-eight embed at stage 2; 4n segments exactly contained, "
        "simple, depth-axis determinants 3 and 5",
    )


def test_criterion_4_squareflake_stages():
    prev = None
    for m in range(0, 9):
        s = squareflake(m)
        if not is_simple(s.polyline):
            _verdict(4, False, f"S_{m} not simple")
        if len(s.polyline) != 4 + 4 * (2**m - 1):
            _verdict(4, False, f"S_{m} vertex count off")
        for a, b in s.polyline.segments():
            if not segment_in_stage(AxisSegment.from_endpoints(a, b), m, "sponge"):
                _verdict(4, False, f"S_{m} segment escapes M_{m}")
        if m >= 1:
            if len(s.replaced) != replaced_count(m) or replaced_count(m) != 2 ** (m - 1):
                _verdict(4, False, f"S_{m} replaced count off")
            old = {frozenset(seg) for seg in prev.polyline.segments()}
            new = {frozenset(seg) for seg in s.polyline.segments()}
            touched = set()
            added = set()
            for seg, path in s.replaced:
                third = seg.hi - seg.lo
                lo, hi = seg.lo - third, seg.hi + third
                touched.add(frozenset(((F(1), hi, F(0)), (F(1), lo, F(0)))))
                added.add(frozenset(((F(1), hi, F(0)), (F(1), seg.hi, F(0)))))
                added.add(frozenset(((F(1), seg.lo, F(0)), (F(1), lo, F(0)))))
                for a, b in zip(path, path[1:]):
                    added.add(frozenset((a, b)))
            if old - touched != new - added:
                _verdict(4, False, f"S_{m} changed outside the replaced middle thirds")
        prev = s
    _verdict(
        4,
        True,
        "S_m simple, contained in M_m, replaced 2^(m-1), 4+4(2^m-1) vertices, "
        "stable off the replaced thirds, for m <= 8",
    )


def test_criterion_5_wild_knot_approximants():
    paper_stage1 = [
        ((F(7, 9), F(1, 3), F(0)), (F(8, 9), F(1, 3), F(0))),
        ((F(2, 3), F(4, 9), F(0)), (F(2, 3), F(5, 9), F(0))),
        ((F(7, 9), F(2, 3), F(0)), (F(8, 9), F(2, 3), F(0))),
    ]
    paper_stage2 = [
        ((F(25, 27), F(1, 9), F(0)), (F(26, 27), F(1, 9), F(0))),
        ((F(8, 9), F(4, 27), F(0)), (F(8, 9), F(5, 27), F(0))),
        ((F(25, 27), F(2, 9), F(0)), (F(26, 27), F(2, 9), F(0))),
        ((F(25, 27), F(7, 9), F(0)), (F(26, 27), F(7, 9), F(0))),
        ((F(8, 9), F(22, 27), F(0)), (F(8, 9), F(23, 27), F(0))),
        ((F(25, 27), F(8, 9), F(0)), (F(26, 27), F(8, 9), F(0))),
    ]
    if [s.T.endpoints() for s in sites(1)] != paper_stage1:
        _verdict(5, False, "stage-1 sites differ from the construction coordinates")
    if [s.T.endpoints() for s in sites(2)] != paper_stage2:
        _verdict(5, False, "stage-2 sites differ from the construction coordinates")
    a1 = approximant(KnotAssignment.uniform("trefoil", 1), 1)
    a2 = approximant(KnotAssignment.uniform("trefoil", 2), 2)
    a3 = approximant(KnotAssignment.uniform("trefoil", 3), 3)
    for a in (a1, a2, a3):
        if not is_simple(a.polyline):
            _verdict(5, False, f"K_{a.m} not simple")
        if not all(verify_containment(a.polyline, a.sponge_stage)):
            _verdict(5, False, f"K_{a.m} leaves sponge stage {a.sponge_stage}")
    d1 = determinant(project_generic(a1.polyline)[0])
    d2 = determinant(project_generic(a2.polyline)[0])
    counts = [a3.spliced_count(q) for q in (1, 2, 3)]
    ok = d1 == 27 and d2 == 3**9 and counts == [3, 6, 12]
    _verdict(
        5,
        ok,
        f"nine site segments bit-exact; det(K_1)={d1}, det(K_2)={d2}, "
        f"ledger stage counts {counts}; all simple and contained",
    )


def test_criterion_6_wild_point_census():
    m = 6
    targets = (F(0), F(1))
    plan = wild_set_plan(list(targets), "trefoil", m)
    a = approximant(plan, m)
    for t in targets:
        p = (F(1), t, F(0))
        for j in range(0, 6):
            c = neighborhood_census(a, p, F(1, 3**j))
            if c < 1:
                _verdict(6, False, f"census 0 at radius 3^-{j} around target {t}")
    control = (F(0), F(1, 2), F(1))
    c2 = clearance(a, control)
    r = F(1, 2)
    while r * r >= c2:
        r /= 3
    leak = neighborhood_census(a, control, r)
    _verdict(
        6,
        leak == 0,
        f"stage-6 two-target plan: census >= 1 at radii 3^-j (j <= 5) around both "
        f"targets; 0 at the control point below its clearance",
    )


def test_criterion_7_necklace():
    square = closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
    for n in (3, 4, 5):
        t = make_necklace(square, n)
        for m in range(0, 6):
            gen = iterate(t, m)
            if len(gen.pearls) != n * (n - 1) ** m:
                _verdict(7, False, f"count off at n={n}, m={m}")
    t3 = make_necklace(square, 3)
    prev = {p.word: p for p in t3.pearls}
    for m in range(1, 5):
        gen = iterate(t3, m)
        groups = defaultdict(list)
        for p in gen.pearls:
            if not pearl_inside(p, prev[p.word[:-1]]):
                _verdict(7, False, f"nesting fails at generation {m}")
            groups[p.word[:-1]].append(p)
        for group in groups.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    if not pearls_disjoint(group[i], group[j]):
                        _verdict(7, False, f"sibling overlap at generation {m}")
        prev = {p.word: p for p in gen.pearls}
    b = Pearl((F(1, 3), F(-1, 2), F(0)), F(5, 7), (1,))
    rng = random.Random(0xBEAD)
    for _ in range(1000):
        x = tuple(F(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(3))
        if x == b.center:
            continue
        if invert_point(b, invert_point(b, x)) != x:
            _verdict(7, False, f"involution fails at {x}")
    for q in range(1, 7):
        if summand_ledger(3, q)["stages"][-1]["added"] != len(sites(q)):
            _verdict(7, False, f"stage-{q} summand increment != site count")
    l2 = summand_ledger(3, 2)
    ok = (l2["plain"], l2["mirror"]) == (7, 3)
    _verdict(
        7,
        ok,
        "pearl counts n(n-1)^m for n in {3,4,5}, m <= 5; nesting and sibling "
        "disjointness exact; involution exact on 1000 points; stage increments "
        "match site counts for q <= 6; stage-2 totals 7 plain + 3 mirror",
    )


def test_criterion_8_invariant_oracle_self_consistency():
    poly, _ = embed_grid(catalog("trefoil"))
    dets = []
    dirs = set()
    for skip in range(3):
        d, direction = project_generic(poly, skip=skip)
        dets.append(determinant(d))
        dirs.add(direction)
    if len(dirs) != 3 or set(dets) != {3}:
        _verdict(8, False, f"determinant varies across projections: {dets}")

    def connected_sum(base_name, summand_name):
        base, _ = embed_grid(catalog(base_name))
        t = AxisSegment(1, (F(0), F(0)), F(1, 9), F(2, 9))
        site = SpliceSite(0, 0, "custom", t, Cube((F(-1, 9), F(1, 9), F(0)), F(1, 9)), "y-edge-high")
        summand = embed_into_box(
            catalog(summand_name), site.cube.corner, site.cube.side, "y-edge-high", k=2
        )
        return splice(base, site, summand)

    tt = connected_sum("trefoil", "trefoil")
    tf = connected_sum("trefoil", "figure-eight")
    d_tt = determinant(project_generic(tt)[0])
    d_tf = determinant(project_generic(tf)[0])
    tri = {name: tricolorings(project(embed_grid(catalog(name))[0], (0, 0, 1)))
           for name in ("unknot", "trefoil", "figure-eight")}
    minor_agree = all(
        determinant_minor(project_generic(embed_grid(catalog(nm))[0])[0]) == want
        for nm, want in (("unknot", 1), ("trefoil", 3), ("figure-eight", 5))
    )
    ok = (
        d_tt == 9
        and d_tf == 15
        and tri == {"unknot": 3, "trefoil": 9, "figure-eight": 3}
        and minor_agree
    )
    _verdict(
        8,
        ok,
        f"determinant stable across 3 generic projections; multiplicativity "
        f"trefoil#trefoil={d_tt}, trefoil#figure-eight={d_tf}; tricolorings {tri}; "
        f"both determinant routes agree on the catalog",
    )
