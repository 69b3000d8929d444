from fractions import Fraction as F

import pytest

from spongeknots.embed import embed_grid, embed_into_box, verify_containment
from spongeknots.geometry import Cube
from spongeknots.grid import catalog
from spongeknots.invariants import determinant, determinant_minor, is_simple, project_generic
from spongeknots.polyline import ClosedPolyline3
from spongeknots.ternary import AxisSegment
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


def test_stage1_sites_match_construction_coordinates():
    [bottom, left, top] = sites(1)
    assert bottom.T.endpoints() == ((F(7, 9), F(1, 3), 0), (F(8, 9), F(1, 3), 0))
    assert left.T.endpoints() == ((F(2, 3), F(4, 9), 0), (F(2, 3), F(5, 9), 0))
    assert top.T.endpoints() == ((F(7, 9), F(2, 3), 0), (F(8, 9), F(2, 3), 0))
    assert all(s.cube.side == F(1, 9) for s in (bottom, left, top))


def test_stage2_sites_match_construction_coordinates():
    expected = [
        ((F(25, 27), F(1, 9), 0), (F(26, 27), F(1, 9), 0)),
        ((F(8, 9), F(4, 27), 0), (F(8, 9), F(5, 27), 0)),
        ((F(25, 27), F(2, 9), 0), (F(26, 27), F(2, 9), 0)),
        ((F(25, 27), F(7, 9), 0), (F(26, 27), F(7, 9), 0)),
        ((F(8, 9), F(22, 27), 0), (F(8, 9), F(23, 27), 0)),
        ((F(25, 27), F(8, 9), 0), (F(26, 27), F(8, 9), 0)),
    ]
    got = [s.T.endpoints() for s in sites(2)]
    assert got == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_site_counts_and_disjoint_cubes(m):
    ss = sites(m)
    assert len(ss) == 3 * 2 ** (m - 1)
    for i in range(len(ss)):
        for j in range(i + 1, len(ss)):
            assert not ss[i].cube.interior_intersects_cube(ss[j].cube)


def test_site_cubes_survive_their_stage():
    from spongeknots.embed import check_surviving_cube

    for m in (1, 2, 3):
        for s in sites(m):
            assert check_surviving_cube(s.cube) == m + 1


def _custom_site(t_lo, t_hi, corner):
    # free-standing site for connected sums next to the unit cube
    t = AxisSegment(1, (F(0), F(0)), t_lo, t_hi)
    return SpliceSite(0, 0, "custom", t, Cube(corner, t_hi - t_lo), "y-edge-high")


def _connected_sum(base_name, summand_name):
    base, _ = embed_grid(catalog(base_name))
    site = _custom_site(F(1, 9), F(2, 9), (F(-1, 9), F(1, 9), F(0)))
    summand = embed_into_box(
        catalog(summand_name), site.cube.corner, site.cube.side, "y-edge-high", k=2
    )
    return splice(base, site, summand)


def test_splice_trefoil_trefoil_multiplicative():
    result = _connected_sum("trefoil", "trefoil")
    assert is_simple(result)
    d, _ = project_generic(result)
    assert determinant(d) == 9
    assert determinant_minor(d) == 9


def test_splice_trefoil_figure_eight_multiplicative():
    result = _connected_sum("trefoil", "figure-eight")
    assert is_simple(result)
    d, _ = project_generic(result)
    assert determinant(d) == 15
    assert determinant_minor(d) == 15


def test_splice_with_unknot_keeps_determinant():
    base, _ = embed_grid(catalog("trefoil"))
    d0, _ = project_generic(base)
    before = determinant(d0)
    site = _custom_site(F(1, 9), F(2, 9), (F(-1, 9), F(1, 9), F(0)))
    result = splice(base, site, flat_unknot_at(site))
    assert is_simple(result)
    d1, _ = project_generic(result)
    assert determinant(d1) == before == 3


def flat_unknot_at(site):
    # rectangle bulging away from the unit cube (negative x side)
    t = site.T
    w = (t.hi - t.lo) / 3
    x0 = t.fixed[0]
    verts = (
        (x0, t.lo, F(0)),
        (x0 - w, t.lo, F(0)),
        (x0 - w, t.lo + w, F(0)),
        (x0, t.lo + w, F(0)),
    )
    return ClosedPolyline3(verts, {"splice": ((x0, t.lo, F(0)), (x0, t.lo + w, F(0)))})


def test_splice_rejects_mark_outside_t():
    base, _ = embed_grid(catalog("trefoil"))
    site = _custom_site(F(1, 9), F(2, 9), (F(-1, 9), F(1, 9), F(0)))
    bad_summand = embed_into_box(
        catalog("unknot"), (F(-1, 9), F(2, 9), F(0)), F(1, 9), "y-edge-high", k=1
    )
    with pytest.raises(ValueError):
        splice(base, site, bad_summand)


def test_splice_rejects_summand_meeting_base_outside_t():
    base, _ = embed_grid(catalog("trefoil"))
    # cube on the inside: the base's second column crosses it
    t = AxisSegment(1, (F(0), F(0)), F(1, 9), F(2, 9))
    site = SpliceSite(0, 0, "custom", t, Cube((F(0), F(1, 9), F(0)), F(1, 9)), "y-edge")
    summand = embed_into_box(catalog("unknot"), site.cube.corner, site.cube.side, "y-edge", k=1)
    with pytest.raises(ValueError):
        splice(base, site, summand)


def test_double_splice_structure():
    a = approximant(KnotAssignment.uniform("trefoil", 1), 1)
    assert a.spliced_count() == 3
    assert is_simple(a.polyline)
    assert a.expected_determinant() == 27


def test_approximant_all_trefoil_stage1():
    a = approximant(KnotAssignment.uniform("trefoil", 1), 1)
    d, _ = project_generic(a.polyline)
    assert determinant(d) == 27
    assert all(verify_containment(a.polyline, a.sponge_stage))


def test_approximant_all_trefoil_stage2():
    a = approximant(KnotAssignment.uniform("trefoil", 2), 2)
    assert a.spliced_count(1) == 3
    assert a.spliced_count(2) == 6
    assert a.expected_determinant() == 3**9
    assert is_simple(a.polyline)
    d, _ = project_generic(a.polyline)
    assert determinant(d) == 3**9


def test_approximant_ledger_counts_stage3():
    a = approximant(KnotAssignment.uniform("trefoil", 3), 3)
    assert [a.spliced_count(q) for q in (1, 2, 3)] == [3, 6, 12]
    assert len(a.ledger) == 3 + 6 + 12
    assert is_simple(a.polyline)


def test_all_trivial_assignment():
    a = approximant(KnotAssignment.all_trivial(2), 2, include_trivial=True)
    assert a.spliced_count() == 9
    assert a.expected_determinant() == 1
    assert is_simple(a.polyline)
    d, _ = project_generic(a.polyline)
    assert determinant(d) == 1
    lean = approximant(KnotAssignment.all_trivial(2), 2)
    assert lean.spliced_count() == 0
    assert len(lean.polyline) == 16  # bare squareflake


def test_mirror_assignment_tracked_and_splices():
    entries = {(1, 1): ("trefoil", True), (1, 2): ("trefoil", False)}
    a = approximant(KnotAssignment(1, entries), 1)
    mirrored = [e for e in a.ledger if e.mirror]
    assert len(mirrored) == 1 and mirrored[0].index == 1
    assert is_simple(a.polyline)
    d, _ = project_generic(a.polyline)
    assert determinant(d) == 9


def test_summand_segments_disjoint_across_sites():
    a = approximant(KnotAssignment.uniform("trefoil", 2), 2)
    # simplicity of the whole spliced curve already implies pairwise
    # disjointness of the summand segment sets; check the cubes too
    entries = [e for e in a.ledger if e.spliced]
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            assert not entries[i].cube.interior_intersects_cube(entries[j].cube)


def test_wild_set_plan_single_target():
    plan = wild_set_plan([F(0)], "trefoil", 3)
    assert len(plan.entries) == 3  # one site per stage
    a = approximant(plan, 3)
    assert a.spliced_count() == 3


def test_wild_set_plan_two_targets_two_stages():
    plan = wild_set_plan([F(0), F(1)], "trefoil", 2)
    assert len(plan.entries) == 4
    assert (1, 1) in plan.entries and (1, 3) in plan.entries


def test_wild_set_plan_empty():
    plan = wild_set_plan([], "trefoil", 3)
    assert plan.entries == {}


def test_wild_set_plan_rejects_non_cantor_targets():
    with pytest.raises(ValueError):
        wild_set_plan([F(1, 2)], "trefoil", 2)
    with pytest.raises(ValueError):
        wild_set_plan([F(0), F(0)], "trefoil", 2)


@pytest.mark.parametrize(
    "target",
    # triadic (two expansions: 1/3, 2/3, 2/9, 7/9) and non-triadic Cantor points
    [F(0), F(1), F(1, 3), F(2, 3), F(2, 9), F(7, 9), F(1, 4), F(3, 4), F(1, 10), F(3, 10)],
)
def test_wild_set_plan_chases_the_target_through_its_cantor_intervals(target):
    m = 6
    plan = wild_set_plan([target], "trefoil", m)
    assert sorted(q for q, _ in plan.entries) == list(range(1, m + 1))
    # decode each stage's site into a Cantor digit: the lower third adjoins
    # the square's bottom site (offset 1), the upper third its top (offset 3)
    lo, rank = F(0), 0
    for (q, index) in sorted(plan.entries):
        assert (index - 1) // 3 == rank
        d = {1: 0, 3: 2}[index - 3 * rank]
        lo += F(d, 3**q)
        rank = 2 * rank + d // 2
    assert lo <= target <= lo + F(1, 3**m)


def test_census_monotone_toward_target():
    target = F(1)
    plan = wild_set_plan([target], "trefoil", 5)
    a = approximant(plan, 5)
    p = (F(1), target, F(0))
    counts = [neighborhood_census(a, p, F(1, 3**j)) for j in range(0, 5)]
    assert all(c >= 1 for c in counts)
    assert counts == sorted(counts, reverse=True)


def test_census_zero_away_from_targets():
    plan = wild_set_plan([F(0)], "trefoil", 3)
    a = approximant(plan, 3)
    far = (F(0), F(0), F(1))
    c2 = clearance(a, far)
    below = c2 * F(9, 10)
    # radius^2 below the clearance: no cube fits
    r = F(1, 2)
    while r * r >= below:
        r /= 2
    assert neighborhood_census(a, far, r) == 0


def test_census_all_trivial_zero():
    a = approximant(KnotAssignment.all_trivial(2), 2, include_trivial=True)
    assert neighborhood_census(a, (F(1), F(1, 3), F(0)), F(1)) == 0
