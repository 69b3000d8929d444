import io
import random
from collections import defaultdict
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongeknots import checks
from spongeknots.embed import embed_grid
from spongeknots.grid import catalog
from spongeknots.necklace import (
    Necklace,
    Pearl,
    invert_pearl,
    invert_point,
    iterate,
    limit_point,
    make_necklace,
    pearl_inside,
    pearls_disjoint,
    summand_ledger,
)
from spongeknots.polyline import closed_polyline
from spongeknots.wildknot import sites


def unit_square():
    return closed_polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])


def test_invert_point_fixes_sphere():
    b = Pearl((F(0), F(0), F(0)), F(1), (1,))
    assert invert_point(b, (1, 0, 0)) == (1, 0, 0)
    assert invert_point(b, (F(3, 5), F(4, 5), 0)) == (F(3, 5), F(4, 5), 0)


def test_invert_point_one_dimensional_identity():
    b = Pearl((F(0), F(0), F(0)), F(1), (1,))
    assert invert_point(b, (2, 0, 0)) == (F(1, 2), 0, 0)


def test_invert_point_rejects_center():
    b = Pearl((F(1), F(1), F(1)), F(2), (1,))
    with pytest.raises(ValueError):
        invert_point(b, (1, 1, 1))


coords = st.fractions(min_value=-3, max_value=3, max_denominator=50)


@given(coords, coords, coords)
@settings(max_examples=300)
def test_involution_on_points(x, y, z):
    b = Pearl((F(1, 3), F(-1, 2), F(0)), F(5, 7), (1,))
    p = (x, y, z)
    if p == b.center:
        return
    assert invert_point(b, invert_point(b, p)) == p


def test_invert_pearl_explicit_value():
    b = Pearl((F(0), F(0), F(0)), F(1), (1,))
    img = invert_pearl(b, Pearl((F(3), F(0), F(0)), F(1), (2,)))
    assert img.center == (F(3, 8), 0, 0)
    assert img.radius_sq == F(1, 64)
    assert img.word == (1, 2)


def test_invert_pearl_boundary_samples_land_on_image_sphere():
    b = Pearl((F(0), F(0), F(0)), F(1), (1,))
    other = Pearl((F(3), F(0), F(0)), F(1), (2,))
    img = invert_pearl(b, other)
    samples = [
        (F(2), F(0), F(0)), (F(4), F(0), F(0)),
        (F(3), F(1), F(0)), (F(3), F(-1), F(0)),
        (F(3), F(0), F(1)), (F(3), F(0), F(-1)),
    ]
    for s in samples:
        q = invert_point(b, s)
        d = tuple(q[i] - img.center[i] for i in range(3))
        assert d[0] * d[0] + d[1] * d[1] + d[2] * d[2] == img.radius_sq


def test_invert_pearl_involution():
    b = Pearl((F(0), F(0), F(0)), F(1), (1,))
    other = Pearl((F(3), F(1, 2), F(0)), F(2, 3), (2,))
    back = invert_pearl(b, invert_pearl(b, other))
    # word bookkeeping differs; geometry must return exactly
    assert back.center == other.center
    assert back.radius_sq == other.radius_sq


def test_invert_pearl_rejects_ball_containing_center():
    b = Pearl((F(0), F(0), F(0)), F(1), (1,))
    big = Pearl((F(1, 2), F(0), F(0)), F(1), (2,))
    with pytest.raises(ValueError):
        invert_pearl(b, big)


def test_image_pearl_strictly_inside_mirror():
    rng = random.Random(5)
    b = Pearl((F(0), F(0), F(0)), F(1), (1,))
    for _ in range(50):
        c = tuple(F(rng.randint(2, 9), rng.randint(1, 3)) for _ in range(3))
        r2 = F(rng.randint(1, 4), rng.randint(4, 9))
        dd = sum(x * x for x in c)
        if dd <= r2:  # keep the center outside
            continue
        other = Pearl(c, r2, (2,))
        if not pearls_disjoint(b, other):
            continue
        img = invert_pearl(b, other)
        assert pearl_inside(img, b)


@pytest.mark.parametrize("n,m", [(3, 0), (3, 2), (4, 3), (5, 2)])
def test_iterate_counts(n, m):
    t = make_necklace(unit_square(), n)
    assert len(iterate(t, m).pearls) == n * (n - 1) ** m


def test_iterate_nesting_and_sibling_disjointness():
    t = make_necklace(unit_square(), 3)
    prev = {p.word: p for p in t.pearls}
    for m in range(1, 5):
        gen = iterate(t, m)
        groups = defaultdict(list)
        for p in gen.pearls:
            assert pearl_inside(p, prev[p.word[:-1]])
            groups[p.word[:-1]].append(p)
        for group in groups.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    assert pearls_disjoint(group[i], group[j])
        prev = {p.word: p for p in gen.pearls}


def test_cross_parent_disjointness_sampled():
    t = make_necklace(unit_square(), 4)
    gen = iterate(t, 2).pearls
    rng = random.Random(2)
    pairs = [(rng.randrange(len(gen)), rng.randrange(len(gen))) for _ in range(200)]
    for i, j in pairs:
        if gen[i].word[:-1] == gen[j].word[:-1] or i == j:
            continue
        if gen[i].word == gen[j].word:
            continue
        assert pearls_disjoint(gen[i], gen[j]) or pearl_inside(gen[i], gen[j]) or pearl_inside(gen[j], gen[i])


def test_max_radius_strictly_decreasing():
    t = make_necklace(unit_square(), 3)
    maxima = [max(p.radius_sq for p in iterate(t, m).pearls) for m in range(4)]
    assert all(a > b for a, b in zip(maxima, maxima[1:]))


def test_limit_point_examples():
    t = make_necklace(unit_square(), 3)
    c, r2 = limit_point(t, (2,))
    assert (c, r2) == (t.pearls[1].center, t.pearls[1].radius_sq)
    c6, r6 = limit_point(t, (1, 2, 1, 2, 1, 2))
    assert r6 < min(p.radius_sq for p in t.pearls) / 4
    # words differing in the last letter address disjoint pearls
    a = limit_point(t, (1, 2, 3))
    b = limit_point(t, (1, 2, 1))
    pa = Pearl(a[0], a[1], (9,))
    pb = Pearl(b[0], b[1], (8,))
    assert pearls_disjoint(pa, pb)


def test_limit_point_rejects_bad_words():
    t = make_necklace(unit_square(), 3)
    with pytest.raises(ValueError):
        limit_point(t, ())
    with pytest.raises(ValueError):
        limit_point(t, (1, 1, 2))
    with pytest.raises(ValueError):
        limit_point(t, (7,))


def test_summand_ledger_small_cases():
    l1 = summand_ledger(3, 1)
    assert (l1["plain"], l1["mirror"]) == (1, 3)
    l2 = summand_ledger(3, 2)
    assert l2["stages"][-1]["added"] == 6
    assert (l2["plain"], l2["mirror"]) == (7, 3)
    assert l2["total"] == 10


def test_summand_ledger_matches_wildknot_sites():
    for q in range(1, 7):
        ledger = summand_ledger(3, q)
        assert ledger["stages"][-1]["added"] == len(sites(q))


def test_make_necklace_on_embedded_trefoil():
    poly, _ = embed_grid(catalog("trefoil"))
    t = make_necklace(poly, len(poly.vertices))
    assert len(t.pearls) == 20
    assert t.generation == 0


def test_make_necklace_rejects_small_n():
    with pytest.raises(ValueError):
        make_necklace(unit_square(), 2)


def test_necklace_validation_catches_overlap():
    p1 = Pearl((F(0), F(0), F(0)), F(1), (1,))
    p2 = Pearl((F(1), F(0), F(0)), F(1), (2,))
    p3 = Pearl((F(5), F(0), F(0)), F(1), (3,))
    out = io.StringIO()
    checks.necklace(Necklace((p1, p2, p3), unit_square(), 3)).report(out)
    assert "pearl-disjointness: FAIL" in out.getvalue().splitlines()


def test_necklace_validation_catches_a_pearl_count_other_than_n():
    base = make_necklace(unit_square(), 4)
    out = io.StringIO()
    checks.necklace(Necklace(base.pearls[:3], base.knot, 4)).report(out)
    assert out.getvalue().splitlines()[:2] == ["pearl-count: FAIL (3 pearls)", "pearl-disjointness: PASS"]


def test_pearl_word_validation():
    with pytest.raises(ValueError):
        Pearl((F(0), F(0), F(0)), F(1), (1, 1))
    with pytest.raises(ValueError):
        Pearl((F(0), F(0), F(0)), F(0), (1,))
