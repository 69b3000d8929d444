import io
import random
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongeknots import checks, cli, serialize
from spongeknots.checks import _pearl_count
from spongeknots.embed import embed_grid
from spongeknots.grid import catalog
from spongeknots.necklace import (
    Necklace,
    Pearl,
    invert_pearl,
    iterate,
    make_necklace,
    pearl_inside,
    pearls_by_word,
    pearls_disjoint,
)
from spongeknots.wildknot import sites
from oracle import closed_polyline, invert_point, limit_point, summand_ledger
from test_cli import BUILDS as CLI_BUILDS


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
    # n = 2, which make_necklace refuses: the pearls of letters 1 and 2 hold
    # n(n - 1)**m pearls, and every other check passes
    base = make_necklace(unit_square(), 3)
    two = Necklace(base.pearls[:2], base.knot, 2)
    it = iterate(base, 1)
    two_it = Necklace(tuple(p for p in it.pearls if set(p.word) <= {1, 2}), base.knot, 2, generation=1)
    for iterated in (None, two_it):
        results = checks.necklace(two, iterated)
        assert results.results[0] == ("pearl-count", False, "2 pearls")
        assert all(ok for _, ok, _ in results.results[1:])


def test_pearl_word_validation():
    with pytest.raises(ValueError):
        Pearl((F(0), F(0), F(0)), F(1), (1, 1))
    with pytest.raises(ValueError):
        Pearl((F(0), F(0), F(0)), F(0), (1,))


def _reduced_words(letters, length):
    return [w for w in product(letters, repeat=length) if all(a != b for a, b in zip(w, w[1:]))]


@pytest.mark.parametrize("name", ["square", "trefoil"])
@pytest.mark.parametrize("n", [3, 4])
def test_pearls_by_word_builds_what_iterate_builds(name, n):
    # iterate walks the word tree breadth-first, pearls_by_word builds each
    # word from its suffix: both give the same pearl for every reduced word
    base = make_necklace(_base_knot(name), n)
    rng = random.Random(n)
    for m in range(6):
        words = _reduced_words(range(1, n + 1), m + 1)
        built = pearls_by_word(base, words)
        gen = iterate(base, m).pearls
        assert len(gen) == len(words) and {p.word: p for p in gen} == built
        for w in rng.sample(words, min(len(words), 8)):
            assert limit_point(base, w) == (built[w].center, built[w].radius_sq)


def _reference_necklace_suite(base, iterated=None, iterate=iterate):
    """The necklace suite as it was with two inversion passes: parents from
    ``pearls_by_word``, then the whole generation from ``iterate``."""
    it = iterated if iterated is not None else base
    m = it.generation
    count = _pearl_count(base.n, m, len(it.pearls))
    results = checks.CheckList()
    results.add("pearl-count", len(it.pearls) == count, f"{len(it.pearls)} pearls")
    ps = base.pearls
    results.add(
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
    results.add("nesting", nest_ok, "" if orphan is None else f"no parent pearl for word {list(orphan)}")
    results.add("sibling-disjointness", sib_ok)
    if iterated is not None:
        match = count is not None and count <= len(iterated.pearls) and {
            p.word: (p.center, p.radius_sq) for p in iterate(base, m).pearls
        } == {p.word: (p.center, p.radius_sq) for p in iterated.pearls}
        results.add("iterate-match", match)
    return results


def _reference_lines(base, iterated):
    """The reference suite's lines, and whether its ``iterate`` raised.

    Where a pearl holds an inversion centre, ``iterate`` raises and the
    reference prints nothing; its other lines are then taken from a run
    whose ``iterate`` returns no pearls, so that iterate-match fails."""
    try:
        return _reference_necklace_suite(base, iterated).results, False
    except ValueError as e:
        assert "inversion center" in str(e)
    empty = _reference_necklace_suite(base, iterated, lambda t, m: Necklace((), t.knot, t.n, m))
    return empty.results, True


def _one_letter_each(base):
    return len({p.word for p in base.pearls if len(p.word) == 1}) == len(base.pearls)


def _assert_suite_matches_reference(base, iterated):
    want, raised = _reference_lines(base, iterated)
    got = checks.necklace(base, iterated).results
    if got != want:
        # the one move allowed: iterate-match PASS -> FAIL on a base whose
        # words are not one distinct letter each
        assert not _one_letter_each(base)
        assert got[:-1] == want[:-1] and want[-1] == ("iterate-match", True, "") == (got[-1][0], not got[-1][1], "")
    return want, got, raised


def _base_knot(name):
    return unit_square() if name == "square" else embed_grid(catalog(name))[0]


NECKLACE_BUILDS = [(argv, name) for argv, name in CLI_BUILDS if argv[0] == "necklace"]


@pytest.mark.parametrize("argv,name", NECKLACE_BUILDS, ids=[name for _, name in NECKLACE_BUILDS])
def test_necklace_suite_matches_the_reference_on_the_cli_builds(tmp_path, capsys, argv, name):
    assert cli.main(["build", *argv, "--out", str(tmp_path)]) == 0
    _, (base, it) = serialize.load_artifact((tmp_path / f"{name}.json").read_text())
    want, got, raised = _assert_suite_matches_reference(base, it)
    assert got == want and not raised and all(ok for _, ok, _ in got)


def _edit_pearls(rng, pearls, edit):
    """``pearls`` with one of them edited, dropped or duplicated."""
    pearls = list(pearls)
    i = rng.randrange(len(pearls))
    p = pearls[i]
    if edit == "centre":
        shift = rng.choice([F(1, 10**9), F(1, 100), F(1, 4), F(2)]) * p.radius_sq
        other = pearls[rng.randrange(len(pearls))].center
        center = rng.choice([(p.center[0] + shift, *p.center[1:]), other])
        pearls[i] = replace(p, center=center)
    elif edit == "radius":
        factor = rng.choice([F(1, 10**6), F(1, 4), 1 + F(1, 10**9), F(4), F(100)])
        pearls[i] = replace(p, radius_sq=p.radius_sq * factor)
    elif edit == "word":
        w = p.word
        options = [pearls[rng.randrange(len(pearls))].word, (9, *w), w[1:] or (9,), (*w, 9)]
        options += [(a, *w[1:]) for a in range(1, 5) if len(w) == 1 or a != w[1]]
        options += [(*w[:-1], a) for a in range(1, 5) if len(w) == 1 or a != w[-2]]
        pearls[i] = replace(p, word=rng.choice(options))
    elif edit == "drop":
        del pearls[i]
    elif edit == "duplicate":
        pearls.insert(rng.randrange(len(pearls) + 1), p)
    return tuple(pearls)


def _relabel(rng, base):
    """``base`` with its words other than (1,) ... (n,)."""
    ps = list(base.pearls)
    n = len(ps)
    form = rng.choice(["reversed", "shifted", "repeated", "two-letter"])
    if form == "reversed":
        ps = [replace(p, word=(n - i,)) for i, p in enumerate(ps)]
    elif form == "shifted":
        ps = [replace(p, word=(p.word[0] + 4,)) for p in ps]
    elif form == "repeated":
        i, j = rng.sample(range(n), 2)
        ps[i] = replace(ps[i], word=ps[j].word)
    else:
        i = rng.randrange(n)
        ps[i] = replace(ps[i], word=(*ps[i].word, ps[(i + 1) % n].word[0]))
    return replace(base, pearls=tuple(ps))


EDITS = ["none", "centre", "radius", "word", "drop", "duplicate", "generation", "base-words"]


def _edited(rng, base, it, edit):
    """One edit of the pair (base, it); None when it does not apply."""
    if edit == "generation":
        return None if it is None else (base, replace(it, generation=max(0, it.generation + rng.choice([-1, 1, 2]))))
    if edit == "base-words":
        new = _relabel(rng, base)
        if it is not None and rng.random() < 0.5:
            try:
                it = iterate(new, it.generation)
            except ValueError:
                pass
        return new, it
    if edit == "none":
        return base, it
    if it is None or rng.random() < 0.5:
        return replace(base, pearls=_edit_pearls(rng, base.pearls, edit)), it
    return base, replace(it, pearls=_edit_pearls(rng, it.pearls, edit))


def _corpus():
    """Seeded single edits of necklaces with n = 3 and 4 on the square and
    the trefoil, generation 0 alone or stored with generation 0 to 3."""
    rng = random.Random(23)
    for name in ("square", "trefoil"):
        knot = _base_knot(name)
        for n in (3, 4):
            base = make_necklace(knot, n)
            for m in (None, 0, 1, 2, 3):
                it = None if m is None else iterate(base, m)
                for edit in EDITS:
                    for _ in range(1 if edit == "none" else 3):
                        case = _edited(rng, base, it, edit)
                        if case is not None:
                            yield f"{name}-{n}-{m}-{edit}", case


@pytest.fixture(scope="module")
def corpus_lines():
    return [(label, *_assert_suite_matches_reference(base, it)) for label, (base, it) in _corpus()]


def test_necklace_suite_matches_the_reference_on_single_edits(corpus_lines):
    assert len(corpus_lines) == 428


def test_necklace_corpus_reaches_every_verdict(corpus_lines):
    # every line passes and fails somewhere, the reference raises somewhere,
    # and some edit of the base words (a duplicated base pearl repeats a
    # word too) moves iterate-match from PASS to FAIL
    seen = {(name, ok) for _, want, _, _ in corpus_lines for name, ok, _ in want}
    names = ["pearl-count", "pearl-disjointness", "nesting", "sibling-disjointness", "iterate-match"]
    assert seen == {(name, ok) for name in names for ok in (True, False)}
    assert any(raised for *_, raised in corpus_lines)
    assert any(want != got for _, want, got, _ in corpus_lines)
    assert any(detail.startswith("no parent pearl") for _, want, _, _ in corpus_lines for _, _, detail in want)
