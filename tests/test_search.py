from fractions import Fraction as F

import pytest

from flatbilliards.catalog import make_entry
from flatbilliards.covers import analyze_cover, tile_by_words
from flatbilliards.search import search_appropriate


def test_immediate_angle_bound():
    # the 7pi/12 corner admits no odd reflection group: 4 * 7pi/12
    # already exceeds 2pi, so the verdict needs no enumeration at all
    for k in (1, 6, 40):
        r = search_appropriate(make_entry("7"), k)
        assert r.outcome == "none_found"
        assert r.statistics["nodes"] == 0
        assert any("no admissible" in p for p in r.prechecks)


def test_reflex_quadrilaterals_rejected_immediately():
    # the even obtuse angle (> pi) of both 4-gon families survives into
    # every outline, forcing an even reflection group
    for fam, n in [("9a", 7), ("9a", 9), ("9b", 5), ("9b", 7)]:
        r = search_appropriate(make_entry(fam, n), 12)
        assert r.outcome == "none_found"
        assert r.statistics["nodes"] == 0
        assert any("no admissible" in p for p in r.prechecks)


def test_periodic_and_square_tiled_prechecks():
    cases = [("1", 5), ("2", 6), ("3", 4), ("8", None), ("10", None)]
    for fam, n in cases:
        r = search_appropriate(make_entry(fam, n), 10)
        assert r.outcome == "none_found"
        assert r.statistics["nodes"] == 0
        assert r.prechecks


def test_right_triangle_five_depth_eight():
    # first-class search over the (pi/2, pi/5, 3pi/10) triangle: no
    # appropriate cover among tilings of up to eight copies, and the
    # four-copy terminal configuration branching over both centers is
    # among the rejected nodes tagged "two branch points"
    e = make_entry("2", 5)
    r = search_appropriate(e, 8)
    assert r.outcome == "none_found"
    assert not r.candidates
    assert r.statistics.get("two branch points", 0) > 0
    four = [w for w in r.rejected["two branch points"] if len(w) == 4]
    assert four
    hit = False
    for words in four:
        try:
            a = analyze_cover(tile_by_words(e.polygon, words))
        except Exception:
            continue
        branched = a.branched_classes()
        if len(branched) == 2 and all(
            bp.angle == F(1, 5) for bp in branched
        ):
            hit = True
    assert hit


def test_acute_scalene_infinite_forcing():
    # the (pi/4, pi/3, 5pi/12) triangle: every line of expansion either
    # hits an even angle or enters a forced strip that repeats under a
    # translation; the search closes out well before ten copies
    r = search_appropriate(make_entry("5a"), 10)
    assert r.outcome == "none_found"
    assert not r.candidates
    assert r.statistics.get("infinite forcing", 0) > 0
    assert r.statistics.get("even angle", 0) > 0


def test_two_branch_point_tags_are_truthful():
    # every completed tiling tagged "two branch points" must indeed
    # branch over at least two base classes under exact analysis
    e = make_entry("2", 5)
    r = search_appropriate(e, 6)
    checked = 0
    for words in r.rejected.get("two branch points", []):
        try:
            a = analyze_cover(tile_by_words(e.polygon, words))
        except Exception:
            continue  # locked partial configurations need not close up
        assert len(a.branched_classes()) >= 2
        checked += 1
    assert checked >= 1


def test_pruned_nodes_stay_disqualified():
    # soundness sample: re-expand pruned nodes one step; every legal
    # child must still be disqualified by some subtree rule
    from flatbilliards.search import (
        _StatusOracle,
        _Search,
        node_from_words,
    )
    from flatbilliards.unfolding import unfold

    e = make_entry("2", 5)
    searcher = _Search(
        e.polygon, _StatusOracle(unfold(e.polygon), e.facts), 8
    )
    r = search_appropriate(e, 7)
    locked_tags = [
        "locked two branch points",
        "locked periodic branch",
        "locked even angle",
    ]
    checked = 0
    for tag in locked_tags:
        for words in r.rejected.get(tag, [])[:4]:
            node = node_from_words(searcher, words)
            an = searcher.analyze_node(node)
            assert searcher.subtree_prune(node, an) == tag
            for ci, s in an.external:
                new = searcher.legal_child(node, ci, s)
                if new is None:
                    continue
                from flatbilliards.search import _Node

                child = _Node(node.copies + (new,))
                child_an = searcher.analyze_node(child)
                assert searcher.subtree_prune(child, child_an) is not None
            checked += 1
    assert checked >= 2


def test_search_is_deterministic():
    a = search_appropriate(make_entry("2", 5), 6)
    b = search_appropriate(make_entry("2", 5), 6)
    assert a.outcome == b.outcome
    assert a.statistics == b.statistics
    assert a.rejected == b.rejected


def test_search_unfolds_base_once(monkeypatch):
    import flatbilliards.search as search_mod

    calls = []
    real_unfold = search_mod.unfold

    def counting_unfold(P):
        calls.append(P)
        return real_unfold(P)

    monkeypatch.setattr(search_mod, "unfold", counting_unfold)
    search_appropriate(make_entry("2", 5), 4)
    assert len(calls) == 1


def test_second_class_composes():
    # immediate pre-checks apply to the second class as well
    r = search_appropriate(make_entry("7"), 8, cls=2)
    assert r.outcome == "none_found"
    # composing through covers branched over periodic points only
    r = search_appropriate(make_entry("2", 5), 3, cls=2)
    assert r.outcome in ("none_found", "inconclusive")
    assert r.statistics["intermediate bases"] >= 0


def test_resource_budget_reported():
    r = search_appropriate(make_entry("2", 5), 8, max_nodes=5)
    assert r.outcome == "inconclusive"
    assert r.statistics.get("resource budget", 0) == 1
