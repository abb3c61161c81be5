import functools
import math
import random
from fractions import Fraction as F

import pytest

from flatbilliards import periodicity
from flatbilliards.catalog import make_entry
from flatbilliards.covers import analyze_cover, tile_by_words
from flatbilliards.periodicity import classify_point, default_directions
from flatbilliards import planar
from flatbilliards.cyclotomic import CyclotomicReal, cos_pi
from flatbilliards.planar import vkey
from flatbilliards.polygons import DihedralGroup, Edge, LinearMap, Polygon
from flatbilliards.search import (
    SearchReport,
    _Node,
    _root_copy,
    _run_enumeration,
    _Search,
    _StatusOracle,
    node_from_words,
    search_appropriate,
)
from flatbilliards.unfolding import unfold
from reference import (apply_angle, apply_motion, compose, exact_disjoint,
                       motion_by_reflections, sat_disjoint)


def _searcher(family, n, max_copies):
    e = make_entry(family, n)
    return _Search(e.polygon, _StatusOracle(unfold(e.polygon), e.facts),
                   max_copies, max_nodes=200000)


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


def test_acute_scalene_forced_closure():
    # the (pi/4, pi/3, 5pi/12) triangle: every line of expansion either
    # hits an even angle or is forced past ten copies
    r = search_appropriate(make_entry("5a"), 10)
    assert r.outcome == "none_found"
    assert not r.candidates
    assert r.statistics.get("forced past the copy bound", 0) > 0
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
    searcher = _searcher("2", 5, 8)
    r = search_appropriate(make_entry("2", 5), 7)
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


@pytest.mark.parametrize("family,n,K,collected", [("2", 5, 6, 5),
                                                  ("6", 5, 6, 1)])
def test_second_class_stage_one_skips_the_closure(family, n, K, collected,
                                                  monkeypatch):
    # an intermediate base need not have every count in ok_counts: stage
    # 2 tiles it by copies of itself, so the forced closure's claim does
    # not hold in stage 1, which collects what it collects with none
    entry = make_entry(family, n)
    bases = search_appropriate(entry, K, cls=2).rejected["intermediate base"]
    monkeypatch.setattr(_Search, "forced_prune", lambda self, node, an: None)
    bare = search_appropriate(entry, K, cls=2).rejected["intermediate base"]
    assert bases == bare
    assert len(bases) == collected


def test_resource_budget_reported():
    r = search_appropriate(make_entry("2", 5), 8, max_nodes=5)
    assert r.outcome == "inconclusive"
    assert r.statistics.get("resource budget", 0) == 1


def test_congruent_tilings_share_one_key():
    # these two three-copy tilings of the (pi/2, pi/5, 3pi/10) triangle
    # are congruent under a reflection of D_10; a key built from rounded
    # float vertices told them apart
    searcher = _searcher("2", 5, 8)
    a = node_from_words(searcher, [(), (1,), (1, 0)])
    b = node_from_words(searcher, [(), (1,), (0,)])
    assert searcher.canonical_key(a.copies) == searcher.canonical_key(b.copies)
    c = node_from_words(searcher, [(), (1,), (2,)])
    assert searcher.canonical_key(c.copies) != searcher.canonical_key(a.copies)


@pytest.mark.parametrize("family,n", [("2", 5), ("2", 7), ("6", 5)])
def test_key_does_not_depend_on_the_base_copy(family, n):
    # copy i sits at r_{w_1} o ... o r_{w_m}; each reflection is an
    # involution, so seen from copy j it sits at reversed(w_j) + w_i
    searcher = _searcher(family, n, 6)
    r = search_appropriate(make_entry(family, n), 6)
    lists = [w for kept in r.rejected.values() for w in kept]
    assert lists
    for words in lists:
        key = searcher.canonical_key(node_from_words(searcher, words).copies)
        for wj in words:
            rerooted = [list(reversed(wj)) + list(wi) for wi in words]
            node = node_from_words(searcher, rerooted)
            assert searcher.canonical_key(node.copies) == key


@pytest.mark.parametrize("family,n", [("2", 5), ("2", 7), ("6", 5)])
def test_packed_vertex_keys_match_exact_positions(family, n):
    # two placed vertices of a retained tiling share a packed key
    # exactly when their exact positions are equal
    e = make_entry(family, n)
    searcher = _searcher(family, n, 6)
    r = search_appropriate(e, 6)
    lists = [w for kept in r.rejected.values() for w in kept]
    assert lists
    for words in lists:
        packed, exact = [], []
        for c, w in zip(node_from_words(searcher, words).copies, words):
            motion = motion_by_reflections(e.polygon, w)
            packed += c.vkeys
            exact += [vkey(apply_motion(motion, v))
                      for v in e.polygon.vertices()]
        assert [packed.index(x) for x in packed] == [
            exact.index(x) for x in exact
        ]


def _point_rows(points):
    """A point table as a list, in order, with its lists copied."""
    return [
        (key, list(rec["corners"]), list(rec["ext"]), rec["label"],
         rec["sigma"])
        for key, rec in points.items()
    ]


def _rebuilt(searcher, copies):
    """External sides, points, boundary and completeness of a tiling,
    rebuilt from scratch rather than grown copy by copy."""
    k = searcher.k
    sides = {}
    for ci, c in enumerate(copies):
        for s in range(k):
            ends = frozenset((c.vkeys[s], c.vkeys[(s + 1) % k]))
            sides.setdefault(ends, []).append((ci, s))
    external = [own[0] for own in sides.values() if len(own) == 1]
    points = {}
    for ci, c in enumerate(copies):
        for v in range(k):
            rec = points.setdefault(c.vkeys[v], {"corners": [], "ext": []})
            rec["corners"].append((ci, v))
    for ci, s in external:
        c = copies[ci]
        points[c.vkeys[s]]["ext"].append((ci, s))
        points[c.vkeys[(s + 1) % k]]["ext"].append((ci, s))
    for rec in points.values():
        labels = {v for _, v in rec["corners"]}
        rec["label"] = labels.pop() if len(labels) == 1 else None
        rec["sigma"] = None
        if rec["label"] is not None:
            rec["sigma"] = len(rec["corners"]) * searcher.angles[rec["label"]]
    boundary = {key: r for key, r in points.items() if r["ext"]}
    complete = all(len(r["ext"]) == 2 for r in boundary.values()) and all(
        r["sigma"] is not None for r in points.values()
    )
    return external, _point_rows(points), _point_rows(boundary), complete


def _tables(an):
    """An analysis's copies, side order and point rows, copied."""
    return (list(an.copies), list(an.sides.items()), _point_rows(an.points))


@pytest.mark.parametrize("family,n,K", [("2", 5, 6), ("2", 7, 6),
                                        ("5a", None, 10)])
def test_incremental_analysis_matches_rebuild(family, n, K):
    # a grown node is its parent plus one copy.  After every add_copy,
    # in analyze_node's fold, in a child's growth from its parent's
    # tables and in forced_prune's closure, the sides and points are,
    # in order, what a rebuild gives; the analysis each node is
    # expanded with and each closure's starting tables are those of a
    # rebuild too, and a closure leaves the tables it starts from
    # (which the node keeps for its expansion) as they were.  Every
    # read of the closure's legality table answers as a fresh
    # legal_child on a new node.  The nodes are the retained lists and
    # those the search closes.
    searcher = _searcher(family, n, K)
    nodes, reads = [], []
    real_prune, real_add = searcher.forced_prune, searcher.add_copy
    real_child, real_eval = searcher.grown_child, searcher.evaluate

    def whole(an, copies):
        assert an.copies == list(copies)
        assert (an.external, _point_rows(an.points),
                _point_rows(an.boundary), an.complete) == _rebuilt(
                    searcher, copies)

    def forced_prune(node, an):
        whole(an, node.copies)
        before = _tables(an), {key: list(e) for key, e in node.legal.items()}
        tag = real_prune(node, an)
        assert (_tables(an), node.legal) == before
        nodes.append(_Node(tuple(an.copies)))
        return tag

    def evaluate(node, an):
        whole(an, node.copies)
        return real_eval(node, an)

    def add_copy(an, c):
        real_add(an, c)
        external, rows, _, _ = _rebuilt(searcher, an.copies)
        assert list(an.sides.values()) == external
        assert _point_rows(an.points) == rows

    def grown_child(legal, copies, ci, s):
        new = real_child(legal, copies, ci, s)
        reads.append((tuple(copies), ci, s, new))
        return new

    searcher.forced_prune, searcher.add_copy = forced_prune, add_copy
    searcher.evaluate = evaluate
    report = SearchReport(family, n, 1, K, "none_found",
                          statistics={"nodes": 0})
    _run_enumeration(searcher, report, want="appropriate")
    del searcher.forced_prune, searcher.evaluate, searcher.add_copy
    nodes += [node_from_words(searcher, words)
              for kept in report.rejected.values() for words in kept]
    assert nodes
    prefixes = {tuple(map(id, node.copies[:i])): node.copies[:i]
                for node in nodes for i in range(1, len(node.copies) + 1)}
    for prefix in prefixes.values():
        an = searcher.analyze_node(_Node(prefix))
        assert (an.external, _point_rows(an.points),
                _point_rows(an.boundary), an.complete) == _rebuilt(
                    searcher, prefix)
    searcher.grown_child = grown_child
    grew = False
    for node in nodes:
        start = len(reads)
        searcher.forced_prune(node, searcher.analyze_node(node))
        grew = grew or any(len(copies) > len(node.copies)
                           for copies, *_ in reads[start:])
    del searcher.grown_child
    assert grew
    for copies, ci, s, new in reads:
        fresh = searcher.legal_child(_Node(copies), ci, s)
        assert (new is None) == (fresh is None)
        if new is not None:
            assert (new.lin, new.vkeys, new.anchors) == (
                fresh.lin, fresh.vkeys, fresh.anchors)


def test_each_node_is_analysed_once():
    # a node's tables are built once, as its parent's plus one copy, and
    # serve its subtree prune, its forced closure and its expansion.  So
    # outside forced_prune the enumeration makes one add_copy per
    # analysed node: the root's and one per child it prunes or keeps.
    # Inside, every add_copy is a forced copy past the node's own.
    searcher = _searcher("2", 5, 8)
    outside, inside, folds, pruned = [], [], [], []
    closing = []
    real_add, real_closure = searcher.add_copy, searcher.forced_prune
    real_an, real_prune = searcher.analyze_node, searcher.subtree_prune

    def add_copy(an, c):
        real_add(an, c)
        (inside if closing else outside).append(len(an.copies))
        if closing:
            assert len(an.copies) > closing[-1]

    def closure(node, an):
        closing.append(len(an.copies))
        try:
            return real_closure(node, an)
        finally:
            closing.pop()

    def analyze(node):
        folds.append(len(closing))
        return real_an(node)

    def prune(node, an):
        pruned.append(node)
        return real_prune(node, an)

    searcher.add_copy, searcher.forced_prune = add_copy, closure
    searcher.analyze_node, searcher.subtree_prune = analyze, prune
    report = SearchReport("2", 5, 1, 8, "none_found",
                          statistics={"nodes": 0})
    _run_enumeration(searcher, report, want="appropriate")
    assert report.statistics["nodes"] == 83
    assert inside
    assert folds == [0]
    assert len(outside) == len(pruned) + 1


_PINNED = [
    ("2", 5, 6, {"nodes": 25, "congruent repeats": 72, "even angle": 21,
                 "forced past the copy bound": 38,
                 "locked periodic branch": 2, "two branch points": 3,
                 "unbranched (lattice)": 1},
     {"locked periodic branch": 2, "two branch points": 3}),
    ("2", 7, 6, {"nodes": 24, "angle overflow": 6, "congruent repeats": 67,
                 "even angle": 20, "forced past the copy bound": 33,
                 "two branch points": 3, "unbranched (lattice)": 1},
     {"two branch points": 3}),
    ("6", 5, 6, {"nodes": 10, "congruent repeats": 13, "even angle": 8,
                 "forced past the copy bound": 7,
                 "locked two branch points": 1, "two branch points": 1,
                 "unbranched (lattice)": 1},
     {"locked two branch points": 1, "two branch points": 1}),
    ("5a", None, 10, {"nodes": 90, "congruent repeats": 337,
                      "even angle": 90, "forced past the copy bound": 197},
     {}),
    # the benchmark's three searches
    ("6", 5, 8, {"nodes": 18, "congruent repeats": 24, "even angle": 16,
                 "forced past the copy bound": 10, "locked periodic branch": 2,
                 "locked two branch points": 2, "two branch points": 1,
                 "unbranched (lattice)": 1},
     {"locked periodic branch": 2, "locked two branch points": 2,
      "two branch points": 1}),
    ("2", 5, 8, {"nodes": 83, "congruent repeats": 322, "even angle": 76,
                 "forced past the copy bound": 150,
                 "locked periodic branch": 14, "two branch points": 6,
                 "unbranched (lattice)": 1},
     {"locked periodic branch": 14, "two branch points": 6}),
    ("2", 7, 8, {"nodes": 72, "angle overflow": 38, "congruent repeats": 261,
                 "even angle": 65, "forced angle overflow": 1,
                 "forced past the copy bound": 110, "two branch points": 6,
                 "unbranched (lattice)": 1},
     {"two branch points": 6}),
]


@pytest.mark.parametrize("family,n,K,statistics,kept", _PINNED)
def test_search_statistics_are_pinned(family, n, K, statistics, kept):
    # what the search visits, prunes and retains, counted tag by tag: a
    # change to the search that alters any count must say why
    r = search_appropriate(make_entry(family, n), K)
    assert r.outcome == "none_found" and not r.candidates
    assert r.statistics == statistics
    assert {tag: len(lists) for tag, lists in r.rejected.items()} == kept


def test_copies_still_needed_bound_the_depth():
    # 5a has no candidate within 10 or 12 copies, and the copies a node
    # still needs end each line well before the copy bound does (2,105
    # and 12,595 nodes without that bound)
    for K, most in ((10, 100), (12, 400)):
        r = search_appropriate(make_entry("5a"), K)
        assert r.outcome == "none_found" and not r.candidates
        assert r.statistics["nodes"] <= most


@pytest.mark.parametrize("family,n,K", [pin[:3] for pin in _PINNED])
def test_identity_reads_no_float(family, n, K, monkeypatch):
    # every decision of the search is exact: with float() of an exact
    # number raising, each pinned search still gives its pinned
    # statistics and retained lists
    entry = make_entry(family, n)

    def no_float(x):
        raise AssertionError("the search read a float")

    monkeypatch.setattr(CyclotomicReal, "__float__", no_float)
    r = search_appropriate(entry, K)
    statistics, kept = next(pin[3:] for pin in _PINNED
                            if pin[:3] == (family, n, K))
    assert r.outcome == "none_found" and not r.candidates
    assert r.statistics == statistics
    assert {tag: len(lists) for tag, lists in r.rejected.items()} == kept


@pytest.mark.parametrize("family,n,K", [("2", 5, 6), ("2", 7, 6),
                                        ("6", 5, 6), ("5a", None, 10)])
def test_overlap_table_matches_the_direct_test(family, n, K):
    # whether a copy blocks a new one is read from a table keyed by
    # their relative placement and filled by the exact test on D_h.
    # Every read, forced closures included, must give what two direct
    # tests give on the pair being read: the float separating-axis test
    # the search once made, and the same test on exact vertices
    # P.row(g) + t, with t from the word's reflections across lines
    P = make_entry(family, n).polygon
    searcher = _searcher(family, n, K)
    reads = []
    real = searcher.blocks

    def blocks(c, new):
        reads.append((c, new, real(c, new)))
        return reads[-1][2]

    searcher.blocks = blocks
    report = SearchReport(family, n, 1, K, "none_found",
                          statistics={"nodes": 0})
    _run_enumeration(searcher, report, want="appropriate")
    assert len(reads) > len(searcher.overlap)
    assert {hit for *_, hit in reads} == {True, False}
    placed, exact = {}, {}

    def vertices(c):
        key = (c.lin, c.anchors[0])
        if key not in placed:
            m = motion_by_reflections(P, c.word)
            assert searcher.G.index_of(m.orth) == c.lin
            vs = [planar.vadd(p, m.shift) for p in P.row(c.lin)]
            placed[key] = vs, [(float(x), float(y)) for x, y in vs]
        return placed[key]

    for c, new, hit in reads:
        (a, fa), (b, fb) = vertices(c), vertices(new)
        assert hit == (not sat_disjoint(fb, fa))
        pair = (c.lin, c.anchors[0], new.lin, new.anchors[0])
        if pair not in exact:
            exact[pair] = not exact_disjoint(b, a)
        assert hit == exact[pair]


def test_overlap_test_runs_once_per_placement():
    # 2 n=5 at K=8 tests about 10,000 pairs over about 130 relative
    # placements: the exact test runs once for each, and the table
    # keeps every answer
    searcher = _searcher("2", 5, 8)
    calls = []
    real = searcher.side_values

    def side_values(h, d):
        calls.append((h, d))
        return real(h, d)

    searcher.side_values = side_values
    report = SearchReport("2", 5, 1, 8, "none_found",
                          statistics={"nodes": 0})
    _run_enumeration(searcher, report, want="appropriate")
    assert report.statistics["nodes"] == 83
    assert len(calls) == len(set(calls)) == len(searcher.overlap)
    assert len(calls) < 1000


def _hull(points):
    """The vertices of the convex hull of (exact point, label) pairs,
    counterclockwise, none inside a side (Andrew's monotone chain), as
    their labels."""
    pts = sorted(points, key=lambda item: item[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) > 1 and planar.orient(out[-2][0], out[-1][0],
                                                 p[0]) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return [label for _, label in chain(pts) + chain(pts[::-1])]


_DIFFERENCE_BASES = {
    "2-5": lambda: make_entry("2", 5).polygon,
    "2-7": lambda: make_entry("2", 7).polygon,
    # legs along 0 and pi/2, hypotenuse at 5pi/4: the vertices are
    # rational, and only the hypotenuse's direction needs Q(zeta_8)
    "rational-vertices": lambda: Polygon([
        Edge(0, 1), Edge(F(1, 2), 1), Edge(F(5, 4), 2 * cos_pi(F(1, 4)))]),
}


@pytest.mark.parametrize("base", list(_DIFFERENCE_BASES))
def test_overlap_is_the_open_difference_polygon(base):
    # the copy x -> h.x + d overlaps the base exactly when d lies in the
    # open polygon D_h, the hull of the differences v_a - h.v_b.  At each
    # hull vertex two side values vanish and the rest are positive, so
    # the copy only touches; at each edge's midpoint, whose values are
    # half the sum of its ends' (the values are affine in d), one
    # vanishes; at the mean of the vertices all are positive
    P = _DIFFERENCE_BASES[base]()
    searcher = _Search(P, _StatusOracle(unfold(P), {}), 8, max_nodes=200000)
    E = searcher.E
    for h in range(2 * searcher.N):
        diffs = {}
        for a, p in enumerate(P.row(0)):
            for b, q in enumerate(P.row(h)):
                w = planar.vsub(p, q)
                diffs[vkey(w)] = (w, E[0][a] - E[h][b])
        hull = _hull(list(diffs.values()))
        values = [list(searcher.side_values(h, d)) for d in hull]
        assert len(searcher.regions[h]) == len(hull)
        ones = [1] * len(hull)
        for vals in values:
            assert sorted(v.sign() for v in vals) == [0, 0] + ones[2:]
        for u, v in zip(values, values[1:] + values[:1]):
            assert sorted((x + y).sign() for x, y in zip(u, v)) == (
                [0] + ones[1:])
        assert [sum(col).sign() for col in zip(*values)] == ones
    # the base itself, a copy across a side, and one reflected back
    root = _root_copy(searcher)
    assert searcher.blocks(root, root)
    for s in range(searcher.k):
        there = searcher.reflect_copy(root, s)
        assert not searcher.blocks(root, there)
        assert searcher.blocks(root, searcher.reflect_copy(there, s))
        assert searcher.legal_child(_Node((root, there)), 1, s) is None


def test_a_coinciding_mirror_image_overlaps():
    # the isosceles base (3pi/8, 3pi/8, pi/4) is its own mirror image
    # across an axis of D_8: the copy x -> h.x + d with h that
    # reflection and the base's vertex set has d inside D_h
    searcher = _searcher("3", 4, 6)
    E, found = searcher.E, []
    for h in range(1, 2 * searcher.N):
        for v in E[h]:
            d = E[0][0] - v
            if sorted(x + d for x in E[h]) == sorted(E[0]):
                assert all(y.sign() > 0 for y in searcher.side_values(h, d))
                found.append(h)
    assert len(found) == 1 and found[0] >= searcher.N


@pytest.mark.parametrize("N", range(1, 13))
def test_integer_group_law(N):
    # the products of D_N read from indices alone, for any base axis
    for base in (F(0), F(1, 3 * N), F(2, 7 * N)):
        G = DihedralGroup(N, base)
        els = G.elements()
        assert G.multiplication_table() == [
            [G.index_of(compose(a, b)) for b in els] for a in els]


def _refl_lin_by_composition(searcher):
    """Reflecting copy g across its side s, composed as linear maps:
    the reflection across the image of side s's direction, after g."""
    return [
        [searcher.G.index_of(compose(LinearMap("ref", 
            apply_angle(g, e.direction.multiple) % 1), g))
         for e in searcher.P.edges]
        for g in searcher.G.elements()
    ]


_BASES = ([("1", n) for n in range(3, 9)] + [("2", n) for n in range(4, 10)]
          + [("3", n) for n in range(3, 8)] + [("4", n) for n in (5, 6, 7)]
          + [("5a", None), ("5b", None), ("5c", None), ("7", None),
             ("8", None), ("9a", 7), ("9a", 9), ("9b", 5), ("9b", 7),
             ("10", None)] + [("6", n) for n in range(4, 8)])


def test_reflection_table_matches_composition():
    # every catalog base that passes the pre-checks, and one
    # intermediate outline of the second class
    searchers = []
    for family, n in _BASES:
        e = make_entry(family, n)
        if not (e.facts.get("square_tiled")
                or e.facts.get("all_vertex_points_periodic")):
            searchers.append(_searcher(family, n, 4))
    outline = tile_by_words(make_entry("2", 5).polygon, [
        [], [0], [2], [2, 0], [0, 1], [0, 2]]).outline
    searchers.append(_Search(outline, _StatusOracle(unfold(outline), {}),
                             4, max_nodes=200000))
    assert len(searchers) > 10
    for searcher in searchers:
        assert searcher.refl_lin == _refl_lin_by_composition(searcher)


@pytest.mark.parametrize("family,n,K", [("6", 5, 8), ("2", 5, 8),
                                        ("2", 7, 8), ("5a", None, 10)])
def test_forced_closure_does_not_depend_on_order(family, n, K):
    # each round of the closure adds every copy forced at its start, so
    # for every child the search closes, reading its points and each
    # point's external sides in a shuffled order gives the same tag
    rng = random.Random(20261020)
    searcher = _searcher(family, n, K)
    calls = []
    real = searcher.forced_prune

    def forced_prune(node, an):
        calls.append((node, an, real(node, an)))
        return calls[-1][2]

    searcher.forced_prune = forced_prune
    report = SearchReport(family, n, 1, K, "none_found",
                          statistics={"nodes": 0})
    _run_enumeration(searcher, report, want="appropriate")
    assert {tag for *_, tag in calls} - {None}
    for node, an, tag in calls:
        shuffled = an.copy()
        items = list(shuffled.points.items())
        rng.shuffle(items)
        for _, rec in items:
            rng.shuffle(rec["ext"])
        shuffled.points = dict(items)
        assert real(node, shuffled) == tag


@functools.cache
def _float_rows(P):
    """g.v_j as floats for each element g of G_P."""
    return [[(float(x), float(y)) for x, y in P.row(h)]
            for h in range(2 * P.group().N)]


def _float_vertex(searcher, word):
    """Float position of base vertex 0 in the copy a word reaches,
    chained from float rows: reflecting g.x + t across side s gives
    g'.x + t + g.v_s - g'.v_s."""
    rows = _float_rows(searcher.P)
    lin, tx, ty = 0, 0.0, 0.0
    for s in word:
        new = searcher.refl_lin[lin][s]
        tx += rows[lin][s][0] - rows[new][s][0]
        ty += rows[lin][s][1] - rows[new][s][1]
        lin = new
    return rows[lin][0][0] + tx, rows[lin][0][1] + ty


def _float_class(searcher, copies):
    """A congruence key that does not read the exact anchors: each
    copy's group element and the float position of its base vertex 0
    (`_float_vertex`), moved by every group element, centred on their
    mean and rounded to a 1e-4 grid (the smallest gap between distinct
    positions here is far larger)."""
    verts = [_float_vertex(searcher, c.word) for c in copies]
    mx = sum(x for x, _ in verts) / len(copies)
    my = sum(y for _, y in verts) / len(copies)
    best = None
    for gi, g in enumerate(searcher.G.elements()):
        th = math.pi * float(g.param) * (1 if g.kind == "rot" else 2)
        a, b = math.cos(th), math.sin(th)
        m = (a, -b, b, a) if g.kind == "rot" else (a, b, b, -a)
        key = []
        for c, (x, y) in zip(copies, verts):
            x, y = x - mx, y - my
            key.append((
                searcher.mult[gi][c.lin],
                round((m[0] * x + m[1] * y) * 1e4) + 0,
                round((m[2] * x + m[3] * y) * 1e4) + 0,
            ))
        key.sort()
        if best is None or key < best:
            best = key
    return tuple(best)


def _counts_allowed(searcher, an):
    """Does every labelled point's corner count lie in ok_counts?"""
    return all(len(rec["corners"]) in searcher.ok_counts[rec["label"]]
               for rec in an.points.values() if rec["label"] is not None)


def _classes_without_dedup(family, n, max_copies, forced):
    """Every tiling reachable by legal moves and subtree prunes alone,
    merged only when it is the same set of placed copies.  Maps each
    class (by _float_class) to [whether some path reaches it without
    passing through a class in `forced`, whether every labelled point's
    count lies in ok_counts]."""
    searcher = _searcher(family, n, max_copies)
    root = _Node((_root_copy(searcher),))
    level = [(root, True)]
    classes = {}
    while level:
        nxt = {}
        for node, clean in level:
            cls = _float_class(searcher, node.copies)
            an = searcher.analyze_node(node)
            seen = classes.setdefault(cls, [False, _counts_allowed(
                searcher, an)])
            seen[0] = seen[0] or clean
            if len(node.copies) >= max_copies:
                continue
            if len(node.copies) > 1 and searcher.subtree_prune(node, an):
                continue
            clean = clean and cls not in forced
            for ci, s in an.external:
                new = searcher.legal_child(node, ci, s)
                if new is None:
                    continue
                child = _Node(node.copies + (new,))
                ident = frozenset((c.lin, c.anchors[0]) for c in child.copies)
                _, seen_clean = nxt.get(ident, (None, False))
                nxt[ident] = (child, clean or seen_clean)
        level = list(nxt.values())
    return classes


@pytest.mark.parametrize("family,n", [("2", 5), ("2", 7)])
def test_search_reaches_every_class(family, n):
    # differential check against an enumeration with no congruence
    # deduplication and no forced closure: the search reaches every
    # class that some path reaches without meeting a forced prune, and
    # no class in which every labelled point's count lies in ok_counts
    # is lost below one, which is the closure's soundness claim.  At
    # K=8 the search loses 104 of 351 classes (2 n=5) and 86 of 307
    # (2 n=7), each below a forced prune; 10 and 7 have every count
    # allowed.
    K = 8
    searcher = _searcher(family, n, K)
    keys, reached, forced = [], set(), set()
    real_key, real_prune = searcher.canonical_key, searcher.forced_prune

    def key(copies):
        keys.append(real_key(copies))
        reached.add(_float_class(searcher, copies))
        return keys[-1]

    def forced_prune(node, an):
        tag = real_prune(node, an)
        if tag is not None:
            forced.add(_float_class(searcher, an.copies))
        return tag

    searcher.canonical_key, searcher.forced_prune = key, forced_prune
    report = SearchReport(family, n, 1, K, "none_found",
                          statistics={"nodes": 0})
    _run_enumeration(searcher, report, want="appropriate")
    repeats = report.statistics["congruent repeats"]
    assert len(keys) == len(set(keys)) + repeats
    # exact keys and float classes agree on every tiling the search met
    assert len(set(keys)) == len(reached)
    assert forced

    classes = _classes_without_dedup(family, n, K, forced)
    assert reached <= set(classes)
    lost = [c for c in classes if c not in reached]
    assert lost
    assert not any(classes[c][0] for c in lost)
    assert not any(classes[c][1] for c in lost)
    assert any(ok for _, ok in classes.values())


@pytest.mark.parametrize("family,n", [("5c", None), ("2", 5)])
def test_status_oracle_tries_split_then_defaults(family, n):
    # the oracle makes one classification per class; its status must be
    # what the split direction alone, then the default list, gave
    e = make_entry(family, n)
    M = unfold(e.polygon)
    split = e.facts["split_direction"]
    if family == "5c":
        assert split not in default_directions(M)
    oracle = _StatusOracle(M, e.facts)
    for cp in M.cone_points():
        v = None
        if cp.angle.multiple in e.facts["non_periodic_vertex_angles"]:
            v = classify_point(M, cp, directions=[split])
        if v is None or v.status == "unknown":
            v = classify_point(M, cp)
        assert oracle[cp.class_id] == v.status


def test_status_oracle_decomposes_each_direction_once(monkeypatch):
    # 6 n=5 has two classes at the known angle pi/5: the first miss
    # classifies both against the split direction in one call
    decomposed = []
    real = periodicity.cylinder_decomposition

    def counting(M, theta):
        decomposed.append(F(theta) % 2)
        return real(M, theta)

    monkeypatch.setattr(periodicity, "cylinder_decomposition", counting)
    r = search_appropriate(make_entry("6", 5), 8)
    assert r.statistics["nodes"] > 0
    assert decomposed == [F(1, 10)]
