import math
from fractions import Fraction as F

import pytest

from flatbilliards import periodicity
from flatbilliards.catalog import make_entry
from flatbilliards.covers import analyze_cover, motion_from_word, tile_by_words
from flatbilliards.periodicity import classify_point, default_directions
from flatbilliards.planar import vkey
from flatbilliards.polygons import DihedralGroup, LinearMap
from flatbilliards.search import (
    SearchReport,
    _Node,
    _root_copy,
    _run_enumeration,
    _sat_disjoint,
    _Search,
    _StatusOracle,
    node_from_words,
    search_appropriate,
)
from flatbilliards.unfolding import unfold
from reference import compose


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
    for c in a.copies + b.copies:
        c.shift = None  # the key reads the exact anchors only
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
            motion = motion_from_word(e.polygon, w)
            packed += c.vkeys
            exact += [vkey(motion.apply(v)) for v in e.polygon.vertices()]
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


@pytest.mark.parametrize("family,n,K", [("2", 5, 6), ("5a", None, 10)])
def test_identity_reads_no_float(family, n, K):
    # which vertices, sides and translates coincide is decided by the
    # exact vertex keys and anchors: with every float vertex gone,
    # the root's and every child's analysis and _translation_recurrence
    # give the same answers, and so does every step of forced_sim's
    # running analysis
    searcher = _searcher(family, n, K)
    analyses, recurrences, steps = [], [], []
    real_an, real_rec = searcher.analyze_node, searcher._translation_recurrence
    real_add, real_child = searcher.add_copy, searcher.child_analysis

    def analyze(node):
        analyses.append((node.copies, real_an(node)))
        return analyses[-1][1]

    def child_analysis(an, c):
        analyses.append((tuple(an.copies) + (c,), real_child(an, c)))
        return analyses[-1][1]

    def recurrence(copies):
        recurrences.append((tuple(copies), real_rec(copies)))
        return recurrences[-1][1]

    def add_copy(an, c):
        real_add(an, c)
        steps.append((tuple(an.copies), list(an.sides.values()),
                      _point_rows(an.points)))

    searcher.analyze_node = analyze
    searcher.child_analysis = child_analysis
    searcher._translation_recurrence = recurrence
    searcher.add_copy = add_copy
    report = SearchReport(family, n, 1, K, "none_found",
                          statistics={"nodes": 0})
    _run_enumeration(searcher, report, want="appropriate")
    del searcher.add_copy
    if family == "5a":
        assert {hit for _, hit in recurrences} == {True, False}
    assert len(analyses) > report.statistics["nodes"]
    assert max(len(copies) for copies, _, _ in steps) > K
    for copies, *_ in analyses + recurrences + steps:
        for c in copies:
            c.shift = None
    fields = ("external", "points", "boundary", "complete")
    for copies, an in analyses:
        again = real_an(_Node(copies))
        assert all(getattr(again, f) == getattr(an, f) for f in fields)
    for copies, hit in recurrences:
        assert real_rec(copies) == hit
    for copies, external, rows in steps:
        again = real_an(_Node(copies))
        assert again.external == external
        assert _point_rows(again.points) == rows


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
    # tables and in forced_sim's running analysis, the sides and points
    # are, in order, what a rebuild gives; the analysis each node is
    # expanded with and each replay's starting tables are those of a
    # rebuild too, and a replay leaves the tables it starts from (which
    # the node keeps for its expansion) as they were.  Every read of
    # the replay's legality table answers as a fresh legal_child on a
    # new node.  The nodes are the retained lists and those the search
    # replays from (5a at K=10 retains none).
    searcher = _searcher(family, n, K)
    nodes, reads = [], []
    real_sim, real_add = searcher.forced_sim, searcher.add_copy
    real_child, real_eval = searcher.grown_child, searcher.evaluate

    def whole(an, copies):
        assert an.copies == list(copies)
        assert (an.external, _point_rows(an.points),
                _point_rows(an.boundary), an.complete) == _rebuilt(
                    searcher, copies)

    def sim(an):
        whole(an, an.copies)
        before = _tables(an)
        hit = real_sim(an)
        assert _tables(an) == before
        nodes.append(_Node(tuple(an.copies)))
        return hit

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

    searcher.forced_sim, searcher.add_copy = sim, add_copy
    searcher.evaluate = evaluate
    report = SearchReport(family, n, 1, K, "none_found",
                          statistics={"nodes": 0})
    _run_enumeration(searcher, report, want="appropriate")
    del searcher.forced_sim, searcher.evaluate
    nodes += [node_from_words(searcher, words)
              for kept in report.rejected.values() for words in kept]
    assert nodes
    for node in nodes:
        for i in range(1, len(node.copies) + 1):
            prefix = node.copies[:i]
            an = searcher.analyze_node(_Node(prefix))
            assert (an.external, _point_rows(an.points),
                    _point_rows(an.boundary), an.complete) == _rebuilt(
                        searcher, prefix)
    searcher.grown_child = grown_child
    for node in nodes:
        searcher.forced_sim(searcher.analyze_node(node))
    del searcher.grown_child, searcher.add_copy
    assert max(len(copies) for copies, *_ in reads) > K
    for copies, ci, s, new in reads:
        fresh = searcher.legal_child(_Node(copies), ci, s)
        assert (new is None) == (fresh is None)
        if new is not None:
            assert (new.lin, new.vkeys, new.anchors) == (
                fresh.lin, fresh.vkeys, fresh.anchors)


def test_each_node_is_analysed_once():
    # a node's tables are built once, as its parent's plus one copy, and
    # serve its subtree prune, its forced replay and its expansion.  So
    # outside forced_sim the enumeration makes one add_copy per analysed
    # node: the root's and one per child it prunes or keeps.  Inside,
    # every add_copy is a replayed move past the node's own copies.
    searcher = _searcher("2", 5, 8)
    outside, inside, folds, pruned = [], [], [], []
    replaying = []
    real_add, real_sim = searcher.add_copy, searcher.forced_sim
    real_an, real_prune = searcher.analyze_node, searcher.subtree_prune

    def add_copy(an, c):
        real_add(an, c)
        (inside if replaying else outside).append(len(an.copies))
        if replaying:
            assert len(an.copies) > replaying[-1]

    def sim(an):
        replaying.append(len(an.copies))
        try:
            return real_sim(an)
        finally:
            replaying.pop()

    def analyze(node):
        folds.append(len(replaying))
        return real_an(node)

    def prune(node, an):
        pruned.append(node)
        return real_prune(node, an)

    searcher.add_copy, searcher.forced_sim = add_copy, sim
    searcher.analyze_node, searcher.subtree_prune = analyze, prune
    report = SearchReport("2", 5, 1, 8, "none_found",
                          statistics={"nodes": 0})
    _run_enumeration(searcher, report, want="appropriate")
    assert report.statistics["nodes"] == 299
    assert inside
    assert folds == [0]
    assert len(outside) == len(pruned) + 1


def test_float_vertices_are_made_only_when_read(monkeypatch):
    # a copy keeps its float shift; full float rows are made only for
    # the overlap table's misses, two per float test.  Each vertex is
    # bit for bit the float a chain of reflections of whole float rows
    # gives: g'.v_j + (g.v_s + t) - g'.v_s, starting from FV[0].
    import flatbilliards.search as search_mod

    rows, tests = [], []
    real_verts, real_sat = search_mod._Copy.verts, search_mod._sat_disjoint

    def verts(c):
        rows.append(1)
        return real_verts.fget(c)

    def sat(A, B):
        tests.append(1)
        return real_sat(A, B)

    monkeypatch.setattr(search_mod._Copy, "verts", property(verts))
    monkeypatch.setattr(search_mod, "_sat_disjoint", sat)
    searcher = _searcher("2", 5, 8)
    report = SearchReport("2", 5, 1, 8, "none_found",
                          statistics={"nodes": 0})
    _run_enumeration(searcher, report, want="appropriate")
    assert tests and len(rows) <= 2 * len(tests)

    def chained(word):
        lin, vs = 0, searcher.fverts[0]
        for s in word:
            new = searcher.refl_lin[lin][s]
            tx = vs[s][0] - searcher.fverts[new][s][0]
            ty = vs[s][1] - searcher.fverts[new][s][1]
            lin, vs = new, tuple((x + tx, y + ty)
                                 for x, y in searcher.fverts[new])
        return [(x.hex(), y.hex()) for x, y in vs]

    lists = [w for kept in report.rejected.values() for w in kept]
    assert lists
    for words in lists:
        for c, w in zip(node_from_words(searcher, words).copies, words):
            assert [(x.hex(), y.hex()) for x, y in c.verts] == chained(w)
            assert [(x.hex(), y.hex()) for x, y in map(
                c.vert, range(searcher.k))] == chained(w)


_PINNED = [
    ("2", 5, 6, {"nodes": 66, "congruent repeats": 110, "even angle": 62,
                 "infinite forcing": 1, "locked periodic branch": 2,
                 "two branch points": 3, "unbranched (lattice)": 1},
     {"locked periodic branch": 2, "two branch points": 3}),
    ("2", 7, 6, {"nodes": 60, "angle overflow": 6, "congruent repeats": 105,
                 "even angle": 56, "infinite forcing": 1,
                 "two branch points": 3, "unbranched (lattice)": 1},
     {"two branch points": 3}),
    ("6", 5, 6, {"nodes": 21, "congruent repeats": 20, "even angle": 19,
                 "infinite forcing": 1, "locked periodic branch": 1,
                 "locked two branch points": 1, "two branch points": 1,
                 "unbranched (lattice)": 1},
     {"locked periodic branch": 1, "locked two branch points": 1,
      "two branch points": 1}),
    ("5a", None, 10, {"nodes": 11, "congruent repeats": 24, "even angle": 11,
                      "infinite forcing": 24},
     {}),
    # the benchmark's three searches
    ("6", 5, 8, {"nodes": 33, "congruent repeats": 34, "even angle": 31,
                 "infinite forcing": 2, "locked periodic branch": 4,
                 "locked two branch points": 4, "two branch points": 1,
                 "unbranched (lattice)": 1},
     {"locked periodic branch": 4, "locked two branch points": 4,
      "two branch points": 1}),
    ("2", 5, 8, {"nodes": 299, "congruent repeats": 722, "even angle": 292,
                 "infinite forcing": 20, "locked periodic branch": 31,
                 "two branch points": 6, "unbranched (lattice)": 1},
     {"locked periodic branch": 31, "two branch points": 6}),
    ("2", 7, 8, {"nodes": 234, "angle overflow": 53, "congruent repeats": 575,
                 "even angle": 227, "infinite forcing": 16,
                 "two branch points": 6, "unbranched (lattice)": 1},
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


@pytest.mark.parametrize("family,n,K", [("2", 5, 6), ("2", 7, 6),
                                        ("6", 5, 6), ("5a", None, 10)])
def test_overlap_table_matches_the_direct_test(family, n, K):
    # whether a copy blocks a new one is read from a table keyed by
    # their relative placement; every read, forced replays included,
    # must give what the direct test gives on the pair being read
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
    for c, new, hit in reads:
        assert hit == (c.vset == new.vset
                       or not _sat_disjoint(new.verts, c.verts))


def test_overlap_floats_run_once_per_placement(monkeypatch):
    # 2 n=5 at K=8 tests about 39,000 pairs over about 320 relative
    # placements: the float test runs at most once for each
    import flatbilliards.search as search_mod

    calls = []
    real = search_mod._sat_disjoint

    def counting(A, B):
        calls.append(1)
        return real(A, B)

    monkeypatch.setattr(search_mod, "_sat_disjoint", counting)
    searcher = _searcher("2", 5, 8)
    report = SearchReport("2", 5, 1, 8, "none_found",
                          statistics={"nodes": 0})
    _run_enumeration(searcher, report, want="appropriate")
    assert report.statistics["nodes"] == 299
    assert len(calls) <= len(searcher.overlap)
    assert len(calls) < 1000


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
        [searcher.G.index_of(compose(LinearMap.reflection(
            g.apply_angle(e.direction.multiple) % 1), g))
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


def _float_class(searcher, copies):
    """A congruence key that does not read the exact anchors: each
    copy's group element and the float position of its base vertex 0,
    moved by every group element, centred on their mean and rounded to
    a 1e-4 grid (the smallest gap between distinct positions here is
    far larger)."""
    mx = sum(c.vert(0)[0] for c in copies) / len(copies)
    my = sum(c.vert(0)[1] for c in copies) / len(copies)
    best = None
    for gi, g in enumerate(searcher.G.elements()):
        th = math.pi * float(g.param) * (1 if g.kind == "rot" else 2)
        a, b = math.cos(th), math.sin(th)
        m = (a, -b, b, a) if g.kind == "rot" else (a, b, b, -a)
        key = []
        for c in copies:
            x, y = c.vert(0)[0] - mx, c.vert(0)[1] - my
            key.append((
                searcher.mult[gi][c.lin],
                round((m[0] * x + m[1] * y) * 1e4) + 0,
                round((m[2] * x + m[3] * y) * 1e4) + 0,
            ))
        key.sort()
        if best is None or key < best:
            best = key
    return tuple(best)


def _classes_without_dedup(family, n, max_copies, forcing):
    """Every tiling reachable by legal moves and subtree prunes alone,
    merged only when it is the same set of placed copies.  Maps each
    class (by _float_class) to whether some path reaches it without
    passing through a class in `forcing`."""
    searcher = _searcher(family, n, max_copies)
    root = _Node((_root_copy(searcher),))
    level = [(root, True)]
    classes = {}
    while level:
        nxt = {}
        for node, clean in level:
            cls = _float_class(searcher, node.copies)
            classes[cls] = classes.get(cls, False) or clean
            if len(node.copies) >= max_copies:
                continue
            an = searcher.analyze_node(node)
            if len(node.copies) > 1 and searcher.subtree_prune(node, an):
                continue
            clean = clean and cls not in forcing
            for ci, s in an.external:
                new = searcher.legal_child(node, ci, s)
                if new is None:
                    continue
                child = _Node(node.copies + (new,))
                ident = frozenset((c.lin, c.vset) for c in child.copies)
                _, seen_clean = nxt.get(ident, (None, False))
                nxt[ident] = (child, clean or seen_clean)
        level = list(nxt.values())
    return classes


@pytest.mark.parametrize("family,n", [("2", 5), ("2", 7)])
def test_search_reaches_every_class(family, n):
    # differential check against an enumeration with no congruence
    # deduplication: the search reaches every class, except classes it
    # can only reach below an "infinite forcing" prune (that heuristic
    # replays the moves of the one representative it is given)
    K = 6
    searcher = _searcher(family, n, K)
    keys, reached, forcing = [], set(), set()
    real_key, real_sim = searcher.canonical_key, searcher.forced_sim

    def key(copies):
        keys.append(real_key(copies))
        reached.add(_float_class(searcher, copies))
        return keys[-1]

    def sim(an):
        hit = real_sim(an)
        if hit:
            forcing.add(_float_class(searcher, an.copies))
        return hit

    searcher.canonical_key, searcher.forced_sim = key, sim
    report = SearchReport(family, n, 1, K, "none_found",
                          statistics={"nodes": 0})
    _run_enumeration(searcher, report, want="appropriate")
    repeats = report.statistics["congruent repeats"]
    assert len(keys) == len(set(keys)) + repeats
    # exact keys and float classes agree on every tiling the search met
    assert len(set(keys)) == len(reached)

    classes = _classes_without_dedup(family, n, K, forcing)
    assert reached <= set(classes)
    lost = [c for c in classes if c not in reached]
    assert not any(classes[c] for c in lost)


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
