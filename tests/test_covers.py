import functools
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from flatbilliards import covers, fileio, planar
from flatbilliards.catalog import make_entry
from flatbilliards.cli import main
from flatbilliards.covers import (
    CoverError,
    _config_key,
    analyze_cover,
    appropriate_verdict,
    copies_from_words,
    tile_by_words,
    tiling_symmetries,
    verify_tiling,
)
from flatbilliards.cyclotomic import embed
from flatbilliards.polygons import (
    Edge,
    LinearMap,
    Polygon,
    PolygonError,
    angle_data,
    group_of,
    triangle_from_angles,
)
from flatbilliards.unfolding import unfold
from reference import (
    apply_motion,
    apply_vec,
    compose,
    minus_id_screen,
    motion_by_reflections,
)


IDENTITY = (0, planar.ORIGIN)  # a copy: group index and shift


def _copy_key(copy):
    g, t = copy
    return g, planar.vkey(t)


def square():
    return Polygon(
        [Edge(F(0), 1), Edge(F(1, 2), 1), Edge(F(1), 1), Edge(F(3, 2), 1)]
    )


def fan_words(count, s1=0, s2=2):
    """Reflection words for a fan of `count` copies around vertex 0."""
    return [
        [(s1 if i % 2 == 0 else s2) for i in range(j)] for j in range(count)
    ]


P5 = (F(1, 2), F(1, 5), F(3, 10))
P8 = (F(1, 2), F(1, 8), F(3, 8))


def corpus():
    """Verified tilings exercising degrees 1..6 and all branch shapes."""
    t5 = triangle_from_angles(*P5)
    t8 = triangle_from_angles(*P8)
    sq = square()
    return [
        ("identity right triangle", tile_by_words(t5, [[]])),
        ("identity octagon triangle", tile_by_words(t8, [[]])),
        ("identity square", tile_by_words(sq, [[]])),
        ("double to acute isoceles", tile_by_words(t5, [[], [1]])),
        ("double to obtuse isoceles", tile_by_words(t5, [[], [2]])),
        ("double to kite", tile_by_words(t5, [[], [0]])),
        ("fan of 3 (octagon)", tile_by_words(t8, fan_words(3))),
        ("fan of 4 (octagon)", tile_by_words(t8, fan_words(4))),
        ("fan of 6 (octagon)", tile_by_words(t8, fan_words(6))),
        ("fan of 3 (pentagon)", tile_by_words(t5, fan_words(3))),
        ("checkerboard", tile_by_words(sq, [[], [0], [1], [1, 0]])),
        ("domino", tile_by_words(sq, [[], [1]])),
    ]


def test_riemann_hurwitz_corpus():
    seen = 0
    for name, t in corpus():
        a = analyze_cover(t)
        # analyze_cover already enforces these; re-assert them here
        assert a.chi_cover == a.degree * a.chi_base - a.total_ramification
        assert a.n_copies == a.degree * a.subgroup_index
        assert a.rh_consistent
        if a.total_ramification > 0:
            assert a.genus_cover > 1 + a.degree * (a.genus_base - 1)
        seen += 1
    assert seen >= 10


def test_identity_tiling_is_the_base():
    P = triangle_from_angles(*P5)
    t = tile_by_words(P, [[]])
    assert t.outline.canonical_key() == P.canonical_key()
    a = analyze_cover(t)
    assert a.degree == 1 and a.total_ramification == 0
    assert a.chi_cover == a.chi_base


def test_double_to_acute_isoceles_unbranched_degree_one():
    t = tile_by_words(triangle_from_angles(*P5), [[], [1]])
    got = sorted(a.multiple for a in t.outline.angles())
    assert got == [F(1, 5), F(1, 5), F(3, 5)]
    a = analyze_cover(t)
    assert a.degree == 1 and a.total_ramification == 0
    v = appropriate_verdict(a)
    assert v["appropriate"] is False
    assert "unbranched cover" in v["reasons"]


def test_double_to_obtuse_isoceles_branched_over_both_centers():
    t = tile_by_words(triangle_from_angles(*P5), [[], [2]])
    got = sorted(a.multiple for a in t.outline.angles())
    assert got == [F(3, 10), F(3, 10), F(2, 5)]
    a = analyze_cover(t)
    assert a.degree == 2
    branched = a.branched_classes()
    # the doubled apex winds twice around each of the two regular
    # classes of the base's 1/5-angle vertex: k=2, e=2, 2 does not
    # divide 5
    assert len(branched) == 2
    for bp in branched:
        assert bp.angle == F(1, 5)
        assert bp.ram_indices == (2,) and bp.multipliers == (2,)
    assert a.chi_cover == -6 == 2 * (-2) - 2
    v = appropriate_verdict(a)
    assert v["appropriate"] is False
    assert "two branch points" in v["reasons"]


def test_kite_also_branches_over_both_centers():
    t = tile_by_words(triangle_from_angles(*P5), [[], [0]])
    assert len(t.outline.edges) == 4
    a = analyze_cover(t)
    assert a.degree == 2
    assert len(a.branched_classes()) == 2
    assert len(tiling_symmetries(t)) == 2  # the mirror axis


def test_degree_three_fan_reaches_genus_five():
    # base genus 2, degree 3, a single branch point with e = 3:
    # chi = 3*(-2) - 2 = -8, so the cover has genus 5
    t = tile_by_words(triangle_from_angles(*P8), fan_words(3))
    a = analyze_cover(t)
    assert a.degree == 3 and a.genus_base == 2
    branched = a.branched_classes()
    assert len(branched) == 1
    assert branched[0].ram_indices == (3,)
    assert a.chi_cover == -8 and a.genus_cover == 5
    v = appropriate_verdict(a)
    assert v["appropriate"] is False
    assert "branch point is periodic" in v["reasons"]


def test_simple_double_branching_parity_exclusion():
    # a degree-2 cover with exactly one simple branch point would have
    # odd Euler characteristic, which no closed surface has; every
    # degree-2 cover in the corpus must carry even total ramification
    found_double = 0
    for name, t in corpus():
        a = analyze_cover(t)
        assert a.chi_cover % 2 == 0
        if a.degree == 2:
            found_double += 1
            assert a.total_ramification % 2 == 0
            assert (2 * a.chi_base - 1) % 2 == 1  # the excluded value
    assert found_double >= 2


def test_checkerboard_cover_of_the_square():
    t = tile_by_words(square(), [[], [0], [1], [1, 0]])
    assert sorted(a.multiple for a in t.outline.angles()) == [F(1, 2)] * 4
    a = analyze_cover(t)
    assert a.degree == 4 and a.total_ramification == 0
    assert a.chi_base == a.chi_cover == 0
    assert len(tiling_symmetries(t)) == 4


def test_unbranched_preimage_multiplier_one():
    # every multiplier-1 vertex is an unramified preimage
    t = tile_by_words(triangle_from_angles(*P5), [[], [1]])
    a = analyze_cover(t)
    for bp in a.branch_points:
        for kk, e in zip(bp.multipliers, bp.ram_indices):
            if kk == 1:
                assert e == 1


def test_word_motions():
    P = triangle_from_angles(*P5)
    empty, once, twice = copies_from_words(P, [[], [0], [0, 0]])
    assert _copy_key(empty) == _copy_key(IDENTITY)
    assert once[0] >= P.group().N  # a reflection
    assert _copy_key(twice) == _copy_key(IDENTITY)


def test_rejects_overlapping_copies():
    # 7 copies fanned around the 3pi/10 vertex of (1/2, 1/5, 3/10) turn
    # 21pi/10: each copy mirrors the one before across a shared side and
    # no two coincide, so only the outline shows the overlap
    P = triangle_from_angles(*P5)
    assert P.angles()[1].multiple == F(3, 10)
    words = fan_words(7, 0, 1)
    assert tile_by_words(P, words[:6]).n_copies == 6
    assert len({_copy_key(c) for c in copies_from_words(P, words)}) == 7
    with pytest.raises(
        CoverError, match="copies overlap or cross: outline is not a simple"
    ):
        tile_by_words(P, words)


def test_pinch_refusal_names_an_overlap():
    # over 6 n=5 the outline walk of these six copies meets a point
    # twice, yet the first three copies already overlap: the refusal
    # names both causes
    P = make_entry("6", 5).polygon
    words = [[], [0], [1], [1, 0], [1, 0, 2], [0, 2]]
    with pytest.raises(CoverError, match="copies overlap or cross"):
        tile_by_words(P, words[:3])
    with pytest.raises(
        CoverError,
        match="copies overlap or the union touches itself: outline is "
        "pinched at a point",
    ):
        tile_by_words(P, words)


def test_rejects_coinciding_copies():
    P = triangle_from_angles(*P5)
    with pytest.raises(CoverError, match="coincide"):
        tile_by_words(P, fan_words(11))


def test_rejects_disconnected_union():
    sq = square()
    far = (0, (embed(5), embed(0)))
    with pytest.raises(CoverError, match="disconnected"):
        verify_tiling(sq, [IDENTITY, far])


def test_rejects_translation_as_adjacency():
    sq = square()
    shifted = (0, (embed(1), embed(0)))
    with pytest.raises(CoverError, match="mirror"):
        verify_tiling(sq, [IDENTITY, shifted])


def test_rejects_partial_side_sharing():
    sq = square()
    half_up = (sq.group().index_of(LinearMap("ref", F(1, 2))),
               (embed(2), embed(F(1, 2))))
    # a side shared in part is no shared side, so nothing joins the two
    with pytest.raises(CoverError, match="disconnected"):
        verify_tiling(sq, [IDENTITY, half_up])


def test_rejects_group_index_out_of_range():
    # D_2 of the square has indices 0..3; any iterable of copies is read
    sq = square()
    for bad in (-1, 4, 7):
        with pytest.raises(CoverError, match=r"group index -?\d+ is outside "
                           r"0\.\.3, the base polygon's reflection group"):
            verify_tiling(sq, [IDENTITY, (bad, (embed(0), embed(0)))])
    copies = copies_from_words(sq, [[], [1]])
    assert verify_tiling(sq, iter(copies)).indices == (0, copies[1][0])


# ---------------------------------------------------------------------------
# the outline argument against the pairwise rule it replaced


def _reference_pairwise_refusal(P, motions):
    """The pairwise side and vertex tests verify_tiling once ran: the
    message they refused with, or None."""
    k = len(P.edges)
    copies = [[apply_motion(mo, v) for v in P.vertices()] for mo in motions]
    sides = [
        (c, verts[s], verts[(s + 1) % k])
        for c, verts in enumerate(copies)
        for s in range(k)
    ]
    for i, (ci, a1, b1) in enumerate(sides):
        for cj, a2, b2 in sides[i + 1:]:
            ends = {planar.vkey(a1), planar.vkey(b1)}
            if ci == cj or ends == {planar.vkey(a2), planar.vkey(b2)}:
                continue
            info = planar.segments_overlap_info(a1, b1, a2, b2)
            if info == "overlap":
                return "copies share a partial side"
            if info == "point" and not any(
                planar.veq(p, q) for p in (a1, b1) for q in (a2, b2)
            ):
                return "copy boundaries cross or form a T-junction"
    for mo, verts in zip(motions, copies):
        ring = verts if mo.orth.det == 1 else verts[::-1]
        for other in copies:
            if other is verts:
                continue
            for v in other:
                if not any(
                    planar.on_segment(v, verts[s], verts[(s + 1) % k])
                    for s in range(k)
                ) and planar.point_in_polygon(v, ring):
                    return "copies overlap"
    return None


def _grown_words(P, rng, count):
    """Reflection-grown words: each new copy mirrors an earlier one
    across one of its sides, so the union is connected; copies may
    overlap, and no two are the same copy."""
    words, seen = [[]], {_copy_key(IDENTITY)}
    while len(words) < count:
        last = words[-1] if rng.random() < 0.5 else rng.choice(words)
        w = last + [rng.randrange(len(P.edges))]
        key = _copy_key(copies_from_words(P, [w])[0])
        if key not in seen:
            seen.add(key)
            words.append(w)
    return words


def _brute_symmetries(t):
    """Indices of the group elements whose rotated or reflected copies
    have the tiling's key: the moved-copy test tiling_symmetries once
    ran on every element."""
    base = _config_key(t.copy_vertices)
    return [
        gi
        for gi, g in enumerate(group_of(t.base).elements())
        if _config_key([tuple(apply_vec(g, v) for v in verts)
                        for verts in t.copy_vertices])
        == base
    ]


SOUNDNESS_BASES = [
    ("2", 5), ("2", 8), ("10", None), ("5a", None), ("8", None), ("6", 5)
]


def test_outline_argument_agrees_with_the_pairwise_rule():
    # the family 8 base has a reflex corner; every tiling below is
    # connected through mirror-shared sides, and many overlap
    rng = random.Random(14)
    accepted = outline_refusals = 0
    for family, n in SOUNDNESS_BASES:
        P = make_entry(family, n).polygon
        for _ in range(8):
            words = _grown_words(P, rng, rng.randint(1, 9))
            # the pairwise rule places copies by reflections across lines
            motions = [motion_by_reflections(P, w) for w in words]
            try:
                t = verify_tiling(P, copies_from_words(P, words))
            except CoverError as exc:
                if "copies overlap or cross" in str(exc):
                    # refusals that the pairwise rule gave before
                    outline_refusals += 1
                    assert _reference_pairwise_refusal(P, motions)
                continue
            # accepted, so the pairwise rule passes: every tiling it
            # refuses is refused
            accepted += 1
            assert _reference_pairwise_refusal(P, motions) is None
            assert tiling_symmetries(t) == _brute_symmetries(t)
    assert accepted >= 30 and outline_refusals >= 5


def test_check_cover_runs_no_pairwise_tests(tmp_path, monkeypatch, capsys):
    # a valid 7-copy tiling through the CLI: side pairs are tested only
    # by Polygon's simplicity check of the base (k sides) and of the
    # outline (E edges), and _config_key runs only for the group
    # elements that map the outline onto a translate of itself
    sq = square()
    words = [[], [1], [2], [3], [0], [3, 2], [3, 0]]
    t = tile_by_words(sq, words)
    G = group_of(sq).elements()
    outline_key = _config_key([t.outline_points])
    passing = [
        g
        for g in G[1:]
        if _config_key([[apply_vec(g, p) for p in t.outline_points]])
        == outline_key
    ]
    assert 0 < len(passing) < len(G) - 1
    calls = {"segments": 0, "config": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        planar,
        "segments_overlap_info",
        counted("segments", planar.segments_overlap_info),
    )
    monkeypatch.setattr(
        covers, "_config_key", counted("config", covers._config_key)
    )
    path = tmp_path / "tiling.json"
    path.write_text(json.dumps(fileio.tiling_to_json(sq, words)))
    assert main(["check-cover", "--in", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["copies"] == 7
    E, k = len(t.outline.edges), len(sq.edges)
    assert calls["segments"] <= E * (E - 1) // 2 + k * (k - 1) // 2
    assert calls["config"] == 1 + len(passing)


# ---------------------------------------------------------------------------
# the group law against the compositions it replaced

COVERS_BASES = [("2", 5), ("2", 8), ("10", None), ("5a", None)]


def test_word_motions_match_reflection_chains():
    # copies (g, t) placed by D_N's law on indices and one shift per
    # step give the motion that chaining reflections across lines gives
    rng = random.Random(19)
    for family, n in COVERS_BASES:
        P = make_entry(family, n).polygon
        G = P.group()
        k = len(P.edges)
        words = [[rng.randrange(k) for _ in range(rng.randint(0, 9))]
                 for _ in range(25)]
        got = copies_from_words(P, words)
        assert [_copy_key(c) for c in got] == [
            (G.index_of(m.orth), planar.vkey(m.shift))
            for m in (motion_by_reflections(P, w) for w in words)
        ]
        assert _copy_key(copies_from_words(P, words[-1:])[0]) == _copy_key(
            got[-1])


def _tilings():
    """Every verified tiling of this file's corpus, and grown tilings
    over the covers bases."""
    out = [t for _, t in corpus()]
    rng = random.Random(7)
    for family, n in COVERS_BASES:
        P = make_entry(family, n).polygon
        for _ in range(6):
            try:
                out.append(tile_by_words(P, _grown_words(P, rng, 4)))
            except CoverError:
                pass
    return out


def test_rechained_symmetries_match_the_moved_copies():
    # tiling_symmetries places g's image of the tiling from P's rows,
    # chained along the mirror pairs from copy 0, and rotates no
    # vector; the reference rotates or reflects every copy's vertices
    moved = 0
    for t in _tilings():
        got = tiling_symmetries(t)
        assert got == _brute_symmetries(t)
        moved += t.n_copies > 1 and len(got) > 1
    assert moved >= 15


def test_image_classes_read_from_the_corner_table():
    # the class of each corner in each chart of the outline's surface:
    # group index products and the surface's corner table against
    # composed linear maps and a scan of the classes
    def reference(M_P, h_lin, g_lin, v):
        gi = M_P.group.index_of(compose(h_lin, g_lin))
        face = M_P.faces[gi]
        (pos,) = [q for q in range(M_P.k) if face.source_vertex[q] == v]
        (cls,) = [c for c in M_P.cone_points() if (gi, pos) in c.corners]
        return cls.class_id

    checked = 0
    for t in _tilings():
        M_P, M_Q = unfold(t.base), unfold(t.outline)
        G = M_P.group
        for face in M_Q.faces:
            h = G.index_of(face.gmap)
            for g in t.indices:
                for v in range(M_P.k):
                    assert covers._image_class(M_P, h, g, v) == reference(
                        M_P, face.gmap, G.element(g), v)
                    checked += 1
    assert checked > 1000


def test_outline_group_read_as_base_indices():
    # G_Q's elements read in G_P by one integer formula, against
    # index_of on the outline surface's face maps; the verdict's fixed
    # point test against the linear maps it once read
    shapes = set()
    single = 0
    for t in _tilings():
        a = analyze_cover(t)
        M_P, M_Q = a.base_surface, a.cover_surface
        G = M_P.group
        got = covers._subgroup_indices(M_Q.group, G)
        assert got == [G.index_of(face.gmap) for face in M_Q.faces]
        assert got == [G.index_of(g) for g in group_of(t.outline).elements()]
        shapes.add((M_P.N // M_Q.N, got[M_Q.N] - M_P.N))
        branched = a.branched_classes()
        if len(branched) != 1:
            continue
        single += 1
        cp = M_P.cone_points()[branched[0].class_id]
        movers = list(group_of(t.outline).elements()) + list(a.H)
        fixed = all(M_P.act_on_class(g, cp) == cp for g in movers)
        statuses = {c.class_id: "non_periodic" for c in M_P.cone_points()}
        reasons = appropriate_verdict(a, statuses)["reasons"]
        assert fixed == (
            "branch point is not fixed by the cover's symmetries"
            not in reasons
        )
    # subgroups of index 1 and 2, with and without a turned axis
    assert {(1, 0), (2, 0), (2, 1)} <= shapes and single >= 5


# every catalog family over a range of n
CATALOG_RANGES = [
    ("1", range(3, 13)), ("2", range(4, 15)), ("3", range(3, 13)),
    ("4", range(5, 13)), ("6", range(4, 13)), ("9a", (7, 9, 11)),
    ("9b", (5, 7, 9)), ("5a", [None]), ("5b", [None]), ("5c", [None]),
    ("7", [None]), ("8", [None]), ("10", [None]),
]


PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@functools.lru_cache(maxsize=None)
def _benchmark_analyses():
    """The cover analyses of the benchmark's check-cover requests that
    are valid, seeds 1 and 2."""
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    out = []
    for seed in (1, 2):
        for requests in workloads.Covers(seed).sets:
            for _, _, expect in requests:
                try:
                    t = tile_by_words(expect["base"], expect["words"])
                except CoverError:
                    continue
                out.append(analyze_cover(t))
    return tuple(out)


def _screen(P):
    return minus_id_screen(P, external_sides=range(len(P.edges)))


def test_minus_id_screen_reason_is_the_parity_of_N():
    # the screen the verdict once ran, with every side of the polygon
    # external, names an even angle between two sides exactly when N is
    # even and no trigger otherwise: on the catalog and on the outlines
    # of the benchmark's check-cover requests
    polygons = [make_entry(f, n).polygon for f, ns in CATALOG_RANGES
                for n in ns]
    polygons += [a.tiling.outline for a in _benchmark_analyses()]
    parities = set()
    for P in polygons:
        N = angle_data(P)["N"]
        assert _screen(P) == {
            "in_group": N % 2 == 0,
            "reason": "none" if N % 2 else "external_even_angle_pair",
        }
        parities.add(N % 2)
    assert parities == {0, 1}


def test_verdict_names_minus_id_where_the_screen_did():
    # the verdict reads the parity of N_Q; it names -Id in the outline
    # group exactly when that screen did, with the screen's reason
    analyses = _benchmark_analyses()
    for a in analyses:
        screen = _screen(a.tiling.outline)
        statuses = {c.class_id: "non_periodic"
                    for c in a.base_surface.cone_points()}
        named = [r for r in appropriate_verdict(a, statuses)["reasons"]
                 if r.startswith("rotation by pi")]
        assert named == (
            [f"rotation by pi in outline group ({screen['reason']})"]
            if screen["in_group"] else [])
        assert bool(named) == (a.N_Q % 2 == 0)
    assert len(analyses) >= 90
    assert {a.N_Q % 2 for a in analyses} == {0, 1}


def _rectilinear(points):
    """Edges through lattice points joined by axis-parallel sides."""
    dirs = {(1, 0): F(0), (0, 1): F(1, 2), (-1, 0): F(1), (0, -1): F(3, 2)}
    edges = []
    for (ax, ay), (bx, by) in zip(points, points[1:] + points[:1]):
        n = abs(bx - ax) + abs(by - ay)
        edges.append(Edge(dirs[((bx - ax) // n, (by - ay) // n)], n))
    return edges


@pytest.mark.parametrize(
    "points, message",
    [
        pytest.param(
            [(0, 0), (2, 0), (2, 3), (-1, 3), (-1, 4), (1, 4), (1, 5), (0, 5)],
            "edges 2 and 7 intersect: not simple",
            id="crossing",
        ),
        pytest.param(
            [(0, 0), (1, 0), (1, 2), (-3, 2), (-3, -3), (-2, -3), (-2, 2),
             (0, 2)],
            "edges 2 and 5 intersect: not simple",
            id="vertex-on-edge",
        ),
        pytest.param(
            [(0, 0), (-3, 0), (-3, 3), (-4, 3), (-4, 0), (1, 0), (1, 1),
             (0, 1)],
            "edges 0 and 4 intersect: not simple",
            id="collinear-overlap",
        ),
        pytest.param(
            [(0, 0), (-1, 0), (-1, -5), (-1, -2), (-3, -2), (-3, -4),
             (0, -4)],
            "edge 2 turns back along edge 1",
            id="spike",
        ),
        pytest.param(
            [(-1, -5), (-1, -2), (-3, -2), (-3, -4), (0, -4), (0, 0),
             (-1, 0)],
            "edge 0 turns back along edge 6",
            id="spike-at-vertex-0",
        ),
    ],
)
def test_non_simple_outlines_are_refused(points, message):
    # each offending pair has overlapping float boxes, so the screen
    # leaves it to the exact test; a spike (an edge turning back along
    # the one before) is refused by the angle check, from the directions
    with pytest.raises(PolygonError) as info:
        Polygon(_rectilinear(points))
    assert str(info.value) == message
