"""Acceptance gate.

One test per acceptance criterion; each prints a single
"CRITERION <n> ... PASS" line on success (visible with `pytest -s`,
and mirrored by the per-test PASSED/FAILED line of `pytest -v`).
"""

import math
import random
import sys
import time
from fractions import Fraction as F

from flatbilliards import cyclotomic as cy
from flatbilliards.catalog import make_entry
from flatbilliards.covers import analyze_cover, tile_by_words
from flatbilliards.flow import (
    OnSeparatrix,
    cylinder_decomposition,
    height_split,
)
from flatbilliards.periodicity import (
    PeriodicityVerdict,
    classify_point,
    minus_id_fixes,
    replay_certificate,
)
from flatbilliards.polygons import (
    Edge,
    Polygon,
    angle_data,
    triangle_from_angles,
)
from flatbilliards.search import search_appropriate
from flatbilliards.unfolding import unfold


def _report(num, title):
    sys.stdout.write(f"CRITERION {num} ({title}): PASS\n")


def _regular_splits(M, dec, angle):
    """Height splits of every regular vertex class with the angle."""
    out = []
    for cp in M.cone_points():
        if cp.is_singular or cp.angle.multiple != angle:
            continue
        try:
            out.append((cp, height_split(M, dec, cp)))
        except OnSeparatrix:
            continue
    return out


def square():
    return Polygon(
        [Edge(F(0), 1), Edge(F(1, 2), 1), Edge(F(1), 1), Edge(F(3, 2), 1)]
    )


def test_criterion_1_irrational_split_suite():
    t0 = time.time()

    # family 5a: each pi/3 point splits its cylinder as 1/sqrt(3)
    M = unfold(make_entry("5a").polygon)
    dec = cylinder_decomposition(M, F(0))
    ratios = [s["ratio"] for _, s in _regular_splits(M, dec, F(1, 3))]
    assert ratios
    for r in ratios:
        r = r if float(r) > 0.5 else 1 - r
        assert (r * r - F(1, 3)).is_zero
        assert cy.is_rational(r) is None

    # family 5c: h1 = 1/2 and 8h^3 - 18h + 9 = 0, with the rational
    # candidate roots of the cubic all failing
    M = unfold(make_entry("5c").polygon)
    dec = cylinder_decomposition(M, F(1, 6))
    found = False
    for _, s in _regular_splits(M, dec, F(1, 3)):
        if abs(float(s["ratio"]) - 0.8440) < 1e-3:
            assert (s["h1"] - F(1, 2)).is_zero
            h = s["h"]
            assert (8 * h * h * h - 18 * h + 9).is_zero
            assert not s["rational"]
            found = True
    assert found
    for q in (F(1), F(3), F(1, 2), F(1, 4), F(3, 2), F(3, 4)):
        assert 8 * q**3 - 18 * q + 9 != 0

    # family 5b: pi/3 point against the tall neighbouring cylinder,
    # pi/5 point against the published closed form
    M = unfold(make_entry("5b").polygon)
    dec = cylinder_decomposition(M, F(1, 30))
    tall = max(dec.cylinders, key=lambda c: float(c.height))
    checked = False
    for _, s in _regular_splits(M, dec, F(1, 3)):
        r = s["h"] / tall.height
        if abs(float(r) - 0.6180339887) < 1e-6:
            t = 2 * r + 1
            assert (t * t - 5).is_zero
            assert not s["rational"]
            checked = True
    assert checked
    import mpmath

    mpmath.mp.dps = 60
    target = (5 + mpmath.sqrt(75 - 30 * mpmath.sqrt(5))) / 10
    hit = False
    for _, s in _regular_splits(M, dec, F(1, 5)):
        val = mpmath.mpf(s["ratio"].decimal(50))
        if abs(val - target) < mpmath.mpf("1e-30"):
            assert cy.is_rational(s["ratio"]) is None
            hit = True
    assert hit

    # families 2 and 6 (n = 5, 7): centers non-periodic, certificates
    # replayable from scratch
    for fam, n in [("2", 5), ("2", 7), ("6", 5), ("6", 7)]:
        e = make_entry(fam, n)
        M = unfold(e.polygon)
        d = e.facts["split_direction"]
        dec = cylinder_decomposition(M, d)
        hits = 0
        for cp in M.cone_points():
            if cp.is_singular or cp.angle.multiple not in e.facts[
                "non_periodic_vertex_angles"
            ]:
                continue
            s = height_split(M, dec, cp)
            assert not s["rational"]
            verdict = PeriodicityVerdict(
                "non_periodic",
                {"direction": d, "h1": s["h1"], "h": s["h"]},
            )
            if hits == 0:
                assert replay_certificate(M, cp, verdict)
            hits += 1
        assert hits == 2

    elapsed = time.time() - t0
    assert elapsed < 10.0, f"suite took {elapsed:.1f}s"
    _report(1, "irrational-split suite, exact, < 10 s")


def test_criterion_2_topology_suite():
    cases = [
        ("2", 5, 2),
        ("2", 6, 1),
        ("2", 7, 3),
        ("2", 8, 2),
        ("5a", None, 3),
        ("5b", None, 4),
        ("5c", None, 3),
        ("6", 5, 4),
        ("6", 6, 4),
    ]
    for fam, n, g in cases:
        M = unfold(make_entry(fam, n).polygon)
        got = M.genus()  # internally checks cone-angle excess == V-E+F
        assert got["g"] == g
        assert got["chi"] == 2 - 2 * g
    _report(2, "genus two ways across the catalog")


def test_criterion_3_riemann_hurwitz_suite():
    t5 = triangle_from_angles(F(1, 2), F(1, 5), F(3, 10))
    t8 = triangle_from_angles(F(1, 2), F(1, 8), F(3, 8))
    sq = square()

    def fan(count, s1=0, s2=2):
        return [
            [(s1 if i % 2 == 0 else s2) for i in range(j)]
            for j in range(count)
        ]

    corpus = [
        tile_by_words(t5, [[]]),
        tile_by_words(t8, [[]]),
        tile_by_words(sq, [[]]),
        tile_by_words(t5, [[], [1]]),
        tile_by_words(t5, [[], [2]]),
        tile_by_words(t5, [[], [0]]),
        tile_by_words(t8, fan(3)),
        tile_by_words(t8, fan(4)),
        tile_by_words(t8, fan(6)),
        tile_by_words(t5, fan(3)),
        tile_by_words(sq, [[], [0], [1], [1, 0]]),
        tile_by_words(sq, [[], [1]]),
    ]
    assert len(corpus) >= 10
    doubles = 0
    for t in corpus:
        a = analyze_cover(t)
        assert a.chi_cover == a.degree * a.chi_base - a.total_ramification
        assert a.n_copies == a.degree * a.subgroup_index
        assert a.rh_consistent
        if a.degree == 2:
            doubles += 1
            # a single simple branch point would give odd chi: excluded
            assert a.total_ramification % 2 == 0
            assert (2 * a.chi_base - 1) % 2 == 1
    assert doubles >= 2

    # genus-2 base, degree-3 cover with one order-3 branch point:
    # chi drops from -2 to 3*(-2) - 2 = -8, so the cover has genus 5
    a = analyze_cover(tile_by_words(t8, fan(3)))
    assert a.genus_base == 2 and a.degree == 3
    assert sum(
        1 for bp in a.branch_points if bp.branched and bp.ram_indices == (3,)
    ) == 1
    assert a.total_ramification == 2 and a.genus_cover == 5
    _report(3, "Riemann-Hurwitz on a verified corpus")


def test_criterion_4_screen_suite():
    # -Id lies in the reflection group of every even-N catalog member
    for fam, n in [
        ("1", 4),
        ("2", 8),
        ("3", 4),
        ("6", 6),
        ("8", None),
        ("10", None),
    ]:
        P = make_entry(fam, n).polygon
        assert angle_data(P)["N"] % 2 == 0

    # every vertex point periodic, certified by the rotation by pi
    # (or by being singular) on representative members
    rotation_certs = 0
    for fam, n in [("1", 4), ("1", 8), ("2", 8), ("3", 4), ("6", 6), ("8", None)]:
        M = unfold(make_entry(fam, n).polygon)
        for cp in M.cone_points():
            v = classify_point(M, cp, directions=[])
            assert v.status == "periodic"
            assert v.certificate in ("singular", "minus_id_fixed")
            if v.certificate == "minus_id_fixed":
                assert minus_id_fixes(M, cp)
                rotation_certs += 1
    assert rotation_certs >= 5
    _report(4, "rotation-by-pi and -Id screens")


def test_criterion_5_search_suite():
    # immediate angle bound, any K
    for k in (1, 8, 64):
        t0 = time.time()
        r = search_appropriate(make_entry("7"), k)
        assert r.outcome == "none_found" and r.statistics["nodes"] == 0
        assert time.time() - t0 < 60

    # both reflex 4-gon families: even obtuse angle forces even N_Q
    for fam, n in [("9a", 7), ("9b", 5)]:
        t0 = time.time()
        r = search_appropriate(make_entry(fam, n), 10)
        assert r.outcome == "none_found" and r.statistics["nodes"] == 0
        assert time.time() - t0 < 60

    # right triangle (pi/2, pi/5, 3pi/10), K = 8, first class: nothing
    # found; the four-copy terminal branching over both centers is among
    # the rejected nodes tagged "two branch points"
    e = make_entry("2", 5)
    t0 = time.time()
    r = search_appropriate(e, 8)
    assert time.time() - t0 < 60
    assert r.outcome == "none_found" and not r.candidates
    terminal = False
    for words in r.rejected.get("two branch points", []):
        if len(words) != 4:
            continue
        try:
            a = analyze_cover(tile_by_words(e.polygon, words))
        except Exception:
            continue
        branched = a.branched_classes()
        if len(branched) == 2 and all(
            bp.angle == F(1, 5) for bp in branched
        ):
            terminal = True
    assert terminal

    # acute scalene (pi/4, pi/3, 5pi/12), K = 10: lines of expansion
    # whose forced moves need more than ten copies are pruned
    t0 = time.time()
    r = search_appropriate(make_entry("5a"), 10)
    assert time.time() - t0 < 60
    assert r.outcome == "none_found" and not r.candidates
    assert r.statistics.get("forced past the copy bound", 0) > 0
    _report(5, "bounded cover search, each case <= 60 s")


def test_criterion_6_property_suites():
    rng = random.Random(20260823)

    # exact arithmetic: ring laws and the Pythagorean identity,
    # 10^4 randomized cases in total
    pool = []
    for _ in range(48):
        q = F(rng.randrange(0, 25), rng.randrange(1, 10)) % 2
        kind = rng.choice(["cos", "sin"])
        scale = F(rng.randrange(-4, 5), rng.randrange(1, 8))
        shift = F(rng.randrange(-4, 5), rng.randrange(1, 8))
        pool.append(cy.trig_of_rational_angle(q, kind) * scale + shift)
    for _ in range(5000):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
    qs = [F(n, d) for d in range(1, 13) for n in range(0, 2 * d)]
    trig = {q: (cy.sin_pi(q), cy.cos_pi(q)) for q in qs}
    for _ in range(5000):
        s, c = trig[rng.choice(qs)]
        assert cy.is_rational(s * s + c * c) == 1

    # polygon closure is exact for randomized triangles
    for _ in range(40):
        d = rng.randrange(3, 13)
        a = F(rng.randrange(1, d), d)
        b = F(rng.randrange(1, max(2, int((1 - a) * d))), d)
        c = 1 - a - b
        if c <= 0:
            continue
        P = triangle_from_angles(a, b, c)
        total = P.vertices()[0]
        for e in P.edges:
            total = (total[0] + e.length * e.direction.cos(),
                     total[1] + e.length * e.direction.sin())
        assert (total[0] - P.vertices()[0][0]).is_zero
        assert (total[1] - P.vertices()[0][1]).is_zero

    # side pairing is a fixed-point-free involution
    for poly in (
        square(),
        triangle_from_angles(F(1, 2), F(1, 8), F(3, 8)),
        make_entry("5a").polygon,
    ):
        M = unfold(poly)
        for key, val in M.pairing.items():
            assert M.pairing[val] == key and val != key

    # cylinder decompositions conserve area exactly
    for poly, theta in (
        (square(), F(0)),
        (triangle_from_angles(F(1, 2), F(1, 8), F(3, 8)), F(0)),
        (make_entry("2", 5).polygon, F(1, 10)),
    ):
        M = unfold(poly)
        dec = cylinder_decomposition(M, theta)
        total = cy.embed(0)
        for cyl in dec.cylinders:
            total = total + cyl.area_twice
        assert (total - M.area_twice()).is_zero

    # periodicity verdicts are constant along group orbits
    M = unfold(make_entry("2", 5).polygon)
    statuses = {
        cp.class_id: classify_point(M, cp).status
        for cp in M.cone_points()
    }
    for g in M.group.elements():
        for cp in M.cone_points():
            img = M.act_on_class(g, cp)
            assert statuses[cp.class_id] == statuses[img.class_id]
    _report(6, "randomized property suites")
