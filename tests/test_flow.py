from fractions import Fraction as F

import pytest

from flatbilliards import cyclotomic as cy
from flatbilliards import flow
from flatbilliards.catalog import make_entry
from flatbilliards.cyclotomic import CyclotomicReal, embed
from flatbilliards.flow import (
    FlowError,
    NotShownPeriodic,
    OnSeparatrix,
    SurfacePoint,
    _corner_modes,
    cylinder_decomposition,
    height_split,
)
from flatbilliards.periodicity import default_directions
from flatbilliards.planar import (
    cross, dot, polygon_area_twice, vkey, vneg, vsub)
from flatbilliards.polygons import Edge, Polygon, triangle_from_angles
from flatbilliards.unfolding import unfold
from reference import partner_key


def square():
    return Polygon(
        [Edge(F(0), 1), Edge(F(1, 2), 1), Edge(F(1), 1), Edge(F(3, 2), 1)]
    )


def regular_splits(M, dec, angle=None):
    out = []
    for cp in M.cone_points():
        if cp.is_singular:
            continue
        if angle is not None and cp.angle.multiple != angle:
            continue
        try:
            out.append((cp, height_split(M, dec, cp)))
        except OnSeparatrix:
            continue
    return out


def test_flat_torus_horizontal():
    # the unfolded unit square is a 2x2 torus with four marked points;
    # the horizontal saddle connections between them bound two
    # cylinders of height 1 and circumference 2
    M = unfold(square())
    dec = cylinder_decomposition(M, F(0))
    assert dec.cylinder_count() == 2
    for c in dec.cylinders:
        assert (c.height - 1).is_zero
        assert (c.circumference - 2).is_zero


def test_octagon_triangle_horizontal():
    M = unfold(triangle_from_angles(F(1, 2), F(1, 8), F(3, 8)))
    dec = cylinder_decomposition(M, F(0))
    assert dec.cylinder_count() == 2
    hs = sorted(dec.cylinders, key=lambda c: float(c.height))
    h_small, h_big = hs[0].height, hs[1].height
    # heights 1 - 1/sqrt(2) and 1/sqrt(2): the big one squares to 1/2
    assert (h_big * h_big - F(1, 2)).is_zero
    assert (h_small + h_big - 1).is_zero
    # modulus ratio of the two heights is irrational
    assert cy.is_rational(h_big / h_small) is None


def test_double_pentagon_two_cylinders_golden_ratio():
    M = unfold(triangle_from_angles(F(1, 2), F(1, 5), F(3, 10)))
    dec = cylinder_decomposition(M, F(0))
    assert dec.cylinder_count() == 2
    hs = sorted(dec.cylinders, key=lambda c: float(c.height))
    r = hs[1].height / hs[0].height
    # golden ratio: r^2 = r + 1
    assert (r * r - r - 1).is_zero
    assert cy.is_rational(r) is None


def turned_by(P, t):
    """P turned by pi*t."""
    return Polygon(
        [Edge(e.direction.multiple + t, e.length) for e in P.edges])


# catalog polygons turned by pi/7, whose lattice base axis is not 0, with
# a lattice direction (2 n=5) or a bisector of two (4 n=5, 5c) that
# decomposes
TURNED_CASES = [
    (turned_by(make_entry("4", 5).polygon, F(1, 7)), F(1, 7) + F(1, 10)),
    (turned_by(make_entry("2", 5).polygon, F(1, 7)), F(1, 7) + F(1, 5)),
    (turned_by(make_entry("5c").polygon, F(1, 7)), F(1, 7) + F(1, 18)),
]


def test_turned_cases_have_a_turned_lattice():
    # the base axis then enters every lattice read of the flow
    # (`_corner_modes`, `_Chart.runs_down`)
    for P, _ in TURNED_CASES:
        assert unfold(P).group.base_axis != 0


def test_area_conservation():
    # a cylinder's area 2*h*c, c read off its bottom boundary, is the
    # shoelace area of its pieces, and the areas sum to the surface's
    cases = [
        (triangle_from_angles(F(1, 2), F(1, 8), F(3, 8)), F(0)),
        (triangle_from_angles(F(1, 4), F(1, 3), F(5, 12)), F(1, 12)),
        (triangle_from_angles(F(2, 9), F(1, 3), F(4, 9)), F(1, 6)),
        (make_entry("2", 5).polygon, F(1, 10)),
        (make_entry("5a").polygon, F(0)),
        (make_entry("5c").polygon, F(1, 6)),
    ] + TURNED_CASES
    for P, th in cases:
        M = unfold(P)
        dec = cylinder_decomposition(M, th)
        total = embed(0)
        for c in dec.cylinders:
            pieces = embed(0)
            for piece, _ in c.pieces:
                pieces = pieces + polygon_area_twice(piece.points())
            assert (c.area_twice - pieces).is_zero
            total = total + c.area_twice
        assert (total - M.area_twice()).is_zero


def test_rotation_equivariance():
    # decomposing in direction th is decomposing the polygon turned by
    # -th at 0: the same cylinders, and the same height splits at the
    # regular classes
    cases = [
        (triangle_from_angles(F(1, 4), F(1, 3), F(5, 12)), F(1, 6)),
        (make_entry("2", 5).polygon, F(1, 10)),
        (make_entry("2", 7).polygon, F(1, 14)),
        (make_entry("5c").polygon, F(1, 6)),
        (make_entry("8").polygon, F(1, 4)),
    ] + TURNED_CASES

    def key(M, dec):
        cylinders = sorted(
            (c.height.key(), c.circumference.key()) for c in dec.cylinders
        )
        splits = sorted(
            (cp.angle.multiple, s["h1"].key(), s["h"].key())
            for cp, s in regular_splits(M, dec)
        )
        return cylinders, splits

    for P, th in cases:
        M = unfold(P)
        rotated = Polygon(
            [Edge((e.direction.multiple - th) % 2, e.length) for e in P.edges]
        )
        M0 = unfold(rotated)
        got = key(M, cylinder_decomposition(M, th))
        assert got == key(M0, cylinder_decomposition(M0, F(0)))
        assert got[1]


def test_height_split_family_5a():
    M = unfold(triangle_from_angles(F(1, 4), F(1, 3), F(5, 12)))
    dec = cylinder_decomposition(M, F(0))
    ratios = [
        s["ratio"] for _, s in regular_splits(M, dec, F(1, 3))
    ]
    assert ratios
    # each pi/3 point splits its cylinder as 1/sqrt(3) from one side
    for r in ratios:
        r = r if float(r) > F(1, 2) else 1 - r
        assert (r * r - F(1, 3)).is_zero
        assert cy.is_rational(r) is None


def test_height_split_family_5c():
    M = unfold(triangle_from_angles(F(2, 9), F(1, 3), F(4, 9)))
    dec = cylinder_decomposition(M, F(1, 6))
    found = False
    for _, s in regular_splits(M, dec, F(1, 3)):
        if abs(float(s["ratio"]) - 0.8440) < 1e-3:
            # h1 = 1/2 exactly and 8h^3 - 18h + 9 = 0 exactly
            assert (s["h1"] - F(1, 2)).is_zero
            h = s["h"]
            assert (8 * h * h * h - 18 * h + 9).is_zero
            assert not s["rational"]
            found = True
    assert found


def test_height_split_family_5b():
    M = unfold(triangle_from_angles(F(1, 5), F(1, 3), F(7, 15)))
    dec = cylinder_decomposition(M, F(1, 30))
    # pi/3 points: the published golden-ratio value compares the height
    # of the point's cylinder against the tall cylinder next to it
    tall = max(dec.cylinders, key=lambda c: float(c.height))
    checked = False
    for _, s in regular_splits(M, dec, F(1, 3)):
        if abs(float(s["h"] / tall.height) - 0.6180339887) < 1e-6:
            r = s["h"] / tall.height
            t = 2 * r + 1
            assert (t * t - 5).is_zero
            assert not s["rational"]
            checked = True
    assert checked
    # pi/5 points: irrational split matching the published constant
    import mpmath

    mpmath.mp.dps = 60
    target = (5 + mpmath.sqrt(75 - 30 * mpmath.sqrt(5))) / 10
    hit = False
    for _, s in regular_splits(M, dec, F(1, 5)):
        val = mpmath.mpf(s["ratio"].decimal(50))
        if abs(val - target) < mpmath.mpf("1e-30"):
            assert not s["rational"]
            hit = True
    assert hit


def test_interior_point_split_rational_on_torus():
    M = unfold(square())
    dec = cylinder_decomposition(M, F(0))
    p = SurfacePoint(face=0, coords=(embed(F(1, 3)), embed(F(1, 3))))
    s = height_split(M, dec, p)
    assert s["rational"] and s["ratio_rational_value"] == F(1, 3)


def test_point_on_separatrix_rejected():
    M = unfold(square())
    dec = cylinder_decomposition(M, F(0))
    # every vertex class lies on the horizontal cuts
    for cp in M.cone_points():
        with pytest.raises(OnSeparatrix):
            height_split(M, dec, cp)
    # an interior point exactly on a cut
    p = SurfacePoint(face=0, coords=(embed(F(1, 2)), embed(0)))
    with pytest.raises(OnSeparatrix):
        height_split(M, dec, p)


def test_singular_point_rejected():
    M = unfold(triangle_from_angles(F(1, 2), F(1, 8), F(3, 8)))
    dec = cylinder_decomposition(M, F(0))
    with pytest.raises(FlowError):
        height_split(M, dec, M.singular_points()[0])


def test_not_shown_periodic_on_tiny_bound():
    M = unfold(triangle_from_angles(F(1, 2), F(1, 8), F(3, 8)))
    with pytest.raises(NotShownPeriodic):
        cylinder_decomposition(M, F(0), length_bound=F(1, 100))


def test_not_shown_periodic_direction():
    # a direction outside the axis families of this surface should not
    # close up within a short bound
    M = unfold(triangle_from_angles(F(1, 2), F(1, 8), F(3, 8)))
    with pytest.raises(NotShownPeriodic):
        cylinder_decomposition(M, F(1, 3), length_bound=F(8))


def test_chords_are_parallel_to_the_direction():
    # the chart turns the direction to +x: every chord is horizontal
    # there and runs from a to b along the flow
    M = unfold(triangle_from_angles(F(1, 2), F(1, 8), F(3, 8)))
    for th in (F(0), F(1, 8)):
        dec = cylinder_decomposition(M, th)
        n_chords = 0
        for chords in dec.chords.values():
            for ch in chords:
                assert (ch.b[1] - ch.a[1]).is_zero
                assert (ch.b[0] - ch.a[0]).sign() > 0
                n_chords += 1
        assert n_chords > 0


def _side_vector(M, fi, p):
    # side p of face fi, from its placed vertices
    verts = M.vertices[fi]
    return vsub(verts[(p + 1) % M.k], verts[p])


def _reference_corner_mode(M, corner, u):
    # reference rule on exact vectors: signs of cross and dot products of
    # the direction vector u with the corner's two sides
    fi, p = corner
    face = M.faces[fi]
    a = _side_vector(M, fi, p)
    b = vneg(_side_vector(M, fi, (p - 1) % M.k))
    ca = cross(a, u).sign()
    if ca == 0 and dot(a, u).sign() > 0:
        return "edge"
    cb = cross(u, b).sign()
    if cb == 0 and dot(b, u).sign() > 0:
        return None
    if M.polygon.angles()[face.source_vertex[p]].multiple < 1:
        return "ray" if (ca > 0 and cb > 0) else None
    return "ray" if not (ca <= 0 and cb <= 0) else None


def _lattice_read_surfaces():
    """Surfaces and directions for the rules read from lattice indices.

    Family 8 has a reflex corner (3pi/2); directions j/12 run along
    sides of the three catalog polygons, and each lattice direction
    along sides of the right isoceles triangle turned by pi/7, whose
    lattice does not contain direction 0."""
    turned = Polygon([Edge(F(1, 7), 1), Edge(F(9, 14), 1),
                      Edge(F(39, 28), 2 * cy.cos_pi(F(1, 4)))])
    for family, P in [("2", make_entry("2", 5).polygon),
                      ("5c", make_entry("5c").polygon),
                      ("8", make_entry("8").polygon), ("turned", turned)]:
        M = unfold(P)
        yield family, M, [F(j, 12) for j in range(24)] + M.group.directions()


def test_corner_mode_matches_the_vector_rule():
    modes = set()
    for family, M, directions in _lattice_read_surfaces():
        corners = [(fi, p) for fi in range(len(M.faces)) for p in range(M.k)]
        for th in directions:
            u = (cy.cos_pi(th), cy.sin_pi(th))
            table = _corner_modes(M, th)
            assert set(table) == set(corners)
            for c in corners:
                mode = table[c]
                assert mode == _reference_corner_mode(M, c, u), (family, th, c)
                modes.add(mode)
    assert modes == {"edge", "ray", None}


def test_runs_down_matches_the_fraction_rule():
    # the chart reads whether a side runs down from its lattice index;
    # the rule it replaced is (direction - theta) mod 2 > 1 in Fraction
    # arithmetic, asked only of sides not parallel to the flow
    seen = set()
    for family, M, directions in _lattice_read_surfaces():
        sides = [s for f in M.faces for s in f.sides]
        for th in directions:
            try:
                chart = flow._Chart(M, th, flow._check_degree(M, th),
                                    set(), None)
            except FlowError:
                continue
            for s in sides:
                if (s.direction - th) % 1:
                    down = (s.direction - th) % 2 > 1
                    assert chart.runs_down(s) == down, (family, th, s)
                    seen.add(down)
    assert seen == {False, True}


# the surfaces of the tests above, and the right isoceles triangle built
# from its sides: its hypotenuse's direction 5/4 enters no vertex, so at
# directions 0 and 1/2 the cotangent cot(pi/4) raises the conductor from
# 4 to 8.  Each is decomposed in every default direction that closes up
# within the default bound
_SURFACES = [
    square(),
    Polygon([Edge(F(0), 1), Edge(F(1, 2), 1),
             Edge(F(5, 4), 2 * cy.cos_pi(F(1, 4)))]),
    triangle_from_angles(F(1, 2), F(1, 8), F(3, 8)),
    triangle_from_angles(F(1, 2), F(1, 5), F(3, 10)),
    make_entry("5a").polygon,
    make_entry("5b").polygon,
    make_entry("5c").polygon,
    make_entry("2", 7).polygon,
    make_entry("8").polygon,
]


@pytest.fixture(scope="module")
def decompositions():
    out = []
    for P in _SURFACES:
        M = unfold(P)
        for th in default_directions(M):
            try:
                out.append((M, th, cylinder_decomposition(M, th)))
            except (NotShownPeriodic, FlowError):
                continue
    assert len(out) >= 20
    return out


def _chart_points(dec):
    """Every point the decomposition keys: vertices, chord ends and the
    nodes of its pieces."""
    for vs in dec.verts:
        yield from vs
    for chords in dec.chords.values():
        for ch in chords:
            yield ch.a
            yield ch.b
    for cyl in dec.cylinders:
        for piece, _off in cyl.pieces:
            yield from piece.points()


def test_decomposition_keys_make_no_canonical_descent(monkeypatch):
    # chord ends, ring nodes and translated ends are keyed at the chart
    # conductor; `inverse` reaches its operand's canonical form through
    # key(), and no other key() call is left in a decomposition or a
    # height split
    calls = {"key": 0, "depth": 0}
    key, inverse = CyclotomicReal.key, CyclotomicReal.inverse

    def counted_key(self):
        calls["key"] += calls["depth"] == 0
        return key(self)

    def uncounted_inverse(self):
        calls["depth"] += 1
        try:
            return inverse(self)
        finally:
            calls["depth"] -= 1

    monkeypatch.setattr(CyclotomicReal, "key", counted_key)
    monkeypatch.setattr(CyclotomicReal, "inverse", uncounted_inverse)
    M = unfold(make_entry("2", 5).polygon)
    dec = cylinder_decomposition(M, F(1, 10))
    splits = regular_splits(M, dec)
    assert splits and len(dec.cylinders) > 1
    assert calls["key"] == 0


def test_chart_keys_agree_with_canonical_keys(decompositions):
    for _M, _th, dec in decompositions:
        chart_of, canonical_of = {}, {}
        for pt in _chart_points(dec):
            ck, vk = flow._key(pt, dec.n), vkey(pt)
            chart_of.setdefault(vk, set()).add(ck)
            canonical_of.setdefault(ck, set()).add(vk)
        assert all(len(s) == 1 for s in chart_of.values())
        assert all(len(s) == 1 for s in canonical_of.values())


def test_chart_values_are_stored_at_the_chart_conductor(
        decompositions, monkeypatch):
    for M, th, dec in decompositions:
        n = dec.n
        assert flow._check_degree(M, th) == n
        assert {x.n for pt in _chart_points(dec) for x in pt} == {n}
        assert {c.height.n for c in dec.cylinders} == {n}
        chart = flow._Chart(M, th, n, set(), None)
        assert {x.n for vs in chart.verts for v in vs for x in v} == {n}
        assert {x.n for t in chart.tau.values() for x in t} == {n}
        lattice = {s.lattice for f in M.faces for s in f.sides
                   if (s.direction - th) % 1}
        assert {chart.cotangent(m).n for m in lattice} == {n}
    # the degree limit is tested on that same n
    M = unfold(make_entry("2", 5).polygon)
    n = cylinder_decomposition(M, F(1, 10)).n
    monkeypatch.setattr(flow, "MAX_CHART_DEGREE", cy.totient(n) - 1)
    with pytest.raises(FlowError, match=f"chart conductor {n} "):
        cylinder_decomposition(M, F(1, 10))


@pytest.mark.parametrize("angles,theta", [
    ((F(1, 2), F(1, 5), F(3, 10)), F(1, 97)),
    ((F(1, 2), F(1, 998), F(249, 499)), F(1, 30)),
    ((F(1, 2), F(1, 998), F(249, 499)), F(0)),
])
def test_a_refused_chart_builds_no_trig_value(monkeypatch, angles, theta):
    # the chart conductor is read from the angles' denominators, so a
    # direction whose chart is too large is refused with the flow's
    # message before any cos or sin is built (at 1/30 the 1/998
    # triangle's turned table holds values past cyclotomic.MAX_DEGREE,
    # which were once built first and refused as an ExactError)
    M = unfold(triangle_from_angles(*angles))
    built = []

    def counting(real):
        def trig(q):
            built.append(q)
            return real(q)
        return trig

    for mod in (cy, flow):
        for name in ("cos_pi", "sin_pi"):
            monkeypatch.setattr(mod, name, counting(getattr(mod, name)))
    with pytest.raises(FlowError, match="MAX_CHART_DEGREE"):
        cylinder_decomposition(M, theta)
    assert built == []


# the `certify` workload's surfaces and more, each glued in every default
# direction that closes up within the default bound
_GLUED = [("2", 5), ("6", 5), ("2", 7), ("5a", None), ("5c", None),
          ("4", 5), ("8", None)]


def _decompose_defaults(surfaces):
    for family, n in surfaces:
        M = unfold(make_entry(family, n).polygon)
        for th in default_directions(M):
            try:
                cylinder_decomposition(M, th)
            except (NotShownPeriodic, FlowError):
                continue


def test_partner_keys_match_the_translated_ends(monkeypatch):
    # the chart's partner table, read from the side pairing at vertices
    # and recorded by the tracer at crossings, keys the same points as
    # translating each side point by its side's gluing translation; it
    # is checked before gluing reads it
    glue, charts = flow._glue_pieces, []

    def checked(chart, pieces, cut_sides):
        coords = {key: pt for keys, pts in zip(chart.vkeys, chart.verts)
                  for key, pt in zip(keys, pts)}
        coords.update(node for piece in pieces for node in piece.nodes)
        for (side, key), partner in chart.partner.items():
            assert partner == partner_key(chart, side, coords[key])
        # two side ends per side, and both sides of every crossing
        assert len(chart.partner) > 2 * len(chart.tau)
        charts.append(chart)
        return glue(chart, pieces, cut_sides)

    monkeypatch.setattr(flow, "_glue_pieces", checked)
    _decompose_defaults(_GLUED)
    assert len(charts) >= 30


def test_gluing_translates_no_point(monkeypatch):
    # gluing matches keys: with `vadd` refused it returns the same
    # cylinders from the same chart and pieces
    glue, glued = flow._glue_pieces, []

    def recorded(*args):
        glued.append((args, glue(*args)))
        return glued[-1][1]

    monkeypatch.setattr(flow, "_glue_pieces", recorded)
    _decompose_defaults([("2", 5), ("5a", None)])
    assert glued

    def no_translation(*_args):
        raise AssertionError("gluing translated a point")

    monkeypatch.setattr(flow, "vadd", no_translation)
    for args, cylinders in glued:
        assert glue(*args) == cylinders
