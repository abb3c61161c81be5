import math
from fractions import Fraction as F

import pytest

from flatbilliards import fileio, flow, planar, polygons
from flatbilliards.catalog import make_entry
from flatbilliards.cyclotomic import cos_pi, sin_pi, totient
from flatbilliards.flow import cylinder_decomposition
from flatbilliards.periodicity import default_directions
from flatbilliards.polygons import Edge, Polygon, triangle_from_angles
from flatbilliards.search import _Search, _StatusOracle
from flatbilliards.unfolding import unfold
from reference import (LinearMap, apply_angle, apply_vec, compose, element,
                       elements, index_of)


def square():
    return Polygon(
        [Edge(F(0), 1), Edge(F(1, 2), 1), Edge(F(1), 1), Edge(F(3, 2), 1)]
    )


def test_unfold_square_torus():
    M = unfold(square())
    assert len(M.faces) == 4
    cps = M.cone_points()
    assert len(cps) == 4
    assert all(c.multiplicity == 1 for c in cps)
    g = M.genus()
    assert g == {"g": 1, "chi": 0}


def test_unfold_octagon_triangle():
    M = unfold(triangle_from_angles(F(1, 2), F(1, 8), F(3, 8)))
    assert len(M.faces) == 16
    singular = M.singular_points()
    assert len(singular) == 1 and singular[0].multiplicity == 3
    assert M.genus() == {"g": 2, "chi": -2}


def test_unfold_double_pentagon():
    M = unfold(triangle_from_angles(F(1, 2), F(1, 5), F(3, 10)))
    assert len(M.faces) == 20
    singular = M.singular_points()
    assert len(singular) == 1 and singular[0].multiplicity == 3
    # the two pentagon centers: regular classes of the pi/5 vertex
    centers = [
        c for c in M.cone_points()
        if c.angle.multiple == F(1, 5) and not c.is_singular
    ]
    assert len(centers) == 2
    assert M.genus()["g"] == 2


def test_unfold_genus_table():
    cases = [
        ((F(1, 4), F(1, 3), F(5, 12)), 3),
        ((F(1, 5), F(1, 3), F(7, 15)), 4),
        ((F(2, 9), F(1, 3), F(4, 9)), 3),
        ((F(1, 2), F(1, 7), F(5, 14)), 3),
        ((F(1, 2), F(1, 6), F(1, 3)), 1),
    ]
    for angles, genus in cases:
        M = unfold(triangle_from_angles(*angles))
        assert M.genus()["g"] == genus


def test_five_c_singular_structure():
    M = unfold(triangle_from_angles(F(2, 9), F(1, 3), F(4, 9)))
    mults = sorted(c.multiplicity for c in M.singular_points())
    assert mults == [2, 4]


def _side_ends(M, fi, p):
    # start and end of side p of face fi, from its placed vertices
    verts = M.vertices[fi]
    return verts[p], verts[(p + 1) % M.k]


def test_pairing_involution_and_geometry():
    M = unfold(triangle_from_angles(F(1, 2), F(1, 8), F(3, 8)))
    for key, val in M.pairing.items():
        assert M.pairing[val] == key
        assert val != key
        assert M.faces[key[0]].sides[key[1]].source == (
            M.faces[val[0]].sides[val[1]].source
        )
        a_start, a_end = _side_ends(M, *key)
        b_start, b_end = _side_ends(M, *val)
        assert planar.is_zero_vec(planar.vadd(
            planar.vsub(a_end, a_start), planar.vsub(b_end, b_start)
        ))
        # gluing translation: the partner's copy of the vertex of P at
        # our start, minus our start.  It maps own start to partner end
        # and own end to partner start
        v = M.faces[key[0]].source_vertex[key[1]]
        partner = M.faces[val[0]].source_vertex.index(v)
        tau = planar.vsub(M.vertices[val[0]][partner], a_start)
        assert planar.veq(planar.vadd(a_start, tau), b_end)
        assert planar.veq(planar.vadd(a_end, tau), b_start)


def test_total_cone_angle():
    M = unfold(triangle_from_angles(F(1, 5), F(1, 3), F(7, 15)))
    total = sum(c.multiplicity for c in M.cone_points())
    # sum of all interior angles over 2N triangle copies = 2N * pi,
    # grouped into classes of total 2*pi*k
    assert 2 * total == len(M.faces)


def test_group_action_permutes_classes():
    M = unfold(triangle_from_angles(F(1, 2), F(1, 5), F(3, 10)))
    cps = M.cone_points()
    for g in M.group.elements():
        images = set()
        for c in cps:
            img = M.act_on_class(g, c)
            assert img.source_vertex == c.source_vertex
            assert img.multiplicity == c.multiplicity
            images.add(img.class_id)
        assert images == {c.class_id for c in cps}


def test_group_action_commutes_with_pairing():
    M = unfold(triangle_from_angles(F(1, 2), F(1, 8), F(3, 8)))
    for g in M.group.elements()[:6]:
        for (fi, p), (fj, q) in list(M.pairing.items())[:12]:
            s = M.faces[fi].sides[p].source
            gfi = M.group.product(g, fi)
            gp = M.faces[gfi].side_position_of_source(s)
            img = M.pairing[(gfi, gp)]
            expected_face = M.group.product(g, fj)
            assert img[0] == expected_face
            assert M.faces[img[0]].sides[img[1]].source == s


def test_area():
    M = unfold(square())
    assert M.area_twice() == 8


def test_vertices_are_placed_once_on_first_read(monkeypatch):
    # P's own vertices are one walk over its edges' table, made once,
    # by the closure check when P is built; reading them walks again
    # nowhere.  The surface is its gluing: unfolding it, its genus and
    # its cone points place no vertex.  Each direction walks its own
    # chart and no face of the surface.  The first reader of
    # coordinates walks each face g.P once; the surface dump and the
    # search's vertex table then walk none
    tables = []
    walk = polygons.walk

    def counted(sides, lengths, table, *origin):
        tables.append(table)  # kept alive, so ids are not reused
        return walk(sides, lengths, table, *origin)

    monkeypatch.setattr(polygons, "walk", counted)
    monkeypatch.setattr(flow, "walk", counted)
    e = make_entry("2", 5)
    assert len(tables) == 1
    e.polygon.vertices()
    M = unfold(e.polygon)
    M.genus()
    M.cone_points()
    assert len(tables) == 1
    faces = len(M.faces)
    for th in (F(1, 10), F(3, 10)):
        assert cylinder_decomposition(M, th).cylinders
    charts = {id(t) for t in tables[1:]}
    assert len(charts) == 2 and len(tables) == 1 + 2 * faces
    surface = M.group.unit_vectors()
    assert id(surface) not in charts and tables[0] is not surface
    assert len(M.vertices) == faces
    fileio.surface_to_json(M)
    _Search(e.polygon, _StatusOracle(M, e.facts), 6, max_nodes=200000)
    assert sum(t is surface for t in tables) == faces
    assert len(tables) == 1 + 3 * faces


def test_surface_dump_names_each_face_by_its_index():
    # the dump's face `map` is the linear map of the face's group index,
    # against the reference conversion; the right isoceles triangle
    # turned by pi/7 has base axis 1/7, so its reflections carry it
    turned = Polygon([Edge(F(1, 7), 1), Edge(F(9, 14), 1),
                      Edge(F(39, 28), 2 * cos_pi(F(1, 4)))])
    catalog_polygons = [make_entry(f, n).polygon
                        for f, n in [("2", 5), ("5c", None), ("8", None)]]
    for P in catalog_polygons + [turned]:
        M = unfold(P)
        doc = fileio.surface_to_json(M)
        assert [face["index"] for face in doc["faces"]] == list(
            M.group.elements())
        for face in doc["faces"]:
            g = element(M.group, face["index"])
            assert face["map"] == {"kind": g.kind,
                                   "param": fileio.fraction_to_str(g.param)}
    assert M.group.base_axis == F(1, 7)  # the turned triangle's surface


def test_pairing_and_action_read_the_group_law():
    # face g's copy of side s of P is glued to face g.r_s, and g acts on
    # face h as g.h: both are read from D_N's law on indices.  The
    # references below compose the maps
    entries = [("1", 5), ("2", 5), ("5c", None), ("8", None), ("9b", 5),
               ("10", None)]
    surfaces = [unfold(make_entry(f, n).polygon) for f, n in entries]
    actions = [
        [[M.group.product(g, fi) for fi in range(len(M.faces))]
         for g in M.group.elements()]
        for M in surfaces
    ]
    for M, action in zip(surfaces, actions):
        G = M.group
        for (fi, p), (fj, _q) in M.pairing.items():
            g = element(G, fi)
            e = M.polygon.edges[M.faces[fi].sides[p].source]
            axis = apply_angle(g, e.direction.multiple) % 1
            assert fj == index_of(G, compose(LinearMap("ref", axis), g))
        assert action == [
            [index_of(G, compose(g, element(G, f.index))) for f in M.faces]
            for g in elements(G)
        ]


_CATALOG = ([("1", n) for n in range(3, 9)] + [("2", n) for n in range(4, 10)]
            + [("3", n) for n in range(3, 8)] + [("4", n) for n in (5, 6, 7)]
            + [("6", n) for n in range(4, 8)]
            + [(f, None) for f in ("5a", "5b", "5c", "7", "8", "10")]
            + [("9a", 7), ("9a", 9), ("9b", 5), ("9b", 7)])


def test_side_directions_read_the_integer_action():
    # each side's direction is the face's map applied to its source
    # side's direction, turned by pi on a reversed copy, by the angle
    # formula; its lattice index points at it in the group's table
    checked = 0
    for family, n in _CATALOG:
        M = unfold(make_entry(family, n).polygon)
        table = M.group.directions()
        for f in M.faces:
            gmap = element(M.group, f.index)
            assert gmap.det == f.det
            turn = 0 if f.det == 1 else 1
            for side in f.sides:
                d = M.polygon.edges[side.source].direction.multiple
                assert side.direction == apply_angle(gmap, d + turn)
                assert table[side.lattice] == side.direction
                checked += 1
    assert checked > 1000


def test_walked_placements_match_the_rotated_reference():
    # every exact vertex is a walk along P's sides: surface faces over
    # the group's table, chart faces over that table turned by -theta.
    # Against rotating and reflecting P's vertices (the reference): the
    # same points, chart values stored identically at the chart
    # conductor n, n read from the walk's inputs equal to the lcm the
    # reference's coordinates and cotangents give, and paired sides
    # cancelling, which the walk makes an identity.  The rectangle's
    # width lies in no field the table's pairs span
    width = cos_pi(F(1, 7))
    rectangle = Polygon([Edge(F(0), width), Edge(F(1, 2), 1),
                         Edge(F(1), width), Edge(F(3, 2), 1)])
    charts = 0
    for P in [make_entry(f, n).polygon for f, n in _CATALOG] + [rectangle]:
        M = unfold(P)
        base = M.polygon.vertices()
        ref = [tuple(apply_vec(element(M.group, f.index), base[j])
                     for j in f.source_vertex)
               for f in M.faces]
        for got, want in zip(M.vertices, ref):
            assert all(planar.veq(a, b) for a, b in zip(got, want))
        k = M.k
        for (fi, p), (fj, q) in M.pairing.items():
            a, b = M.vertices[fi], M.vertices[fj]
            assert planar.veq(planar.vadd(a[(p + 1) % k], b[(q + 1) % k]),
                              planar.vadd(a[p], b[q]))
        for th in default_directions(M) + [F(1, 6), F(1, 30)]:
            turn = LinearMap("rot", -th)
            want = [[apply_vec(turn, v) for v in vs] for vs in ref]
            deltas = {(s.direction - th) % 1
                      for f in M.faces for s in f.sides} - {0}
            n = math.lcm(cos_pi(th).n, sin_pi(th).n,
                         *(x.n for vs in ref for v in vs for x in v),
                         *(c(d).n for d in deltas for c in (cos_pi, sin_pi)))
            if totient(n) > flow.MAX_CHART_DEGREE:
                with pytest.raises(flow.FlowError):
                    flow._check_degree(M, th)
                continue
            assert flow._check_degree(M, th) == n
            got = flow._Chart(M, th, n, set(), None).verts
            assert [[[(x.n, x.num, x.den) for x in v] for v in vs]
                    for vs in got] == [
                [[(x.n, x.num, x.den) for x in map(lambda c: c.lift(n), v)]
                 for v in vs] for vs in want]
            charts += len(got)
    assert charts > 7000
