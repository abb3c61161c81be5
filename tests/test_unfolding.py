from fractions import Fraction as F

import pytest

from flatbilliards import fileio, planar
from flatbilliards.catalog import make_entry
from flatbilliards.flow import cylinder_decomposition
from flatbilliards.polygons import (
    Edge,
    LinearMap,
    Polygon,
    triangle_from_angles,
)
from flatbilliards.search import _Search, _StatusOracle
from flatbilliards.unfolding import unfold
from reference import compose


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
            gfi = M.act_on_face(g, fi)
            gp = M.faces[gfi].side_position_of_source(s)
            img = M.pairing[(gfi, gp)]
            expected_face = M.act_on_face(g, fj)
            assert img[0] == expected_face
            assert M.faces[img[0]].sides[img[1]].source == s


def test_area():
    M = unfold(square())
    assert M.area_twice() == 8


def test_vertices_are_placed_once_on_first_read(monkeypatch):
    # the surface is its gluing: unfolding it, its genus and its cone
    # points place no vertex.  The first reader of coordinates places
    # each g.v once; a second direction, the surface dump and the
    # search's vertex table place none
    e = make_entry("2", 5)
    maps = []
    apply_vec = LinearMap.apply_vec

    def counted(self, v):
        maps.append(self)
        return apply_vec(self, v)

    monkeypatch.setattr(LinearMap, "apply_vec", counted)
    M = unfold(e.polygon)
    M.genus()
    M.cone_points()
    assert maps == []
    group = set(M.group.elements())
    thetas = (F(1, 10), F(3, 10))
    charts = {LinearMap.rotation(-th) for th in thetas}
    assert not charts & group
    for th in thetas:
        assert cylinder_decomposition(M, th).cylinders
    fileio.surface_to_json(M)
    _Search(e.polygon, _StatusOracle(M, e.facts), 6, max_nodes=200000)
    assert all(g in group or g in charts for g in maps)
    assert sum(g in group for g in maps) == len(M.faces) * M.k
    assert sum(g in charts for g in maps) == 2 * len(M.faces) * M.k


def test_pairing_and_action_read_the_group_law():
    # face g's copy of side s of P is glued to face g.r_s, and g acts on
    # face h as g.h: both are read from D_N's law on indices.  The
    # references below compose the maps
    entries = [("1", 5), ("2", 5), ("5c", None), ("8", None), ("9b", 5),
               ("10", None)]
    surfaces = [unfold(make_entry(f, n).polygon) for f, n in entries]
    actions = [
        [[M.act_on_face(g, fi) for fi in range(len(M.faces))]
         for g in M.group.elements()]
        for M in surfaces
    ]
    for M, action in zip(surfaces, actions):
        G = M.group
        for (fi, p), (fj, _q) in M.pairing.items():
            g = M.faces[fi].gmap
            e = M.polygon.edges[M.faces[fi].sides[p].source]
            axis = g.apply_angle(e.direction.multiple) % 1
            assert fj == G.index_of(compose(LinearMap.reflection(axis), g))
        assert action == [
            [G.index_of(compose(g, f.gmap)) for f in M.faces]
            for g in G.elements()
        ]
