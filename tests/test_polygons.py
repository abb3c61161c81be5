from fractions import Fraction as F

import pytest

from flatbilliards import cyclotomic as cy
from flatbilliards import planar
from flatbilliards.covers import copies_from_words
from flatbilliards.polygons import (
    DihedralGroup,
    Edge,
    LinearMap,
    Polygon,
    PolygonError,
    RationalAngle,
    angle_data,
    group_of,
    side_reflections,
    triangle_from_angles,
)
from reference import (
    Motion,
    apply_angle,
    apply_motion,
    apply_vec,
    compose,
    inverse,
    motion_by_reflections,
)


def square(side=1):
    return Polygon(
        [
            Edge(F(0), side),
            Edge(F(1, 2), side),
            Edge(F(1), side),
            Edge(F(3, 2), side),
        ]
    )


def test_triangle_angles_roundtrip():
    for angles in [(F(1, 2), F(1, 8), F(3, 8)),
                   (F(1, 3), F(1, 3), F(1, 3)),
                   (F(1, 5), F(1, 3), F(7, 15)),
                   (F(2, 9), F(1, 3), F(4, 9))]:
        t = triangle_from_angles(*angles)
        got = sorted(a.multiple for a in t.angles())
        assert got == sorted(angles)


def test_triangle_law_of_sines_sides():
    t = triangle_from_angles(F(1, 5), F(1, 3), F(7, 15))
    z = cy.sin_pi(F(1, 5)) / cy.sin_pi(F(1, 3))
    y = cy.sin_pi(F(7, 15)) / cy.sin_pi(F(1, 3))
    assert t.edges[0].length == 1
    got = {e.length.key() for e in t.edges}
    expect = {
        cy.embed(1).key(),
        (cy.sin_pi(F(1, 3)) / cy.sin_pi(F(1, 5))).key(),
        (cy.sin_pi(F(7, 15)) / cy.sin_pi(F(1, 5))).key(),
    }
    assert got == expect
    # rescaling so the side opposite pi/3 is the unit gives sides 1, z, y
    scaled = {(e.length * z).key() for e in t.edges}
    assert scaled == {cy.embed(1).key(), z.key(), y.key()}


def test_triangle_equilateral():
    t = triangle_from_angles(F(1, 3), F(1, 3), F(1, 3))
    assert all(e.length == 1 for e in t.edges)


def test_triangle_bad_angles():
    with pytest.raises(PolygonError):
        triangle_from_angles(F(1, 2), F(1, 2), F(1, 2))
    with pytest.raises(PolygonError):
        triangle_from_angles(F(3, 2), F(-1, 4), F(-1, 4))


def test_closure_exact():
    t = triangle_from_angles(F(1, 2), F(1, 8), F(3, 8))
    total = planar.ORIGIN
    for e in t.edges:
        c, s = e.direction.cos(), e.direction.sin()
        total = planar.vadd(total, (e.length * c, e.length * s))
    assert planar.is_zero_vec(total)


def test_angle_data():
    t = triangle_from_angles(F(1, 2), F(1, 8), F(3, 8))
    d = angle_data(t)
    assert d["N"] == 8 and d["group_order"] == 16
    t = triangle_from_angles(F(1, 5), F(1, 3), F(7, 15))
    d = angle_data(t)
    assert d["N"] == 15 and d["group_order"] == 30
    d = angle_data(square())
    assert d["N"] == 2 and d["group_order"] == 4


def test_simplicity_rejects_bowtie():
    with pytest.raises(PolygonError):
        Polygon(
            [
                Edge(F(0), 1),
                Edge(F(3, 4), cy.sin_pi(F(1, 4)) * 2),
                Edge(F(0), 1),
                Edge(F(5, 4), cy.sin_pi(F(1, 4)) * 2),
            ]
        )


def test_reflex_polygon_allowed():
    # L-shape: 6 axis-parallel edges, one reflex vertex
    L = Polygon(
        [
            Edge(F(0), 2),
            Edge(F(1, 2), 1),
            Edge(F(1), 1),
            Edge(F(1, 2), 1),
            Edge(F(1), 1),
            Edge(F(3, 2), 2),
        ]
    )
    mult = sorted(a.multiple for a in L.angles())
    assert mult == [F(1, 2)] * 5 + [F(3, 2)]


def test_dihedral_group_laws():
    g = DihedralGroup(8, F(0))
    elems = g.elements()
    assert len(elems) == 16
    assert sum(1 for e in elems if e.det == -1) == 8
    ident = LinearMap("rot", 0)
    for e in elems:
        assert compose(e, inverse(e)) == ident
        assert e in g
    # closure
    for a in elems[:6]:
        for b in elems[-6:]:
            assert compose(a, b) in g


def test_linear_map_action():
    r = LinearMap("rot", F(1, 2))
    v = (cy.embed(1), cy.embed(0))
    assert planar.veq(apply_vec(r, v), (cy.embed(0), cy.embed(1)))
    f = LinearMap("ref", F(1, 4))  # swap x and y
    assert planar.veq(apply_vec(f, v), (cy.embed(0), cy.embed(1)))
    assert apply_angle(f, F(0)) == F(1, 2)
    # conjugation: g ref(b) g^-1 = ref(g(b))
    g = LinearMap("rot", F(2, 5))
    b = LinearMap("ref", F(1, 3))
    conj = compose(compose(g, b), inverse(g))
    assert conj == LinearMap("ref", apply_angle(g, F(1, 3)) % 1)


@pytest.mark.parametrize("N", range(1, 13))
def test_integer_direction_law(N):
    # D_N moves lattice direction m (base + m/N) by integers mod 2N:
    # against the angle formula for every element and every m
    for base in (F(0), F(2, 7 * N)):
        G = DihedralGroup(N, base)
        table = G.directions()
        assert len(table) == 2 * N
        for m, d in enumerate(table):
            assert d == (base + F(m, N)) % 2
            assert G.direction_index(d) == m
            assert G.direction_index(d + 2) == m
        for gi, g in enumerate(G.elements()):
            for m in range(2 * N):
                got = G.act_on_direction(gi, m)
                assert 0 <= got < 2 * N
                assert table[got] == apply_angle(g, table[m])
        with pytest.raises(PolygonError):
            G.direction_index(base + F(1, 2 * N))


def test_subgroup_test_reads_the_axis_offset():
    # D_M with base axis b lies in D_N exactly when each of its elements
    # does: against LinearMap membership, element by element
    for N in range(1, 9):
        big = DihedralGroup(N, F(1, 5 * N))
        for M in range(1, 2 * N + 1):
            for b in (F(0), F(1, 5 * N), F(1, 2 * N), F(6, 5 * N)):
                small = DihedralGroup(M, b)
                assert small.is_subgroup_of(big) == all(
                    g in big for g in small.elements())


def test_group_of_uses_edge_directions():
    t = triangle_from_angles(F(1, 2), F(1, 8), F(3, 8))
    g = group_of(t)
    assert g.N == 8
    for e in t.edges:
        assert LinearMap("ref", e.direction.multiple % 1) in g
    # the reflection across each side, read from its lattice index
    assert side_reflections(t, g) == [
        g.index_of(LinearMap("ref", e.direction.multiple % 1))
        for e in t.edges
    ]


def test_motion_reflection_across_line():
    # the unit square reflected across its side 2, the line y=1: the
    # copy (g, t) read as a motion is the reflection across that line
    sq = square()
    ((g, t),) = copies_from_words(sq, [[2]])
    m = Motion(sq.group().element(g), t)
    assert m.key() == motion_by_reflections(sq, [2]).key()
    p = (cy.embed(3), cy.embed(0))
    assert planar.veq(apply_motion(m, p), (cy.embed(3), cy.embed(2)))
    # involution
    assert planar.veq(apply_motion(m, apply_motion(m, p)), p)


def test_reflection_preserves_polygon_shape():
    t = triangle_from_angles(F(1, 5), F(1, 3), F(7, 15))
    pts = t.vertices()
    ((g, shift),) = copies_from_words(t, [[0]])  # across side 0's line
    image = [planar.vadd(p, shift) for p in t.row(g)]
    m = motion_by_reflections(t, [0])
    assert [planar.vkey(p) for p in image] == [
        planar.vkey(apply_motion(m, p)) for p in pts]
    # side lengths preserved as a multiset
    def side_lengths(ps):
        k = len(ps)
        return sorted(
            planar.norm2(planar.vsub(ps[(i + 1) % k], ps[i])).key()
            for i in range(k)
        )
    assert side_lengths(list(pts)) == side_lengths(image)


def test_canonical_key_rotation_invariant():
    t = triangle_from_angles(F(1, 5), F(1, 3), F(7, 15))
    rolled = Polygon(t.edges[1:] + t.edges[:1])
    assert t.canonical_key() == rolled.canonical_key()
    other = triangle_from_angles(F(1, 3), F(1, 5), F(7, 15))
    assert t.canonical_key() != other.canonical_key()


def test_area_positive():
    t = triangle_from_angles(F(1, 4), F(1, 3), F(5, 12))
    assert t.area_twice().sign() > 0
    assert square().area_twice() == 2
