from fractions import Fraction as F

import pytest

from flatbilliards.catalog import (
    CatalogError,
    l_shape,
    list_families,
    make_entry,
    quadrilateral_from_angles,
)
from flatbilliards.polygons import angle_data
from flatbilliards.unfolding import unfold


def angles_of(entry):
    return sorted(a.multiple for a in entry.polygon.angles())


def test_family_formulas():
    assert angles_of(make_entry("2", 8)) == [F(1, 8), F(3, 8), F(1, 2)]
    assert angles_of(make_entry("6", 5)) == [F(1, 10), F(1, 5), F(7, 10)]
    assert angles_of(make_entry("9a", 7)) == [
        F(1, 14),
        F(1, 7),
        F(1, 7),
        F(23, 14),
    ]
    assert angles_of(make_entry("9b", 5)) == [
        F(1, 5),
        F(1, 5),
        F(1, 2),
        F(11, 10),
    ]
    assert angles_of(make_entry("1", 6)) == [F(2, 3)] * 6
    assert angles_of(make_entry("7")) == [F(1, 12), F(1, 3), F(7, 12)]


def test_angle_sums_are_exact():
    for fam, n in [
        ("2", 9),
        ("3", 7),
        ("4", 11),
        ("5a", None),
        ("5b", None),
        ("5c", None),
        ("6", 7),
        ("7", None),
    ]:
        e = make_entry(fam, n)
        assert sum(a.multiple for a in e.polygon.angles()) == 1
    for fam, n in [("9a", 7), ("9a", 9), ("9b", 5), ("9b", 7)]:
        e = make_entry(fam, n)
        assert sum(a.multiple for a in e.polygon.angles()) == 2


def test_parameter_ranges():
    for fam, n in [
        ("1", 2),
        ("2", 3),
        ("4", 4),
        ("6", 3),
        ("9a", 6),
        ("9a", 8),
        ("9b", 4),
        ("9b", 6),
        ("zzz", None),
        # families without a parameter refuse one
        ("5a", 7),
        ("5b", 5),
        ("5c", 9),
        ("7", 12),
        ("8", 1),
        ("10", 4),
    ]:
        with pytest.raises(CatalogError):
            make_entry(fam, n)


def test_l_shape_reflex_vertex():
    for P in (make_entry("8").polygon, l_shape((1, 2, F(1, 2), 1))):
        angs = [a.multiple for a in P.angles()]
        assert angs.count(F(3, 2)) == 1
        assert angs.count(F(1, 2)) == 5
    assert make_entry("8").facts["periodic_reason"] == "rotation_by_pi"


def test_reflex_quadrilaterals_have_reflex_vertex():
    for fam, n in [("9a", 7), ("9b", 5)]:
        e = make_entry(fam, n)
        assert any(a.multiple > 1 for a in e.polygon.angles())


def test_quadrilateral_bad_sum():
    with pytest.raises(CatalogError):
        quadrilateral_from_angles([F(1, 2), F(1, 2), F(1, 2), F(1, 4)])
    with pytest.raises(CatalogError):
        quadrilateral_from_angles([F(1, 3), F(1, 3), F(1, 3), F(1, 3)])


def test_topology_table():
    # genus computed two independent ways inside unfold (cone-angle
    # excess vs V - E + F); the named surfaces take the stated values
    cases = [
        ("2", 5, 2),  # double pentagon
        ("2", 6, 1),
        ("2", 7, 3),
        ("2", 8, 2),  # octagon
        ("5a", None, 3),
        ("5b", None, 4),
        ("5c", None, 3),
        ("6", 5, 4),
    ]
    for fam, n, g in cases:
        e = make_entry(fam, n)
        got = unfold(e.polygon).genus()
        assert got["g"] == g
        if "genus" in e.facts:
            assert e.facts["genus"] == g


def test_even_catalog_members_have_minus_id():
    for fam, n in [("1", 4), ("2", 8), ("3", 4), ("6", 6), ("8", None), ("10", None)]:
        e = make_entry(fam, n)
        assert angle_data(e.polygon)["N"] % 2 == 0


def test_split_direction_fact_reproduces():
    from flatbilliards.periodicity import classify_point

    e = make_entry("6", 5)
    M = unfold(e.polygon)
    direction = e.facts["split_direction"]
    hits = 0
    for cp in M.cone_points():
        if cp.is_singular or cp.angle.multiple not in e.facts[
            "non_periodic_vertex_angles"
        ]:
            continue
        v = classify_point(M, cp, directions=[direction])
        assert v.status == "non_periodic"
        hits += 1
    assert hits == 2


def test_family_listing():
    fams = list_families()
    assert "5b" in fams and "9a" in fams and len(fams) == 13
