import gc
import weakref
from fractions import Fraction as F

import pytest

from flatbilliards import periodicity
from flatbilliards.catalog import make_entry
from flatbilliards.flow import NotShownPeriodic
from flatbilliards.periodicity import (
    classify_point,
    classify_points,
    default_directions,
    replay_certificate,
)
from flatbilliards.polygons import triangle_from_angles
from flatbilliards.unfolding import unfold


def test_singular_points_periodic():
    M = unfold(triangle_from_angles(F(2, 9), F(1, 3), F(4, 9)))
    for cp in M.singular_points():
        v = classify_point(M, cp)
        assert v.status == "periodic" and v.certificate == "singular"
        assert replay_certificate(M, cp, v)


def test_octagon_vertices_minus_id_fixed():
    M = unfold(triangle_from_angles(F(1, 2), F(1, 8), F(3, 8)))
    for cp in M.cone_points():
        v = classify_point(M, cp)
        assert v.status == "periodic"
        if not cp.is_singular:
            assert v.certificate == "minus_id_fixed"
        assert replay_certificate(M, cp, v)


def test_double_pentagon_centers_non_periodic():
    M = unfold(triangle_from_angles(F(1, 2), F(1, 5), F(3, 10)))
    centers = [
        c for c in M.cone_points()
        if c.angle.multiple == F(1, 5) and not c.is_singular
    ]
    assert len(centers) == 2
    for cp in centers:
        v = classify_point(M, cp)
        assert v.status == "non_periodic"
        assert replay_certificate(M, cp, v)


def test_family_5a_pi3_points_non_periodic():
    M = unfold(triangle_from_angles(F(1, 4), F(1, 3), F(5, 12)))
    horizontal_hits = 0
    for cp in M.cone_points():
        if cp.angle.multiple != F(1, 3) or cp.is_singular:
            continue
        v = classify_point(M, cp)
        assert v.status == "non_periodic"
        assert replay_certificate(M, cp, v)
        if v.certificate["direction"] == 0:
            horizontal_hits += 1
    # some of the classes resolve already in the horizontal direction;
    # the rest sit on horizontal separatrices and need an axis direction
    assert horizontal_hits >= 2


def test_orbit_consistency():
    M = unfold(triangle_from_angles(F(1, 2), F(1, 5), F(3, 10)))
    statuses = {}
    for cp in M.cone_points():
        statuses[cp.class_id] = classify_point(M, cp).status
    for g in M.group.elements():
        for cp in M.cone_points():
            img = M.act_on_class(g, cp)
            assert statuses[cp.class_id] == statuses[img.class_id]


def test_unknown_when_no_direction_given():
    M = unfold(triangle_from_angles(F(1, 5), F(1, 3), F(7, 15)))
    cp = [c for c in M.cone_points() if not c.is_singular][0]
    v = classify_point(M, cp, directions=[])
    assert v.status == "unknown" and v.certificate == "none"


def test_default_directions_cover_axes():
    M = unfold(triangle_from_angles(F(1, 2), F(1, 8), F(3, 8)))
    dirs = default_directions(M)
    assert F(0) in dirs
    assert len(dirs) == M.N or len(dirs) == M.N + 1


def test_unknown_verdicts_keep_their_evidence():
    # classes 0 and 5 of (pi/4, pi/3, 5pi/12) sit on horizontal
    # separatrices; the other pi/3 classes split irrationally there
    M = unfold(triangle_from_angles(F(1, 4), F(1, 3), F(5, 12)))
    verdicts = classify_points(M, M.cone_points(), directions=[0])
    for cid in (0, 5):
        v = verdicts[cid]
        assert v.status == "unknown" and v.certificate == "none"
        assert v.evidence == ((0, "on_separatrix"),)
    for cid in (3, 7):
        assert verdicts[cid].status == "non_periodic"
    for v in classify_points(M, M.cone_points(), directions=[]).values():
        assert v.status != "non_periodic" and v.evidence == ()


def _same_verdict(a, b):
    if a.status != b.status or a.evidence != b.evidence:
        return False
    if a.status != "non_periodic":
        return a.certificate == b.certificate
    ca, cb = a.certificate, b.certificate
    return (
        ca["direction"] == cb["direction"]
        and (ca["h1"] - cb["h1"]).is_zero
        and (ca["h"] - cb["h"]).is_zero
    )


def _counting(monkeypatch):
    """Count the directions periodicity decomposes, by its module name."""
    decomposed = []
    real = periodicity.cylinder_decomposition

    def counting(M, theta, *rest):
        decomposed.append(F(theta) % 2)
        return real(M, theta, *rest)

    monkeypatch.setattr(periodicity, "cylinder_decomposition", counting)
    return decomposed


@pytest.mark.parametrize(
    "family,n", [("2", 5), ("6", 5), ("5a", None), ("5c", None)]
)
def test_classify_points_agrees_with_classify_point(family, n, monkeypatch):
    # one surface keeps its decompositions: the default list, then the
    # certify list, then class by class with each, decompose every
    # direction at most once, and give the verdicts of a fresh surface
    e = make_entry(family, n)
    M = unfold(e.polygon)
    split = e.facts["split_direction"]
    certify = [split] + [d for d in default_directions(M) if d != split]
    lists = (None, certify)
    fresh = []
    for directions in lists:
        M_fresh = unfold(e.polygon)
        fresh.append(
            classify_points(M_fresh, M_fresh.cone_points(), directions)
        )
    decomposed = _counting(monkeypatch)
    together = [classify_points(M, M.cone_points(), d) for d in lists]
    for directions, ref, both in zip(lists, fresh, together):
        for cp in M.cone_points():
            alone = classify_point(M, cp, directions)
            assert _same_verdict(both[cp.class_id], ref[cp.class_id])
            assert _same_verdict(alone, ref[cp.class_id])
    assert decomposed and len(decomposed) == len(set(decomposed))


# (pi/4, pi/3, 5pi/12) at 1/24 exceeds the default length bound
_FIVE_A = (F(1, 4), F(1, 3), F(5, 12))


def test_memo_goes_with_its_surface():
    # neither a decomposition nor a memoized NotShownPeriodic (whose
    # traceback would hold the surface) may keep the surface alive
    gc.disable()
    try:
        M = unfold(triangle_from_angles(*_FIVE_A))
        verdicts = classify_points(M, M.cone_points(), [F(1, 24), 0])
        assert isinstance(M.decompositions[F(1, 24)], NotShownPeriodic)
        assert any(v.status == "non_periodic" for v in verdicts.values())
        ref = weakref.ref(M)
        del M
        assert ref() is None
    finally:
        gc.enable()


def test_replay_decomposes_afresh(monkeypatch):
    M = unfold(triangle_from_angles(F(1, 2), F(1, 5), F(3, 10)))
    verdicts = classify_points(M, M.cone_points())
    cid, v = next(
        (c, v) for c, v in verdicts.items() if v.status == "non_periodic"
    )
    assert v.certificate["direction"] in M.decompositions
    decomposed = _counting(monkeypatch)
    cp = next(c for c in M.cone_points() if c.class_id == cid)
    assert replay_certificate(M, cp, v)
    assert decomposed == [v.certificate["direction"]]


def test_memoized_not_shown_periodic_keeps_its_evidence(monkeypatch):
    M = unfold(triangle_from_angles(*_FIVE_A))
    cp = next(c for c in M.cone_points() if not c.is_singular)
    decomposed = _counting(monkeypatch)
    first = classify_point(M, cp, [F(1, 24)])
    second = classify_point(M, cp, [F(1, 24)])
    assert decomposed == [F(1, 24)]
    assert first.status == second.status == "unknown"
    assert first.evidence == second.evidence == (
        (F(1, 24), "not_shown_periodic: length bound exceeded"),
    )
