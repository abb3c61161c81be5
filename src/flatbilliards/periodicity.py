"""Periodicity certificates for marked points of an unfolded surface.

A singular point is always periodic.  When -Id belongs to the
reflection group, any marked point fixed by the corresponding affine
rotation by pi is periodic.  A marked point that splits the height of
a cylinder irrationally in some periodic direction is non-periodic;
anything else stays unknown.

A surface keeps its default-bound decompositions in M.decompositions
(theta mod 2 -> Decomposition or the NotShownPeriodic it raised), so
each direction is decomposed once per surface and dropped with it.  A
miss calls cylinder_decomposition by this module's name, which the
tracer replaces; replay_certificate, the re-check, decomposes afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .flow import (
    NotShownPeriodic,
    OnSeparatrix,
    cylinder_decomposition,
    height_split,
)
from .unfolding import ConePoint, TranslationSurface


@dataclass(frozen=True)
class PeriodicityVerdict:
    status: str  # 'periodic' | 'non_periodic' | 'unknown'
    certificate: object  # 'singular' | 'minus_id_fixed' | dict | 'none'
    # (direction, result) per direction that gave no irrational split;
    # result is 'rational', 'on_separatrix' or 'not_shown_periodic: ...'
    evidence: tuple = ()

    def __post_init__(self):
        if self.status == "non_periodic" and not isinstance(
            self.certificate, dict
        ):
            raise ValueError("non_periodic requires an irrational split")
        if self.status == "periodic" and self.certificate not in (
            "singular",
            "minus_id_fixed",
        ):
            raise ValueError("periodic requires a named certificate")


def default_directions(M: TranslationSurface) -> list:
    """Horizontal plus the reflection-axis directions of the group."""
    axes = [(M.group.base_axis + Fraction(j, M.N)) % 1 for j in range(M.N)]
    return list(dict.fromkeys([Fraction(0)] + axes))


def minus_id_fixes(M: TranslationSurface, p: ConePoint) -> bool:
    """Is -Id (rot_(N/2), in D_N for even N) in the group, and does its
    affine action fix this class?"""
    return M.N % 2 == 0 and M.act_on_class(M.N // 2, p).class_id == p.class_id


# classify_point is the per-class entry the benchmark calls and wraps: the
# memo (per surface, default bound, dropped with M) makes class-by-class
# calls decompose each direction once.  Its tracer replaces the names
# cylinder_decomposition and height_split here: call them by those names.
def classify_point(
    M: TranslationSurface, p: ConePoint, directions=None
) -> PeriodicityVerdict:
    return classify_points(M, [p], directions)[p.class_id]


def classify_points(M: TranslationSurface, classes, directions=None) -> dict:
    """Verdicts for vertex classes of one surface, by class id.

    Directions are tried in order, each decomposed at most once per
    surface, until no class is pending.  A class's certificate is the
    first irrational split; what each earlier direction gave is kept as
    its evidence.
    """
    verdicts, pending = {}, {}
    for p in classes:
        if p.is_singular or minus_id_fixes(M, p):
            cert = "singular" if p.is_singular else "minus_id_fixed"
            verdicts[p.class_id] = PeriodicityVerdict("periodic", cert)
        else:
            pending[p.class_id] = (p, [])
    for theta in default_directions(M) if directions is None else directions:
        if not pending:
            break
        d = Fraction(theta) % 2
        if d not in M.decompositions:
            try:
                M.decompositions[d] = cylinder_decomposition(M, d)
            except NotShownPeriodic as exc:
                # the traceback's frames hold M: keep it off the memo
                M.decompositions[d] = exc.with_traceback(None)
        dec = M.decompositions[d]
        if isinstance(dec, NotShownPeriodic):
            for _p, tried in pending.values():
                tried.append((d, f"not_shown_periodic: {dec.detail}"))
            continue
        for cid, (p, tried) in list(pending.items()):
            try:
                split = height_split(M, dec, p)
            except OnSeparatrix:
                tried.append((d, "on_separatrix"))
                continue
            if split["rational"]:
                tried.append((d, "rational"))
                continue
            cert = {"direction": d, "h1": split["h1"], "h": split["h"]}
            verdicts[cid] = PeriodicityVerdict(
                "non_periodic", cert, tuple(tried)
            )
            del pending[cid]
    for cid, (_p, tried) in pending.items():
        verdicts[cid] = PeriodicityVerdict("unknown", "none", tuple(tried))
    return {p.class_id: verdicts[p.class_id] for p in classes}


def replay_certificate(
    M: TranslationSurface, p: ConePoint, verdict: PeriodicityVerdict
) -> bool:
    """Re-derive a verdict's certificate from scratch."""
    if verdict.status == "periodic":
        if verdict.certificate == "singular":
            return p.is_singular
        return minus_id_fixes(M, p)
    if verdict.status == "non_periodic":
        cert = verdict.certificate
        dec = cylinder_decomposition(M, cert["direction"])
        split = height_split(M, dec, p)
        return (
            not split["rational"]
            and (split["h1"] - cert["h1"]).is_zero
            and (split["h"] - cert["h"]).is_zero
        )
    return True
