"""Reflection tilings of a polygon and branched translation covers.

A polygon P tiles a polygon Q by reflections when Q is partitioned
into isometric copies of P and adjacent copies are mirror images
across their shared side.  The unfolded surface of Q then covers the
unfolded surface of P by a map that is a translation in charts.  This
module verifies tilings exactly, computes the covering data (degree,
branch locus, ramification indices, Riemann-Hurwitz bookkeeping), and
decides whether the cover is branched over a single non-periodic
point.

A tiling is verified by its outline: once shared sides are mirror
pairs and the union is connected, a simple counterclockwise outline
rules out every overlap, so no side or vertex is tested against
another copy.  Tiling symmetries are screened the same way: a group
element is tested on the copies' vertices only when it maps the
outline's edge sequence onto a cyclic shift of itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import planar
from .periodicity import classify_point
from .polygons import (
    DihedralGroup,
    Edge,
    LinearMap,
    Motion,
    Polygon,
    PolygonError,
    group_of,
    minus_id_screen,
    reflection_across_line,
)
from .unfolding import TranslationSurface, unfold


class CoverError(ValueError):
    """Invalid tiling or inconsistent covering data."""


# ---------------------------------------------------------------------------
# building motions from reflection words


def motion_from_word(P: Polygon, word) -> Motion:
    """Compose reflections along a word of side indices.

    Starting from the identity copy of P, each index s reflects the
    current copy across its own side s; the result is the motion
    placing the final copy.  Side indices run from 0 to k - 1.
    """
    verts = P.vertices()
    k = len(verts)
    cur = Motion.identity()
    for s in word:
        s = int(s)
        if not 0 <= s < k:
            raise CoverError(f"side index {s} out of range for {k} sides")
        a = cur.apply(verts[s])
        d = cur.orth.apply_angle(P.edges[s].direction.multiple)
        cur = reflection_across_line(a, d).compose(cur)
    return cur


def motions_from_words(P: Polygon, words) -> list[Motion]:
    return [motion_from_word(P, w) for w in words]


# ---------------------------------------------------------------------------
# tilings


@dataclass(frozen=True)
class Tiling:
    """A verified tiling of the outline polygon by copies of the base."""

    base: Polygon
    motions: tuple
    copy_vertices: tuple  # per copy, placed vertices in base order
    outline: Polygon  # Q, with vertex 0 at the origin of its own chart
    outline_points: tuple  # plane coordinates of Q's vertices
    internal_pairs: tuple  # ((ci, si), (cj, sj)) shared full sides
    external_sides: tuple  # (ci, si) on the boundary of Q

    @property
    def n_copies(self) -> int:
        return len(self.motions)


def verify_tiling(P: Polygon, motions) -> Tiling:
    """Check the tiling invariants exactly and extract the outline.

    Raises CoverError on coinciding copies, a side with more than two
    owners, non-mirror adjacency, a disconnected union, or an outline
    that is pinched, has a hole, or is not a simple counterclockwise
    polygon (a pinch may also come from overlapping copies).

    No side or vertex is tested against another copy: these checks
    already rule out every overlap, crossing, T-junction and partial
    side.  Each copy, traversed counterclockwise, is a simple polygon.
    Every internal pair is a full side shared by two mirror copies,
    which traverse it in opposite directions, so the two traversals
    cancel and the copies' boundaries sum, as a chain, to the outline.
    The sum of the copies' indicator functions therefore equals the
    outline's winding number almost everywhere: 1 inside and 0 outside
    a simple counterclockwise outline.  So the copies' interiors are
    disjoint and fill Q, and a vertex of one copy inside a side of
    another would leave part of a copy outside Q or over its mirror
    partner.  The area check is a cheap cross-check of the count.
    """
    motions = tuple(motions)
    if not motions:
        raise CoverError("a tiling needs at least one copy")
    G_P = group_of(P)
    for mo in motions:
        if mo.orth not in G_P:
            raise CoverError(
                "motion's orthogonal part is outside the base polygon's "
                "reflection group"
            )
    base_verts = P.vertices()
    k = len(base_verts)
    copy_vertices = [
        tuple(mo.apply(v) for v in base_verts) for mo in motions
    ]

    # duplicate copies
    seen_sets = set()
    for verts in copy_vertices:
        key = frozenset(planar.vkey(v) for v in verts)
        if key in seen_sets:
            raise CoverError("two copies coincide")
        seen_sets.add(key)

    # classify sides by their (unordered) endpoint pair
    sides = {}  # frozenset of endpoint keys -> [(copy, side)]
    for c, verts in enumerate(copy_vertices):
        for s in range(k):
            key = frozenset(
                (planar.vkey(verts[s]), planar.vkey(verts[(s + 1) % k]))
            )
            sides.setdefault(key, []).append((c, s))
    internal_pairs = []
    external = []
    for key, owners in sides.items():
        if len(owners) > 2:
            raise CoverError("a side is shared by more than two copies")
        if len(owners) == 2:
            (ci, si), (cj, sj) = owners
            if ci == cj:
                raise CoverError("a copy shares a side with itself")
            internal_pairs.append(((ci, si), (cj, sj)))
        else:
            external.append(owners[0])

    # mirror adjacency across every internal side: an affine map is
    # fixed by three non-collinear vertices, so comparing motions
    # compares every placed vertex
    for (ci, si), (cj, _) in internal_pairs:
        d = motions[ci].orth.apply_angle(P.edges[si].direction.multiple)
        mirrored = reflection_across_line(
            copy_vertices[ci][si], d
        ).compose(motions[ci])
        if mirrored.orth != motions[cj].orth or not planar.veq(
            mirrored.shift, motions[cj].shift
        ):
            raise CoverError(
                "adjacent copies are not mirror images across their "
                "shared side"
            )

    # connectivity through shared sides
    adjacency = {c: set() for c in range(len(motions))}
    for (ci, _), (cj, _) in internal_pairs:
        adjacency[ci].add(cj)
        adjacency[cj].add(ci)
    stack, reached = [0], {0}
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    if len(reached) != len(motions):
        raise CoverError("union of copies is disconnected")

    # chain the external sides counterclockwise into the outline
    directed = {}
    for c, s in external:
        verts = copy_vertices[c]
        a, b = verts[s], verts[(s + 1) % k]
        d = motions[c].orth.apply_angle(P.edges[s].direction.multiple)
        if motions[c].orth.det == -1:
            a, b = b, a
            d = (d + 1) % 2
        key = planar.vkey(a)
        if key in directed:
            raise CoverError("copies overlap or the union touches itself: "
                             "outline is pinched at a point")
        directed[key] = (a, b, d, P.edges[s].length)
    start_key = next(iter(directed))
    cycle = []
    key = start_key
    while True:
        rec = directed.pop(key, None)
        if rec is None:
            raise CoverError("outline does not close into one cycle")
        cycle.append(rec)
        key = planar.vkey(rec[1])
        if key == start_key:
            break
    if directed:
        raise CoverError(
            "union of copies has a hole or touches itself"
        )

    # merge collinear runs (interior straight points of the outline)
    rot = 0
    while cycle[rot][2] == cycle[rot - 1][2]:
        rot += 1
        if rot == len(cycle):
            raise CoverError("outline is degenerate")
    cycle = cycle[rot:] + cycle[:rot]
    edges = []
    points = []
    i = 0
    while i < len(cycle):
        a, _, d, length = cycle[i]
        j = i + 1
        while j < len(cycle) and cycle[j][2] == d:
            length = length + cycle[j][3]
            j += 1
        edges.append(Edge(d, length))
        points.append(a)
        i = j
    try:
        outline = Polygon(edges)
    except PolygonError as exc:
        raise CoverError(
            f"copies overlap or cross: outline is not a simple polygon: {exc}"
        ) from exc
    want = P.area_twice() * len(motions)
    if not (outline.area_twice() - want).is_zero:
        raise CoverError(
            "copies overlap or cross: outline area does not match the "
            "copy count"
        )

    return Tiling(
        base=P,
        motions=motions,
        copy_vertices=tuple(copy_vertices),
        outline=outline,
        outline_points=tuple(points),
        internal_pairs=tuple(internal_pairs),
        external_sides=tuple(external),
    )


def tile_by_words(P: Polygon, words) -> Tiling:
    """Convenience: build motions from reflection words and verify."""
    return verify_tiling(P, motions_from_words(P, words))


# ---------------------------------------------------------------------------
# covering analysis


@dataclass(frozen=True)
class BranchPoint:
    """Preimage data of one cone-point class of the base surface."""

    source_vertex: int
    angle: Fraction  # interior angle of the base vertex, units of pi
    class_id: int  # cone-point class in the base surface
    multipliers: tuple  # k_i per preimage
    ram_indices: tuple  # e_i per preimage
    branched: bool


@dataclass
class CoverAnalysis:
    tiling: Tiling
    n_copies: int
    N_P: int
    N_Q: int
    subgroup_index: int
    degree: int
    branch_points: list
    H: list  # linear maps of G_P preserving the tiling up to translation
    total_ramification: int
    chi_base: int
    chi_cover: int
    genus_base: int
    genus_cover: int
    rh_consistent: bool
    base_surface: TranslationSurface = field(repr=False, default=None)
    cover_surface: TranslationSurface = field(repr=False, default=None)

    def branched_classes(self):
        return [bp for bp in self.branch_points if bp.branched]


def _position_of_source(face, v):
    positions = [
        q for q in range(len(face.source_vertex))
        if face.source_vertex[q] == v
    ]
    if len(positions) != 1:
        raise CoverError("ambiguous vertex in a face")  # pragma: no cover
    return positions[0]


def _lexmin_point(points):
    best = None
    for p in points:
        if best is None:
            best = p
            continue
        dx = (p[0] - best[0]).sign()
        if dx < 0 or (dx == 0 and (p[1] - best[1]).sign() < 0):
            best = p
    return best


def _config_key(copy_vertices):
    anchor = _lexmin_point([v for verts in copy_vertices for v in verts])
    return frozenset(
        frozenset(planar.vkey(planar.vsub(v, anchor)) for v in verts)
        for verts in copy_vertices
    )


def tiling_symmetries(t: Tiling) -> list:
    """Linear maps of the base group carrying the tiling to a translate
    of itself.

    gT = T + tau forces gQ = Q + tau for the outline Q, so g must first
    map Q's edge sequence (direction, length key) onto a cyclic shift
    of itself; a reflection reverses the sequence and turns each edge
    around.  Only a g that passes this exact screen is tested on the
    copies' vertices, and the identity needs no test.
    """
    seq = [(e.direction.multiple, e.length.key()) for e in t.outline.edges]
    shifts = {tuple(seq[i:] + seq[:i]) for i in range(len(seq))}
    base_key = None
    out = []
    for g in group_of(t.base).elements():
        img = [(g.apply_angle(d), key) for d, key in seq]
        if g.det == -1:
            img = [((d + 1) % 2, key) for d, key in reversed(img)]
        if tuple(img) not in shifts:
            continue
        if g != LinearMap.identity():
            if base_key is None:
                base_key = _config_key(t.copy_vertices)
            moved = [
                tuple(g.apply_vec(v) for v in verts)
                for verts in t.copy_vertices
            ]
            if _config_key(moved) != base_key:
                continue
        out.append(g)
    return out


def analyze_cover(t: Tiling) -> CoverAnalysis:
    """Covering data of the cover of unfolded surfaces induced by a
    tiling, with every count cross-checked exactly."""
    P, Q = t.base, t.outline
    G_P = group_of(P)
    try:
        G_Q = group_of(Q)
    except PolygonError as exc:
        raise CoverError(f"inconsistent outline group: {exc}") from exc
    N_P, N_Q = G_P.N, G_Q.N
    if not G_Q.is_subgroup_of(G_P):
        raise CoverError("outline group is not a subgroup of the base group")
    m = N_P // N_Q
    n = t.n_copies
    if n % m:
        raise CoverError("cover degree n/m is not an integer")
    d = n // m

    M_P = unfold(P)
    M_Q = unfold(Q)
    angles = P.angles()
    k = len(P.edges)

    # census of tiling points (all placed copy vertices)
    points = {}
    for c, verts in enumerate(t.copy_vertices):
        for i, pt in enumerate(verts):
            rec = points.setdefault(
                planar.vkey(pt), {"pt": pt, "corners": []}
            )
            rec["corners"].append((c, i))
    outline_index = {
        planar.vkey(p): qi for qi, p in enumerate(t.outline_points)
    }

    def image_class_id(h_lin, c, v):
        g = h_lin.compose(t.motions[c].orth)
        gi = M_P.group.index_of(g)
        pos = _position_of_source(M_P.faces[gi], v)
        return M_P.class_of_corner((gi, pos)).class_id

    per_class = {
        cp.class_id: {"k": [], "e": [], "sum": 0}
        for cp in M_P.cone_points()
    }

    for key, rec in points.items():
        sources = {i for _, i in rec["corners"]}
        if len(sources) != 1:
            raise CoverError(
                "corners of different base vertices meet at one point"
            )
        v = sources.pop()
        kk = len(rec["corners"])
        sigma = kk * angles[v].multiple
        n0 = angles[v].denominator
        if sigma == 2:
            # interior point of Q: one unbranched preimage per face
            for face in M_Q.faces:
                img = None
                for c, _ in rec["corners"]:
                    got = image_class_id(face.gmap, c, v)
                    if img is None:
                        img = got
                    elif got != img:
                        raise CoverError("cover chart mismatch (interior)")
                per_class[img]["k"].append(kk)
                per_class[img]["e"].append(1)
                per_class[img]["sum"] += 1
        elif sigma == 1:
            # interior point of an outline edge: faces identify in pairs
            eq = None
            for qi in range(len(Q.edges)):
                a = t.outline_points[qi]
                b = t.outline_points[(qi + 1) % len(Q.edges)]
                if planar.on_segment(rec["pt"], a, b):
                    eq = qi
                    break
            if eq is None:
                raise CoverError(
                    "half-angle point off the outline boundary"
                )  # pragma: no cover
            done = set()
            for face in M_Q.faces:
                pos = face.side_position_of_source(eq)
                partner = M_Q.pairing[(face.index, pos)][0]
                pair = frozenset((face.index, partner))
                img = None
                for fi in pair:
                    h_lin = M_Q.faces[fi].gmap
                    for c, _ in rec["corners"]:
                        got = image_class_id(h_lin, c, v)
                        if img is None:
                            img = got
                        elif got != img:
                            raise CoverError("cover chart mismatch (edge)")
                if pair in done:
                    continue
                done.add(pair)
                per_class[img]["k"].append(kk)
                per_class[img]["e"].append(1)
                per_class[img]["sum"] += 1
        else:
            qi = outline_index.get(key)
            if qi is None:
                raise CoverError(
                    "corner angle sum is neither a vertex of the outline "
                    "nor a flat completion"
                )
            e = kk // math.gcd(kk, n0)
            for cls in M_Q.classes_for_source_vertex(qi):
                img = None
                for fi, _ in cls.corners:
                    h_lin = M_Q.faces[fi].gmap
                    for c, _ in rec["corners"]:
                        got = image_class_id(h_lin, c, v)
                        if img is None:
                            img = got
                        elif got != img:
                            raise CoverError("cover chart mismatch (vertex)")
                per_class[img]["k"].append(kk)
                per_class[img]["e"].append(e)
                per_class[img]["sum"] += e

    branch_points = []
    total_ram = 0
    for cp in M_P.cone_points():
        data = per_class[cp.class_id]
        if data["sum"] != d:
            raise CoverError(
                f"preimage multiplicities of class {cp.class_id} sum to "
                f"{data['sum']}, expected degree {d}"
            )
        branched = any(e > 1 for e in data["e"])
        total_ram += sum(e - 1 for e in data["e"])
        branch_points.append(
            BranchPoint(
                source_vertex=cp.source_vertex,
                angle=cp.angle.multiple,
                class_id=cp.class_id,
                multipliers=tuple(data["k"]),
                ram_indices=tuple(data["e"]),
                branched=branched,
            )
        )

    gP = M_P.genus()
    gQ = M_Q.genus()
    if gQ["chi"] != d * gP["chi"] - total_ram:
        raise CoverError(
            "Riemann-Hurwitz mismatch: "
            f"{gQ['chi']} != {d}*{gP['chi']} - {total_ram}"
        )
    if total_ram > 0 and not gQ["g"] > 1 + d * (gP["g"] - 1):
        raise CoverError("branched cover violates the genus bound")

    return CoverAnalysis(
        tiling=t,
        n_copies=n,
        N_P=N_P,
        N_Q=N_Q,
        subgroup_index=m,
        degree=d,
        branch_points=branch_points,
        H=tiling_symmetries(t),
        total_ramification=total_ram,
        chi_base=gP["chi"],
        chi_cover=gQ["chi"],
        genus_base=gP["g"],
        genus_cover=gQ["g"],
        rh_consistent=True,
        base_surface=M_P,
        cover_surface=M_Q,
    )


# ---------------------------------------------------------------------------
# the appropriate-cover verdict


def appropriate_verdict(analysis: CoverAnalysis, verdicts=None) -> dict:
    """Is the cover branched over exactly one certified non-periodic
    point, with that point fixed by the outline group and the tiling
    symmetries, and no even angle forcing -Id into the outline group?

    `verdicts` maps base cone-class ids to status strings (the search
    passes its lazy oracle); without it the branch point is classified
    here.
    """
    reasons = []
    unknown = "branch point periodicity unknown"

    branched = analysis.branched_classes()
    if len(branched) == 0:
        reasons.append("unbranched cover")
    elif len(branched) >= 2:
        reasons.append("two branch points")

    Q = analysis.tiling.outline
    screen = minus_id_screen(Q, external_sides=range(len(Q.edges)))
    if screen["in_group"]:
        reasons.append(f"rotation by pi in outline group ({screen['reason']})")

    if len(branched) == 1:
        bp = branched[0]
        M_P = analysis.base_surface
        cp = next(c for c in M_P.cone_points() if c.class_id == bp.class_id)
        if verdicts is None:
            status = classify_point(M_P, cp).status
        else:
            status = verdicts[bp.class_id]
        if status == "periodic":
            reasons.append("branch point is periodic")
        elif status != "non_periodic":
            reasons.append(unknown)

        movers = list(group_of(Q).elements()) + list(analysis.H)
        if any(
            M_P.act_on_class(g, cp).class_id != cp.class_id for g in movers
        ):
            reasons.append(
                "branch point is not fixed by the cover's symmetries"
            )

    if any(r != unknown for r in reasons):
        return {"appropriate": False, "reasons": reasons}
    return {"appropriate": "unknown" if reasons else True, "reasons": reasons}
