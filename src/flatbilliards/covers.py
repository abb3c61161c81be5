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
element is tested on the copies only when it maps the outline's edge
sequence onto a cyclic shift of itself.

Group elements and directions are integers, read by D_N's law
(`DihedralGroup.product`) and its action on lattice directions
(`DihedralGroup.act_on_direction`).  A copy is a pair (g, t), its group
index in G_P and its exact shift, from the word that reaches it to the
verdict: it is placed as P's row g (`Polygon.row`) plus t, a word is
chained index by index, and a mirror pair is an index equality plus
one exact vertex comparison.  The cover's charts are read the same
way: the corner of base vertex v of copy c, seen from face h of the
outline's surface, lies on face h.g_c of the base surface, whose corner
table gives its class, and the outline group's elements are read in
the base group by one integer formula.  The outline's edge directions,
and the symmetry screen over them, are lattice indices.  Exact
arithmetic is left for walking P's rows, shifting copies, and the
outline's simplicity and area.  The verdict reads -Id in the outline
group off the parity of N_Q, and names it by the even angle between two
of the outline's sides that then exists (`appropriate_verdict`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import planar
from .periodicity import classify_point
from .polygons import (
    Edge,
    Polygon,
    PolygonError,
    edge_directions,
    side_reflections,
)
from .unfolding import TranslationSurface, unfold


class CoverError(ValueError):
    """Invalid tiling or inconsistent covering data."""


# ---------------------------------------------------------------------------
# placing copies by reflection words


def copies_from_words(P: Polygon, words) -> list[tuple]:
    """The copy (g, t) of P that each word of side indices reaches.

    Starting from the identity copy (0, 0), each index s reflects the
    current copy across its own side s.  Side indices run from 0 to
    k - 1.  Reflected across its side s, the copy (g, t) becomes g' =
    g.r_s, r_s the reflection across side s of P, read by D_N's law,
    and it keeps its vertex s in place: t' = t + g.v_s - g'.v_s, read
    from P's rows.
    """
    G = P.group()
    r = side_reflections(P, G)
    k = len(r)
    out = []
    for word in words:
        g, t = 0, planar.ORIGIN
        for s in word:
            s = int(s)
            if not 0 <= s < k:
                raise CoverError(f"side index {s} out of range for {k} sides")
            g2 = G.product(g, r[s])
            t = planar.vadd(t, planar.vsub(P.row(g)[s], P.row(g2)[s]))
            g = g2
        out.append((g, t))
    return out


# ---------------------------------------------------------------------------
# tilings


@dataclass(frozen=True)
class Tiling:
    """A verified tiling of the outline polygon by copies of the base."""

    base: Polygon
    indices: tuple  # per copy, its group index in G_P
    copy_vertices: tuple  # per copy, placed vertices in base order
    outline: Polygon  # Q, with vertex 0 at the origin of its own chart
    outline_points: tuple  # plane coordinates of Q's vertices
    chain: tuple  # (copy, copy it was reached from, shared side)

    @property
    def n_copies(self) -> int:
        return len(self.indices)


def verify_tiling(P: Polygon, copies) -> Tiling:
    """Check the tiling invariants exactly and extract the outline.

    `copies` is an iterable of pairs (g, t): a group index of G_P and
    an exact shift, as `copies_from_words` gives them.

    Raises CoverError on a group index outside 0..2N-1, coinciding
    copies, a side with more than two owners, non-mirror adjacency, a
    disconnected union, or an outline that is pinched, has a hole, or is
    not a simple counterclockwise polygon (a pinch may also come from
    overlapping copies).

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
    copies = tuple(copies)
    if not copies:
        raise CoverError("a tiling needs at least one copy")
    G_P = P.group()
    indices = tuple(g for g, _ in copies)
    for g in indices:
        if not 0 <= g < 2 * G_P.N:
            raise CoverError(
                f"group index {g} is outside 0..{2 * G_P.N - 1}, the base "
                f"polygon's reflection group D_{G_P.N}"
            )
    copy_vertices = [tuple(planar.vadd(p, t) for p in P.row(g))
                     for g, t in copies]
    k = len(P.edges)

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
            (ci, si), (cj, _) = owners
            if ci == cj:
                raise CoverError("a copy shares a side with itself")
            internal_pairs.append((ci, si, cj))
        else:
            external.append(owners[0])

    # mirror adjacency across every internal side: the mirror image of
    # copy ci across its side si has group index g_ci.r_si and keeps
    # vertex si in place, and a copy is fixed by its group index and
    # the image of one point
    r = side_reflections(P, G_P)
    for ci, si, cj in internal_pairs:
        if indices[cj] != G_P.product(indices[ci], r[si]) or not planar.veq(
            copy_vertices[ci][si], copy_vertices[cj][si]
        ):
            raise CoverError(
                "adjacent copies are not mirror images across their "
                "shared side"
            )

    # connectivity through shared sides: a breadth-first chain from
    # copy 0 (the loop reads the entries it appends)
    adjacency = {c: [] for c in range(len(copies))}
    for ci, si, cj in internal_pairs:
        adjacency[ci].append((cj, si))
        adjacency[cj].append((ci, si))
    chain, reached = [(0, None, None)], {0}
    for c, _, _ in chain:
        for nxt, si in adjacency[c]:
            if nxt not in reached:
                reached.add(nxt)
                chain.append((nxt, c, si))
    if len(chain) != len(copies):
        raise CoverError("union of copies is disconnected")

    # chain the external sides counterclockwise into the outline; a
    # side's direction is its lattice index in G_P, moved by the copy's
    # group index, and a reflected copy runs its side backwards
    N = G_P.N
    edge_dirs = edge_directions(P, G_P)
    directed = {}
    for c, s in external:
        verts = copy_vertices[c]
        a, b = verts[s], verts[(s + 1) % k]
        d = edge_dirs[s]
        if indices[c] >= N:
            a, b = b, a
            d += N
        d = G_P.act_on_direction(indices[c], d)
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
    table = G_P.directions()
    edges = []
    points = []
    i = 0
    while i < len(cycle):
        a, _, d, length = cycle[i]
        j = i + 1
        while j < len(cycle) and cycle[j][2] == d:
            length = length + cycle[j][3]
            j += 1
        edges.append(Edge(table[d], length))
        points.append(a)
        i = j
    try:
        outline = Polygon(edges)
    except PolygonError as exc:
        raise CoverError(
            f"copies overlap or cross: outline is not a simple polygon: {exc}"
        ) from exc
    want = P.area_twice() * len(copies)
    if not (outline.area_twice() - want).is_zero:
        raise CoverError(
            "copies overlap or cross: outline area does not match the "
            "copy count"
        )

    return Tiling(
        base=P,
        indices=indices,
        copy_vertices=tuple(copy_vertices),
        outline=outline,
        outline_points=tuple(points),
        chain=tuple(chain),
    )


def tile_by_words(P: Polygon, words) -> Tiling:
    """Convenience: place copies by reflection words and verify."""
    # both are called through the module attributes, which is where
    # perfbench/tracing.py wraps what it times (verify_tiling)
    return verify_tiling(P, copies_from_words(P, words))


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
    H: list  # indices in G_P preserving the tiling up to translation
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


def _image_class(M_P: TranslationSurface, h: int, g: int, v: int) -> int:
    """The class id of the corner of base vertex v on face h.g of M_P:
    where a chart turned by group element h sees vertex v of the copy
    with group index g."""
    fi = M_P.group.product(h, g)
    return M_P.class_of_corner((fi, M_P.faces[fi].vertex_position(v))).class_id


def _subgroup_indices(G_Q, G_P) -> list[int]:
    """The index in G_P of each element of its subgroup G_Q, by one
    integer formula: with m = N_P / N_Q, rot_i is rot_(i m), and ref_i,
    across the axis base_Q + i/N_Q = base_P + (off + i m)/N_P, is
    ref_((off + i m) mod N_P), where off is base_Q's lattice index in
    G_P, which exists for a subgroup."""
    N_P = G_P.N
    m = N_P // G_Q.N
    off = G_P.direction_index(G_Q.base_axis)
    rotations = [i * m for i in range(G_Q.N)]
    return rotations + [N_P + (off + x) % N_P for x in rotations]


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
    """Indices of the base group's elements that carry the tiling to a
    translate of itself.

    gT = T + tau forces gQ = Q + tau for the outline Q, so g must first
    map Q's edge sequence (direction, length key) onto a cyclic shift
    of itself; a reflection reverses the sequence and turns each edge
    around.  The screen reads each direction as its lattice index in
    the base group and moves it by D_N's integer action.  Only a g that
    passes it is tested on the copies, and the identity needs no test.
    The key ignores translation, so gT is re-chained from P's rows:
    copy 0 goes to row g.g_0, and each later copy of `chain` to the
    mirror of the copy it was reached from, as a word is chained.
    """
    P = t.base
    G = P.group()
    N = G.N
    seq = list(zip(edge_directions(t.outline, G),
                   (e.length.key() for e in t.outline.edges)))
    shifts = {tuple(seq[i:] + seq[:i]) for i in range(len(seq))}
    base_key = None
    out = []
    for gi in range(2 * N):
        img = [(G.act_on_direction(gi, d), key) for d, key in seq]
        if gi >= N:
            img = [((d + N) % (2 * N), key) for d, key in reversed(img)]
        if tuple(img) not in shifts:
            continue
        if gi:
            if base_key is None:
                base_key = _config_key(t.copy_vertices)
            moved = [P.row(G.product(gi, h)) for h in t.indices]
            for c, prev, s in t.chain[1:]:
                d = planar.vsub(moved[prev][s], moved[c][s])
                moved[c] = tuple(planar.vadd(p, d) for p in moved[c])
            if _config_key(moved) != base_key:
                continue
        out.append(gi)
    return out


def analyze_cover(t: Tiling) -> CoverAnalysis:
    """Covering data of the cover of unfolded surfaces induced by a
    tiling, with every count cross-checked exactly."""
    P, Q = t.base, t.outline
    G_P = P.group()
    try:
        G_Q = Q.group()
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

    # face fi of M_Q, with group element h, sees copy c on face h.g_c
    h_index = _subgroup_indices(M_Q.group, M_P.group)

    def image_class_id(fi, c, v):
        return _image_class(M_P, h_index[fi], t.indices[c], v)

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
        # each case gives the groups of M_Q's faces that share one
        # preimage of the point, and that preimage's ramification e
        if sigma == 2:
            # interior point of Q: one unbranched preimage per face
            where, e = "interior", 1
            groups = [[face.index] for face in M_Q.faces]
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
            where, e = "edge", 1
            groups = list(dict.fromkeys(
                frozenset((face.index, M_Q.pairing[
                    (face.index, face.side_position_of_source(eq))][0]))
                for face in M_Q.faces
            ))
        else:
            qi = outline_index.get(key)
            if qi is None:
                raise CoverError(
                    "corner angle sum is neither a vertex of the outline "
                    "nor a flat completion"
                )
            where, e = "vertex", kk // math.gcd(kk, angles[v].denominator)
            groups = [[fi for fi, _ in cls.corners]
                      for cls in M_Q.classes_for_source_vertex(qi)]
        # every face of a group sees every corner at the point in one
        # class of M_P, the image of that preimage
        for group in groups:
            images = {image_class_id(fi, c, v)
                      for fi in group for c, _ in rec["corners"]}
            if len(images) != 1:
                raise CoverError(f"cover chart mismatch ({where})")
            data = per_class[images.pop()]
            data["k"].append(kk)
            data["e"].append(e)
            data["sum"] += e

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

    # -Id lies in the outline group D_(N_Q) exactly when N_Q is even,
    # and then two sides of Q meet at an even angle: N_Q is the lcm of
    # the denominators of Q's angles, so one angle has an even
    # denominator, and an angle is the difference of its vertex's two
    # side directions mod 1.  With N_Q odd, every difference of side
    # directions lies in (1/N_Q)Z and has an odd denominator.
    if analysis.N_Q % 2 == 0:
        reasons.append(
            "rotation by pi in outline group (external_even_angle_pair)")

    if len(branched) == 1:
        bp = branched[0]
        M_P = analysis.base_surface
        cp = M_P.cone_points()[bp.class_id]
        if verdicts is None:
            status = classify_point(M_P, cp).status
        else:
            status = verdicts[bp.class_id]
        if status == "periodic":
            reasons.append("branch point is periodic")
        elif status != "non_periodic":
            reasons.append(unknown)

        # the outline group and the tiling symmetries, as indices in G_P
        G_P = M_P.group
        movers = (_subgroup_indices(analysis.cover_surface.group, G_P)
                  + analysis.H)
        if any(
            M_P.act_on_class(g, cp).class_id != cp.class_id for g in movers
        ):
            reasons.append(
                "branch point is not fixed by the cover's symmetries"
            )

    if any(r != unknown for r in reasons):
        return {"appropriate": False, "reasons": reasons}
    return {"appropriate": "unknown" if reasons else True, "reasons": reasons}
