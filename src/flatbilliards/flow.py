"""Exact straight-line flow on an unfolded surface.

Separatrices are traced face by face with exact predicates; hitting a
vertex is detected exactly.  When every separatrix in a direction
closes up, the surface is cut along them and the complementary pieces
are glued into cylinders with exact heights and circumferences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import planar
from .cyclotomic import ZERO, CyclotomicReal, cos_pi, embed, is_rational, sin_pi
from .planar import (
    cross,
    dot,
    vadd,
    vkey,
    vneg,
    vscale,
    vsub,
)
from .polygons import RationalAngle, _angle_value
from .unfolding import ConePoint, SurfaceError, TranslationSurface


class FlowError(ValueError):
    """Domain error in flow analysis."""


class OnSeparatrix(FlowError):
    """The queried point lies on a cylinder boundary."""


class NotShownPeriodic(Exception):
    """Separatrices did not close up within the length bound.

    The direction may well be minimal; this tool never certifies that.
    """

    def __init__(self, theta, detail: str):
        super().__init__(f"direction {theta} not shown periodic: {detail}")
        self.theta = theta
        self.detail = detail


_SEGMENT_CAP = 20000


def _side_length(M, fi: int, p: int):
    # faces are isometric copies of P, so a slide along a whole side
    # spends exactly the source edge length
    s = M.faces[fi].sides[p].source
    return M.polygon.edges[s].length


@dataclass
class _Chord:
    """A maximal straight sub-segment of a separatrix inside one face."""

    face: int
    a: tuple
    b: tuple
    a_key: tuple = field(init=False)
    b_key: tuple = field(init=False)

    def __post_init__(self):
        self.a_key = vkey(self.a)
        self.b_key = vkey(self.b)


@dataclass(frozen=True)
class SurfacePoint:
    face: int
    coords: tuple


@dataclass
class _Piece:
    """A sub-polygon of one face after cutting along chords.

    nodes[i] is a boundary point (key, coords); tags[i] labels the
    boundary segment from nodes[i] to nodes[i+1]: ('side', p) for a
    sub-segment of face side p, or ('chord', chord_id).
    """

    face: int
    nodes: list
    tags: list

    def points(self):
        return [pt for _, pt in self.nodes]

    def area_twice(self):
        return planar.polygon_area_twice(self.points())


@dataclass
class Cylinder:
    height: CyclotomicReal
    circumference: CyclotomicReal
    area_twice: CyclotomicReal
    y_min: CyclotomicReal
    y_max: CyclotomicReal
    pieces: list  # of (piece, offset vec)


@dataclass
class Decomposition:
    surface: TranslationSurface
    theta: Fraction
    u: tuple
    cylinders: list
    chords: dict  # face -> list of _Chord
    cut_sides: set  # of (face, pos)

    def cylinder_count(self) -> int:
        return len(self.cylinders)


def _direction_vector(theta) -> tuple:
    t = _angle_value(theta)
    return (cos_pi(t), sin_pi(t))


# ---------------------------------------------------------------------------
# tracing


def _corner_mode(M: TranslationSurface, corner, u):
    """How direction u leaves this corner: 'ray', 'edge', or None.

    'edge' means u points exactly along the outgoing side; directions
    along the incoming side belong to a different corner of the same
    vertex class.
    """
    fi, p = corner
    face = M.faces[fi]
    a = face.sides[p].vector()
    b = vneg(face.sides[(p - 1) % M.k].vector())
    ca = cross(a, u).sign()
    if ca == 0:
        if dot(a, u).sign() > 0:
            return "edge"
    cb = cross(u, b).sign()
    if cb == 0 and dot(b, u).sign() > 0:
        return None
    ang = M.polygon.angles()[face.source_vertex[p]].multiple
    if ang < 1:
        return "ray" if (ca > 0 and cb > 0) else None
    return "ray" if not (ca <= 0 and cb <= 0) else None


def _ray_exit(M: TranslationSurface, fi: int, x, u):
    """First boundary hit of the ray x + t*u, t > 0, inside face fi."""
    face = M.faces[fi]
    best = None
    for p, side in enumerate(face.sides):
        d = side.vector()
        denom = cross(u, d)
        if denom.is_zero:
            continue
        inv = denom.inverse()
        w = vsub(side.start, x)
        t = cross(w, d) * inv
        if t.sign() <= 0:
            continue
        s = cross(w, u) * inv
        ss = s.sign()
        if ss < 0 or (s - 1).sign() > 0:
            continue
        if best is not None and (t - best[0]).sign() >= 0:
            continue
        best = (t, p, ss, (s - 1).sign())
    if best is None:
        raise SurfaceError("ray did not exit the face")  # pragma: no cover
    t, p, s_sign, s1_sign = best
    pt = vadd(x, vscale(u, t))
    if s_sign == 0:
        return t, ("vertex", (fi, p)), pt
    if s1_sign == 0:
        return t, ("vertex", (fi, (p + 1) % M.k)), pt
    return t, ("cross", p), pt


class _Tracer:
    def __init__(self, M: TranslationSurface, theta, u, stop_ids, bound2):
        self.M = M
        self.theta = theta
        self.u = u
        self.stop_ids = stop_ids
        self.bound2 = bound2
        self.length = ZERO
        self.segments = 0

    def _spend(self, t):
        self.length = self.length + t
        self.segments += 1
        if self.segments > _SEGMENT_CAP:
            raise NotShownPeriodic(self.theta, "segment cap exceeded")
        if (self.length * self.length - self.bound2).sign() > 0:
            raise NotShownPeriodic(self.theta, "length bound exceeded")

    def trace(self, start_corner):
        """Follow the separatrix leaving start_corner in direction u.

        Returns (chords, edge_segments, end_class_id).
        """
        M = self.M
        chords = []
        edges = []
        corner = start_corner
        first = True
        while True:
            cls = M.class_of_corner(corner)
            if not first and cls.class_id in self.stop_ids:
                return chords, edges, cls.class_id
            owners = [
                (c, _corner_mode(M, c, self.u))
                for c in sorted(cls.corners)
            ]
            owners = [(c, m) for c, m in owners if m is not None]
            if first:
                # the caller chose a specific corner; it must own u
                owners = [(c, m) for c, m in owners if c == corner]
                if not owners:
                    raise FlowError(
                        "direction does not leave the given corner"
                    )
            if len(owners) != 1 and not first:
                # multiplicity-k classes own a direction k times, but a
                # pass-through happens at regular classes where the
                # owner is unique
                raise SurfaceError(
                    f"expected a unique continuation, got {len(owners)}"
                )
            (corner, mode) = owners[0]
            first = False
            fi, p = corner
            if mode == "edge":
                self._spend(_side_length(M, fi, p))
                edges.append((fi, p))
                corner = (fi, (p + 1) % M.k)
                continue
            # interior ray from the corner
            x = M.faces[fi].vertices[p]
            while True:
                t, hit, pt = _ray_exit(M, fi, x, self.u)
                self._spend(t)
                chords.append(_Chord(fi, x, pt))
                if hit[0] == "vertex":
                    corner = hit[1]
                    break
                q = hit[1]
                fj, _ = M.pairing[(fi, q)]
                x = vadd(pt, M.translations[(fi, q)])
                fi = fj


# ---------------------------------------------------------------------------
# decomposition


def cylinder_decomposition(
    M: TranslationSurface, theta, length_bound=None
) -> Decomposition:
    """Cut M along all separatrices in direction theta (a rational
    multiple of pi) and glue the pieces into cylinders.

    Raises NotShownPeriodic when a separatrix fails to close within the
    length bound (default 40 * diameter of P).
    """
    t_ang = _angle_value(theta)
    u = _direction_vector(t_ang)
    if length_bound is None:
        bound2 = M.polygon.diameter_squared() * 1600
    else:
        if not isinstance(length_bound, CyclotomicReal):
            length_bound = embed(length_bound)
        bound2 = length_bound * length_bound
    sources = M.singular_points()
    if not sources:
        sources = M.cone_points()
    stop_ids = {c.class_id for c in sources}

    chords_by_face: dict[int, list] = {fi: [] for fi in range(len(M.faces))}
    cut_sides: set = set()
    tracer = _Tracer(M, t_ang, u, stop_ids, bound2)
    for cls in sources:
        for corner in sorted(cls.corners):
            mode = _corner_mode(M, corner, u)
            if mode is None:
                continue
            chords, edges, _end = tracer.trace(corner)
            for ch in chords:
                chords_by_face[ch.face].append(ch)
            for fi, p in edges:
                cut_sides.add((fi, p))
                cut_sides.add(M.pairing[(fi, p)])

    pieces = []
    for fi in range(len(M.faces)):
        pieces.extend(_slice_face(M, fi, chords_by_face[fi]))

    cylinders = _glue_pieces(M, u, pieces, cut_sides)

    dec = Decomposition(
        surface=M,
        theta=t_ang,
        u=u,
        cylinders=cylinders,
        chords=chords_by_face,
        cut_sides=cut_sides,
    )
    total = ZERO
    for c in cylinders:
        total = total + c.area_twice
    if not (total - M.area_twice()).is_zero:
        raise SurfaceError("cylinder areas do not sum to the surface area")
    return dec


def _slice_face(M: TranslationSurface, fi: int, chords: list) -> list:
    face = M.faces[fi]
    k = M.k
    # interior points per side
    interior: dict[int, dict] = {p: {} for p in range(k)}
    vertex_keys = {vkey(face.vertices[p]): p for p in range(k)}

    def classify_endpoint(pt, key):
        if key in vertex_keys:
            return
        for p, side in enumerate(face.sides):
            if planar.on_segment(pt, side.start, side.end):
                interior[p][key] = pt
                return
        raise SurfaceError("chord endpoint not on the boundary")

    for ch in chords:
        classify_endpoint(ch.a, ch.a_key)
        classify_endpoint(ch.b, ch.b_key)

    ring_nodes = []
    ring_tags = []
    for p in range(k):
        start = face.vertices[p]
        ring_nodes.append((vkey(start), start))
        ring_tags.append(("side", p))
        pts = list(interior[p].items())
        if pts:
            d = face.sides[p].vector()
            pts.sort(key=lambda kv: planar._sort_key(
                dot(vsub(kv[1], start), d)))
            for key, pt in pts:
                ring_nodes.append((key, pt))
                ring_tags.append(("side", p))

    chord_specs = [
        (ch.a_key, ch.b_key, idx) for idx, ch in enumerate(chords)
    ]
    piece0 = _Piece(face=fi, nodes=ring_nodes, tags=ring_tags)
    return _split_piece(piece0, chord_specs)


def _split_piece(piece: _Piece, chords: list) -> list:
    if not chords:
        return [piece]
    ka, kb, cid = chords[0]
    rest = chords[1:]
    keys = [key for key, _ in piece.nodes]
    ia = keys.index(ka)
    ib = keys.index(kb)
    n = len(piece.nodes)

    def build(i_from, i_to):
        nodes = []
        tags = []
        i = i_from
        while True:
            nodes.append(piece.nodes[i])
            if i == i_to:
                tags.append(("chord", cid))
                break
            tags.append(piece.tags[i])
            i = (i + 1) % n
        return _Piece(face=piece.face, nodes=nodes, tags=tags)

    piece1 = build(ia, ib)
    piece2 = build(ib, ia)
    set1 = {key for key, _ in piece1.nodes}
    set2 = {key for key, _ in piece2.nodes}
    assign1, assign2 = [], []
    for d in rest:
        in1 = d[0] in set1 and d[1] in set1
        in2 = d[0] in set2 and d[1] in set2
        if in1 and not in2:
            assign1.append(d)
        elif in2 and not in1:
            assign2.append(d)
        elif in1 and in2:
            # both endpoints on the splitting chord's node set; decide
            # by a strictly interior point of the chord
            pa = _node_point(piece, d[0])
            pb = _node_point(piece, d[1])
            mid = vscale(vadd(pa, pb), Fraction(1, 2))
            if planar.point_in_polygon(mid, piece1.points()):
                assign1.append(d)
            else:
                assign2.append(d)
        else:
            raise SurfaceError("chord endpoints lost while splitting")
    return _split_piece(piece1, assign1) + _split_piece(piece2, assign2)


def _node_point(piece: _Piece, key):
    for k2, pt in piece.nodes:
        if k2 == key:
            return pt
    raise SurfaceError("missing node")  # pragma: no cover


def _glue_pieces(M: TranslationSurface, u, pieces: list, cut_sides: set):
    # index sub-segments of non-cut sides
    seg_index = {}
    for pi, piece in enumerate(pieces):
        n = len(piece.nodes)
        for i in range(n):
            tag = piece.tags[i]
            if tag[0] != "side":
                continue
            side_id = (piece.face, tag[1])
            if side_id in cut_sides:
                continue
            a_key = piece.nodes[i][0]
            b_key = piece.nodes[(i + 1) % n][0]
            locator = (side_id, frozenset((a_key, b_key)))
            # partner locator: translate both endpoints
            tau = M.translations[side_id]
            partner_side = M.pairing[side_id]
            pa = vkey(vadd(piece.nodes[i][1], tau))
            pb = vkey(vadd(piece.nodes[(i + 1) % n][1], tau))
            partner_loc = (partner_side, frozenset((pa, pb)))
            seg_index.setdefault(locator, []).append((pi, tau, partner_loc))
    # match
    edges = []
    for locator, items in seg_index.items():
        if len(items) != 1:
            raise SurfaceError("sub-segment matched more than one piece")
        pi, tau, partner_loc = items[0]
        partner_items = seg_index.get(partner_loc)
        if partner_items is None:
            raise SurfaceError("unmatched boundary sub-segment")
        pj = partner_items[0][0]
        edges.append((pi, pj, tau))
    # BFS components with offsets
    offsets = {}
    comp = {}
    adj: dict[int, list] = {i: [] for i in range(len(pieces))}
    for pi, pj, tau in edges:
        adj[pi].append((pj, tau))
    n_comp = 0
    for start in range(len(pieces)):
        if start in comp:
            continue
        comp[start] = n_comp
        offsets[start] = (ZERO, ZERO)
        queue = [start]
        while queue:
            cur = queue.pop()
            for nxt, tau in adj[cur]:
                off = vsub(offsets[cur], tau)
                if nxt in comp:
                    # going around the core curve shifts the developing
                    # map along u (the holonomy); only the transverse
                    # height coordinate must be single-valued
                    if not cross(u, vsub(offsets[nxt], off)).is_zero:
                        raise SurfaceError(
                            "inconsistent cylinder developing map"
                        )
                    continue
                comp[nxt] = comp[cur]
                offsets[nxt] = off
                queue.append(nxt)
        n_comp += 1

    cylinders = []
    for ci in range(n_comp):
        members = [i for i in range(len(pieces)) if comp[i] == ci]
        area2 = ZERO
        boundary_vals = []
        for i in members:
            piece = pieces[i]
            area2 = area2 + piece.area_twice()
            off = offsets[i]
            n = len(piece.nodes)
            for j in range(n):
                tag = piece.tags[j]
                is_boundary = tag[0] == "chord" or (
                    tag[0] == "side" and (piece.face, tag[1]) in cut_sides
                )
                if not is_boundary:
                    continue
                pa = vadd(piece.nodes[j][1], off)
                pb = vadd(piece.nodes[(j + 1) % n][1], off)
                ya = cross(u, pa)
                yb = cross(u, pb)
                if not (ya - yb).is_zero:
                    raise SurfaceError("cylinder boundary not parallel")
                boundary_vals.append(ya)
        if not boundary_vals:
            raise SurfaceError("component without boundary")
        y_min = boundary_vals[0]
        y_max = boundary_vals[0]
        for y in boundary_vals[1:]:
            if (y - y_min).sign() < 0:
                y_min = y
            if (y - y_max).sign() > 0:
                y_max = y
        for y in boundary_vals:
            if not (y - y_min).is_zero and not (y - y_max).is_zero:
                raise SurfaceError(
                    "boundary chord strictly inside a cylinder"
                )
        h = y_max - y_min
        if h.sign() <= 0:
            raise SurfaceError("cylinder height must be positive")
        circumference = area2 / (2 * h)
        cyl = Cylinder(
            height=h,
            circumference=circumference,
            area_twice=area2,
            y_min=y_min,
            y_max=y_max,
            pieces=[(pieces[i], offsets[i]) for i in members],
        )
        cylinders.append(cyl)
    return cylinders


# ---------------------------------------------------------------------------
# height splits


def _locate_class(dec: Decomposition, cp: ConePoint):
    """The cylinder containing a marked vertex class and its height level."""
    M = dec.surface
    # reject points on separatrices
    class_keys = {}
    for fi, p in cp.corners:
        class_keys[fi] = class_keys.get(fi, set())
        class_keys[fi].add(vkey(M.faces[fi].vertices[p]))
    for fi, keys in class_keys.items():
        for ch in dec.chords[fi]:
            if ch.a_key in keys or ch.b_key in keys:
                raise OnSeparatrix(
                    "marked point lies on a separatrix in this direction"
                )
    for fi, p in cp.corners:
        for q in (p, (p - 1) % M.k):
            if (fi, q) in dec.cut_sides:
                raise OnSeparatrix(
                    "marked point lies on a separatrix in this direction"
                )
    fi, p = cp.representative()
    w = M.faces[fi].vertices[p]
    w_key = vkey(w)
    for idx, cyl in enumerate(dec.cylinders):
        for piece, off in cyl.pieces:
            if piece.face != fi:
                continue
            for key, _pt in piece.nodes:
                if key == w_key:
                    y = cross(dec.u, vadd(w, off))
                    return cyl, y
    raise SurfaceError("marked point not located")  # pragma: no cover


def height_split(M: TranslationSurface, dec: Decomposition, p) -> dict:
    """Split of the cylinder height at a marked point of decomposition dec.

    p is a regular vertex class (ConePoint) or an interior SurfacePoint.
    Returns h1 (distance to the lower boundary), h, their exact ratio,
    and whether the ratio is rational.
    """
    if isinstance(p, ConePoint):
        if p.is_singular:
            raise FlowError("height split is undefined at a singular point")
        cyl, y = _locate_class(dec, p)
    else:
        cyl, y = _locate_interior(dec, p)
    h1 = y - cyl.y_min
    h = cyl.height
    if h1.sign() <= 0 or (h - h1).sign() <= 0:
        raise OnSeparatrix("point sits on a cylinder boundary")
    ratio = h1 / h
    q = is_rational(ratio)
    return {
        "h1": h1,
        "h": h,
        "ratio": ratio,
        "rational": q is not None,
        "ratio_rational_value": q,
        "cylinder": cyl,
    }


def _locate_interior(dec: Decomposition, sp: SurfacePoint):
    for cyl in dec.cylinders:
        for piece, off in cyl.pieces:
            if piece.face != sp.face:
                continue
            if planar.point_in_polygon(sp.coords, piece.points()):
                y = cross(dec.u, vadd(sp.coords, off))
                return cyl, y
    raise OnSeparatrix(
        "point is on a piece boundary or outside its face"
    )
