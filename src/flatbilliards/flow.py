"""Exact straight-line flow on an unfolded surface.

A decomposition in direction theta works in one chart: each face is
walked along its sides over (cos, sin)(pi (d_m - theta)), its lattice
directions turned by -theta, so the flow runs along +x and a point's
height is its y.  Separatrices are traced face by face; a ray leaves a
face where a side's ends straddle its y, at x offset by the cotangent
c/s of the side's pair (none for s = 0, a side parallel to the flow),
inverted once per decomposition.  Which corners a direction leaves
from (`_corner_modes`) is read from rational angles alone.  When every
separatrix closes up, the faces are cut along them and the pieces
glued into cylinders with exact heights and circumferences.  A
circumference is read off the cylinder's horizontal bottom boundary,
with no product or inverse, and the cylinders' areas 2*h*c must sum to
the surface's, which tests every height and circumference.

A chart has one conductor n, the lcm of the conductors of theta's cos
and sin and of the walk's inputs, P's side lengths and the pairs.  Its
vertices, gluing translations and cotangents are stored at n, and
sums, products and inverses of values at n stay at n.  At one
conductor a value's stored form (coefficients reduced mod Phi_n over a
positive denominator prime to them) is unique, so the chart keys a
point by its raw coefficients (`_key`), with no canonical descent.
Gluing matches keys, with no translated point: a side point's partner
key comes from the side pairing at a vertex and from the tracer at a
crossing; heights are compared by stored form.  A chart whose
conductor has degree above MAX_CHART_DEGREE is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import planar
from .cyclotomic import (ZERO, CyclotomicReal, cos_pi, embed, is_rational,
                         sin_pi, totient)
from .planar import vadd, vscale, vsub
from .polygons import _angle_value, walk
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

# the largest phi(n) for the chart's conductor n (see `_check_degree`).
# Products cost about phi(n)**2 and inverses phi(n)**3: `cylinders
# --family 2 --n 5 --length-bound 3` takes 2.2 s at direction 1/31 (phi
# 240) and 28 s at 1/97 (phi 768)
MAX_CHART_DEGREE = 256


def _key(v, n: int) -> tuple:
    """The key of a chart point: its coordinates' coefficients at the
    chart conductor n, where the stored form is unique.  A coordinate
    stored below n is lifted; `lift` refuses one stored above.  This is
    not a `CyclotomicReal.key` call, so a traced run's
    `cyclotomic.key_calls` does not count it."""
    x, y = v[0].lift(n), v[1].lift(n)
    return (x.num, x.den, y.num, y.den)


@dataclass
class _Chord:
    """A maximal horizontal sub-segment of a separatrix inside one face,
    with the face side each end lies inside (None at a vertex) and each
    end's key at the chart conductor."""

    face: int
    a: tuple
    b: tuple
    a_side: int | None
    b_side: int | None
    a_key: tuple
    b_key: tuple


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


@dataclass
class Cylinder:
    """A cylinder between heights y_min and y_max of the chart.  Its
    circumference is the sum of x_b - x_a over its boundary segments at
    y_min, which run in +x because every piece is counterclockwise, and
    area_twice is 2 * height * circumference."""

    height: CyclotomicReal
    circumference: CyclotomicReal
    area_twice: CyclotomicReal
    y_min: CyclotomicReal
    y_max: CyclotomicReal
    pieces: list  # of (piece, height offset)


@dataclass
class Decomposition:
    theta: Fraction  # mod 2
    n: int  # the chart conductor: every chart value is stored at n
    verts: list  # face -> chart vertices
    cylinders: list
    chords: dict  # face -> list of _Chord, in chart coordinates
    cut_sides: set  # of (face, pos)

    def cylinder_count(self) -> int:
        return len(self.cylinders)


def _turned(M: TranslationSurface, theta: Fraction) -> list:
    """(cos, sin)(pi (d_m - theta)) for the lattice directions m < N."""
    return [(cos_pi(d - theta), sin_pi(d - theta))
            for d in M.group.directions()[:M.N]]


def _check_degree(M: TranslationSurface, theta: Fraction) -> int:
    """The chart conductor n for direction theta (see the module
    docstring), read from the angles: `cos_pi(q)` is stored at
    conductor 2 den(q) and `sin_pi(q)` is cos_pi(1/2 - q), so no trig
    value is built.  FlowError when phi(n) is above MAX_CHART_DEGREE."""
    angles = [theta] + [d - theta for d in M.group.directions()[:M.N]]
    n = math.lcm(*(e.length.n for e in M.polygon.edges),
                 *(2 * q.denominator
                   for a in angles for q in (a, Fraction(1, 2) - a)))
    # phi(n) >= sqrt(n / 2): a larger n is refused before it is factored
    if n > 2 * MAX_CHART_DEGREE ** 2:
        raise FlowError(f"direction {theta}: chart conductor {n} of degree "
                        f"above MAX_CHART_DEGREE ({MAX_CHART_DEGREE})")
    phi = totient(n)
    if phi > MAX_CHART_DEGREE:
        raise FlowError(f"direction {theta}: chart conductor {n} of degree "
                        f"{phi} > MAX_CHART_DEGREE ({MAX_CHART_DEGREE})")
    return n


# ---------------------------------------------------------------------------
# tracing


def _corner_modes(M: TranslationSurface, theta: Fraction) -> dict:
    """How direction theta leaves each corner: 'ray', 'edge', or None.

    x = (theta - direction of the outgoing side) mod 2 is the angle
    from the outgoing side, counterclockwise into the face: 'edge' at
    x = 0, 'ray' while x is below the corner's angle.  Directions along
    the incoming side belong to a different corner of the same class.
    In units of pi/N a side's direction is base + m, m its lattice
    index, and every angle an integer A, so with y = (theta - base) N,
    x N lies in [i, i + 1) for the integer i = (floor(y) - m) mod 2N:
    x is 0 when y and i are, and below A exactly when i is.
    """
    N = M.N
    y = (theta - M.group.base_axis) * N
    q, whole = y.numerator // y.denominator, y.denominator == 1
    A = [int(a.multiple * N) for a in M.polygon.angles()]
    modes = {}
    for fi, face in enumerate(M.faces):
        for p, side in enumerate(face.sides):
            i = (q - side.lattice) % (2 * N)
            if whole and i == 0:
                modes[fi, p] = "edge"
            elif i < A[face.source_vertex[p]]:
                modes[fi, p] = "ray"
            else:
                modes[fi, p] = None
    return modes


class _Chart:
    """One decomposition's chart and tracing state at conductor n: the
    turned (cos, sin) table, the faces walked over it and their vertex
    keys, the gluing translations between them, the partner keys of
    side points, and the cotangents met so far.

    partner[(fi, p), key] is the key of the point's copy on the side
    paired with side p of face fi.  Side (fi, p) paired with (fj, q)
    copies one side of P anti-parallel, so vertex p goes to vertex
    q + 1 of fj and vertex p + 1 to vertex q; `trace` adds each
    crossing, where it translates the point anyway."""

    def __init__(self, M: TranslationSurface, theta, n, stop_ids, bound2):
        self.M = M
        self.theta = theta
        self.n = n
        self.turned = _turned(M, theta)
        self.modes = _corner_modes(M, theta)
        y = (theta - M.group.base_axis) * M.N
        self.turn = y.numerator // y.denominator
        half = [(c.lift(n), s.lift(n)) for c, s in self.turned]
        self.table = half + [(-c, -s) for c, s in half]
        lengths = [e.length.lift(n) for e in M.polygon.edges]
        zero = ZERO.lift(n)
        self.verts = [
            walk([(s.source, s.lattice) for s in f.sides], lengths,
                 self.table, (zero, zero))
            for f in M.faces
        ]
        self.vkeys = [[_key(v, n) for v in vs] for vs in self.verts]
        self.tau = {}  # own start -> partner end
        self.partner = {}
        k, keys = M.k, self.vkeys
        for (fi, p), (fj, q) in M.pairing.items():
            self.tau[fi, p] = vsub(self.verts[fj][(q + 1) % k],
                                   self.verts[fi][p])
            self.partner[(fi, p), keys[fi][p]] = keys[fj][(q + 1) % k]
            self.partner[(fi, p), keys[fi][(p + 1) % k]] = keys[fj][q]
        self.cot = [None] * M.N
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

    def cotangent(self, m: int):
        """cot(pi (d_m - theta)) at the chart conductor, inverted once."""
        m %= self.M.N
        cot = self.cot[m]
        if cot is None:
            c, s = self.turned[m]
            cot = self.cot[m] = (c / s).lift(self.n)
        return cot

    def runs_down(self, side) -> bool:
        """Whether a side not parallel to the flow runs down the chart,
        (side.direction - theta) mod 2 > 1.  As in `_corner_modes`,
        x = (theta - side.direction) mod 2 has floor(x N) equal to
        i = (floor((theta - base) N) - m) mod 2N, and x lies in (0, 1)
        exactly when i < N."""
        return (self.turn - side.lattice) % (2 * self.M.N) < self.M.N

    def _ray_exit(self, fi: int, x):
        """First boundary hit of the ray x + (t, 0), t > 0, in face fi.

        A side at direction delta from the flow (mod 1) meets the line
        through x at t = (a_x - x_x) + (x_y - a_y)*cot(pi*delta), a its
        start; sides parallel to the flow are skipped.
        """
        verts = self.verts[fi]
        k = len(verts)
        ys = [(v[1] - x[1]).sign() for v in verts]
        best = None
        for p, side in enumerate(self.M.faces[fi].sides):
            m = side.lattice
            if self.table[m][1].is_zero or ys[p] * ys[(p + 1) % k] > 0:
                continue
            a = verts[p]
            t = a[0] - x[0] + (x[1] - a[1]) * self.cotangent(m)
            if t.sign() <= 0:
                continue
            if best is None or (t - best[0]).sign() < 0:
                best = (t, p)
        if best is None:
            raise SurfaceError("ray did not exit the face")  # pragma: no cover
        t, p = best
        pt = (x[0] + t, x[1])
        if ys[p] == 0:
            return t, ("vertex", (fi, p)), pt
        if ys[(p + 1) % k] == 0:
            return t, ("vertex", (fi, (p + 1) % k)), pt
        return t, ("cross", p), pt

    def trace(self, start_corner):
        """Follow the separatrix leaving start_corner in the flow direction.

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
            owners = [(c, self.modes[c]) for c in sorted(cls.corners)]
            owners = [(c, m) for c, m in owners if m is not None]
            if first:
                # the caller chose a specific corner; it must own theta
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
                # faces are isometric copies of P: a slide along a whole
                # side spends exactly the source edge length
                s = M.faces[fi].sides[p].source
                self._spend(M.polygon.edges[s].length)
                edges.append((fi, p))
                corner = (fi, (p + 1) % M.k)
                continue
            # interior ray from the corner
            x, x_side, x_key = self.verts[fi][p], None, self.vkeys[fi][p]
            while True:
                t, hit, pt = self._ray_exit(fi, x)
                self._spend(t)
                if hit[0] == "vertex":
                    corner = hit[1]
                    chords.append(_Chord(fi, x, pt, x_side, None, x_key,
                                         self.vkeys[corner[0]][corner[1]]))
                    break
                q = hit[1]
                pt_key = _key(pt, self.n)
                chords.append(_Chord(fi, x, pt, x_side, q, x_key, pt_key))
                x = vadd(pt, self.tau[(fi, q)])
                x_key = _key(x, self.n)
                self.partner[(fi, q), pt_key] = x_key
                fi, x_side = M.pairing[(fi, q)]
                self.partner[(fi, x_side), x_key] = pt_key


# ---------------------------------------------------------------------------
# decomposition


def cylinder_decomposition(
    M: TranslationSurface, theta, length_bound=None
) -> Decomposition:
    """Cut M along all separatrices in direction theta (a rational
    multiple of pi, read mod 2) and glue the pieces into cylinders.

    Raises NotShownPeriodic when a separatrix fails to close within the
    length bound (default 40 * diameter of P), and FlowError when the
    chart's conductor has degree above MAX_CHART_DEGREE.
    """
    theta = _angle_value(theta) % 2
    n = _check_degree(M, theta)
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
    chart = _Chart(M, theta, n, stop_ids, bound2)
    for cls in sources:
        for corner in sorted(cls.corners):
            if chart.modes[corner] is None:
                continue
            chords, edges, _end = chart.trace(corner)
            for ch in chords:
                chords_by_face[ch.face].append(ch)
            for fi, p in edges:
                cut_sides.add((fi, p))
                cut_sides.add(M.pairing[(fi, p)])

    pieces = []
    for fi in range(len(M.faces)):
        pieces.extend(_slice_face(chart, fi, chords_by_face[fi]))

    cylinders = _glue_pieces(chart, pieces, cut_sides)

    dec = Decomposition(
        theta=theta,
        n=n,
        verts=chart.verts,
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


def _slice_face(chart: _Chart, fi: int, chords: list) -> list:
    # chord ends inside each side, keyed to drop repeats
    interior: dict[int, dict] = {p: {} for p in range(chart.M.k)}
    for ch in chords:
        for side, key, pt in ((ch.a_side, ch.a_key, ch.a),
                              (ch.b_side, ch.b_key, ch.b)):
            if side is not None:
                interior[side][key] = pt

    ring_nodes = []
    ring_tags = []
    for p, side in enumerate(chart.M.faces[fi].sides):
        ring_nodes.append((chart.vkeys[fi][p], chart.verts[fi][p]))
        ring_tags.append(("side", p))
        if not interior[p]:
            continue
        # no chord ends inside a side parallel to the flow, so the side
        # runs up or down
        for key, pt in sorted(
            interior[p].items(),
            key=lambda kv: planar._sort_key(kv[1][1]),
            reverse=chart.runs_down(side),
        ):
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


def _glue_pieces(chart: _Chart, pieces: list, cut_sides: set):
    """Glue the pieces of a cut chart into cylinders, matching keys.

    A sub-segment a -> b of a side that is not cut is glued to the
    sub-segment pb -> pa of the paired side, pa and pb the keys of its
    ends' copies in `chart.partner`: a side's ends come from the pairing
    of its vertices, a crossing from `trace`, so gluing translates no
    point.  A sub-segment without partner keys or a match, or held by
    two pieces, is a SurfaceError.  Gluing shifts heights by the y of
    the side's translation; each piece gets its offset in its component
    by a breadth-first pass, and an offset reached twice must have the
    same stored form.  Every value here is at the chart conductor, where
    equal values have equal stored forms.  A component's boundary, its
    chords and cut sides, must be horizontal (its ends' keys share their
    y parts) and lie at two heights y + offset, grouped by stored form:
    the lower is y_min, and the circumference is the sum of x_b - x_a
    over its segments.  Each height must be positive; the caller checks
    that the areas sum to the surface's.
    """
    M, partner = chart.M, chart.partner
    segments = {}  # (side, a, b) -> the pieces holding that sub-segment
    for pi, piece in enumerate(pieces):
        nodes = piece.nodes
        for i, tag in enumerate(piece.tags):
            side = (piece.face, tag[1])
            if tag[0] != "side" or side in cut_sides:
                continue
            key = (side, nodes[i][0], nodes[(i + 1) % len(nodes)][0])
            segments.setdefault(key, []).append(pi)
    adj = [[] for _ in pieces]  # (neighbour, height shift of the gluing)
    for (side, a, b), held in segments.items():
        if len(held) != 1:
            raise SurfaceError("sub-segment matched more than one piece")
        match = segments.get((M.pairing[side], partner.get((side, b)),
                              partner.get((side, a))))
        if match is None:
            raise SurfaceError("unmatched boundary sub-segment")
        adj[held[0]].append((match[0], chart.tau[side][1]))
    # BFS components with height offsets
    zero = ZERO.lift(chart.n)
    comp, offsets = [None] * len(pieces), [None] * len(pieces)
    n_comp = 0
    for start in range(len(pieces)):
        if comp[start] is not None:
            continue
        comp[start], offsets[start] = n_comp, zero
        queue = [start]
        while queue:
            cur = queue.pop()
            for nxt, dy in adj[cur]:
                off = offsets[cur] - dy
                if comp[nxt] is None:
                    comp[nxt], offsets[nxt] = n_comp, off
                    queue.append(nxt)
                elif (offsets[nxt].num, offsets[nxt].den) != (off.num,
                                                              off.den):
                    # going around the core curve shifts the developing
                    # map along the flow (the holonomy); only the height
                    # must be single-valued
                    raise SurfaceError("inconsistent cylinder developing map")
        n_comp += 1
    members = [[] for _ in range(n_comp)]
    for i, c in enumerate(comp):
        members[c].append(i)

    cylinders = []
    for group in members:
        levels = {}  # stored form of a height -> (height, [(x_a, x_b)])
        for i in group:
            piece, nodes = pieces[i], pieces[i].nodes
            for j, tag in enumerate(piece.tags):
                if tag[0] == "side" and (piece.face, tag[1]) not in cut_sides:
                    continue
                ka, (xa, y) = nodes[j]
                kb, (xb, _) = nodes[(j + 1) % len(nodes)]
                if ka[2:] != kb[2:]:
                    raise SurfaceError("cylinder boundary not parallel")
                y = y + offsets[i]
                levels.setdefault((y.num, y.den), (y, []))[1].append((xa, xb))
        if not levels:
            raise SurfaceError("component without boundary")
        if len(levels) > 2:
            raise SurfaceError("boundary chord strictly inside a cylinder")
        ordered = sorted(levels.values(),
                         key=lambda lv: planar._sort_key(lv[0]))
        (y_min, low), y_max = ordered[0], ordered[-1][0]
        circumference = zero
        for xa, xb in low:
            circumference = circumference + (xb - xa)
        h = y_max - y_min
        if h.sign() <= 0:
            raise SurfaceError("cylinder height must be positive")
        cylinders.append(Cylinder(
            height=h,
            circumference=circumference,
            area_twice=2 * h * circumference,
            y_min=y_min,
            y_max=y_max,
            pieces=[(pieces[i], offsets[i]) for i in group],
        ))
    return cylinders


# ---------------------------------------------------------------------------
# height splits


def _locate_class(M: TranslationSurface, dec: Decomposition, cp: ConePoint):
    """The cylinder containing a marked vertex class and its height level."""
    # reject points on separatrices: a chord end or a cut side
    class_keys = {}
    for fi, p in cp.corners:
        class_keys.setdefault(fi, set()).add(_key(dec.verts[fi][p], dec.n))
    on_chord = any(ch.a_key in keys or ch.b_key in keys
                   for fi, keys in class_keys.items() for ch in dec.chords[fi])
    on_cut = any((fi, q) in dec.cut_sides
                 for fi, p in cp.corners for q in (p, (p - 1) % M.k))
    if on_chord or on_cut:
        raise OnSeparatrix(
            "marked point lies on a separatrix in this direction")
    fi, p = cp.representative()
    w = dec.verts[fi][p]
    w_key = _key(w, dec.n)
    for cyl in dec.cylinders:
        for piece, off in cyl.pieces:
            if piece.face != fi:
                continue
            for key, _pt in piece.nodes:
                if key == w_key:
                    return cyl, w[1] + off
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
        cyl, y = _locate_class(M, dec, p)
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
    (px, py), c, s = sp.coords, cos_pi(dec.theta), sin_pi(dec.theta)
    x = (px * c + py * s, py * c - px * s)  # turned by -theta
    for cyl in dec.cylinders:
        for piece, off in cyl.pieces:
            if piece.face != sp.face:
                continue
            if planar.point_in_polygon(x, piece.points()):
                return cyl, x[1] + off
    raise OnSeparatrix(
        "point is on a piece boundary or outside its face"
    )
