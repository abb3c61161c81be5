"""Exact rational polygons, angle data, and the dihedral group D_N.

A polygon is a counterclockwise circular list of edge vectors given by
a rational direction (in units of pi) and an exact length.  Vertices
are prefix sums, so closure and translation invariance are native.
Reflex vertex angles are allowed; self-intersection is not.

D_N is read by integers: its elements are indices (rotations 0..N-1,
reflections N..2N-1) multiplied by `DihedralGroup.product`, and its
lattice directions base + m/N are indices m mod 2N that an element
moves by `DihedralGroup.act_on_direction`.  Exact vertices are walks
along P's sides over the group's (cos, sin) table (`walk`), and no
vector is rotated.  A polygon's own vertices are walked once, by its
closure check.  No plane motion is kept: a copy of P is its group index
and a shift (see `covers`).  An element is named as a linear map only
in the surface dump, by `DihedralGroup.map_of`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import planar
from .cyclotomic import CyclotomicReal, cos_pi, embed, sin_pi


class PolygonError(ValueError):
    """Invalid polygon or angle data."""


@dataclass(frozen=True)
class RationalAngle:
    """An angle that is a rational multiple of pi."""

    multiple: Fraction

    def __post_init__(self):
        object.__setattr__(self, "multiple", Fraction(self.multiple))

    @property
    def denominator(self) -> int:
        return self.multiple.denominator

    def cos(self) -> CyclotomicReal:
        return cos_pi(self.multiple)

    def sin(self) -> CyclotomicReal:
        return sin_pi(self.multiple)

    def normalized(self, period: int = 2) -> "RationalAngle":
        return RationalAngle(self.multiple % period)


def _angle_value(a) -> Fraction:
    if isinstance(a, RationalAngle):
        return a.multiple
    return Fraction(a)


@dataclass(frozen=True)
class Edge:
    """One polygon side: direction (units of pi, mod 2) and exact length."""

    direction: RationalAngle
    length: CyclotomicReal

    def __post_init__(self):
        d = self.direction
        if not isinstance(d, RationalAngle):
            object.__setattr__(self, "direction", RationalAngle(d))
        object.__setattr__(
            self, "direction", self.direction.normalized(2)
        )
        length = self.length
        if isinstance(length, (int, Fraction)):
            object.__setattr__(self, "length", embed(length))


class Polygon:
    """A simple counterclockwise polygon with rational angles."""

    __slots__ = ("edges", "_vertices", "_angles", "_key", "_group", "_rows")

    def __init__(self, edges):
        self.edges = tuple(
            e if isinstance(e, Edge) else Edge(*e) for e in edges
        )
        self._angles = None
        self._key = None
        self._group = None
        self._rows = {}
        self._validate()

    # -- derived geometry ----------------------------------------------------

    def vertices(self) -> tuple:
        """Vertex i is the start point of edge i; vertex 0 is the origin:
        the walk along the edges over their own (cos, sin) table, made
        once by the closure check."""
        return self._vertices

    def group(self) -> "DihedralGroup":
        """G_P, built by `group_of` on the first call and kept with P."""
        if self._group is None:
            self._group = group_of(self)
        return self._group

    def row(self, g: int) -> tuple:
        """g.v_j for each vertex j, g an index of G_P: the walk along P's
        sides turned by g, placed on the first read and kept with P."""
        if g not in self._rows:
            G = self.group()
            sides = [(j, G.act_on_direction(g, m))
                     for j, m in enumerate(edge_directions(self, G))]
            self._rows[g] = walk(sides, [e.length for e in self.edges],
                                 G.unit_vectors())
        return self._rows[g]

    def angles(self) -> tuple:
        """Interior angle at each vertex (vertex i joins edges i-1 and i)."""
        if self._angles is None:
            out = []
            k = len(self.edges)
            for i in range(k):
                d_in = self.edges[i - 1].direction.multiple
                d_out = self.edges[i].direction.multiple
                turn = (d_out - d_in + 1) % 2 - 1  # in [-1, 1)
                out.append(RationalAngle(1 - turn))
            self._angles = tuple(out)
        return self._angles

    def area_twice(self) -> CyclotomicReal:
        return planar.polygon_area_twice(list(self.vertices()))

    def diameter_squared(self) -> CyclotomicReal:
        pts = self.vertices()
        best = None
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d2 = planar.norm2(planar.vsub(pts[i], pts[j]))
                if best is None or (d2 - best).sign() > 0:
                    best = d2
        return best

    # -- validation ------------------------------------------------------------

    def _validate(self):
        if len(self.edges) < 3:
            raise PolygonError("a polygon needs at least 3 edges")
        for e in self.edges:
            if e.length.sign() <= 0:
                raise PolygonError("edge lengths must be positive")
        # closure: the walk's last vertex plus the last side is the
        # origin, so each side's two products are made once
        es = self.edges
        units = [(e.direction.cos(), e.direction.sin()) for e in es]
        self._vertices = walk([(j, j) for j in range(len(es))],
                              [e.length for e in es], units)
        (x, y), (c, sn) = self._vertices[-1], units[-1]
        if not planar.is_zero_vec((x + es[-1].length * c,
                                   y + es[-1].length * sn)):
            raise PolygonError("edges do not close up")
        # angles in (0, 2*pi), no straight vertices, total turn +2 (ccw);
        # the turn lies in [-1, 1), and -1 is an edge that turns back
        # along the one before
        turn_sum = Fraction(0)
        k = len(self.edges)
        for i in range(k):
            d_in = self.edges[i - 1].direction.multiple
            d_out = self.edges[i].direction.multiple
            turn = (d_out - d_in + 1) % 2 - 1
            if turn == 0:
                raise PolygonError("straight (pi) vertex angle not allowed")
            if turn == -1:
                raise PolygonError(
                    f"edge {i} turns back along edge {(i - 1) % k}"
                )
            turn_sum += turn
        if turn_sum != 2:
            raise PolygonError(
                "edges must be listed counterclockwise (total turn 2*pi)"
            )
        self._check_simple()

    def _check_simple(self):
        """Refuse a polygon whose edges meet other than at the shared
        vertex of two adjacent edges.

        Adjacent edges need no test: `_validate` has refused a straight
        vertex and an edge that turns back along the one before, so two
        adjacent edges are not collinear and meet only at their shared
        vertex, and a triangle needs no test at all.  A non-adjacent
        pair is decided exactly unless the float boxes of its edges are
        apart.  `float()` is correctly rounded and so monotone: a point
        the two edges share has each float coordinate inside both boxes,
        so boxes that are apart prove the edges disjoint.  A coordinate
        too large for a float gives its box an unbounded side.  Pairs are tested in the order
        (i, j), i < j, and the first that meets is named.
        """
        k = len(self.edges)
        if k == 3:
            return
        pts = self.vertices()
        bounds = [_float_bounds(x) + _float_bounds(y) for x, y in pts]
        boxes = [
            (min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]),
             max(a[3], b[3]))
            for a, b in zip(bounds, bounds[1:] + bounds[:1])
        ]
        for i in range(k):
            xlo, xhi, ylo, yhi = boxes[i]
            for j in range(i + 1, k):
                if j == i + 1 or (i == 0 and j == k - 1):
                    continue
                bxlo, bxhi, bylo, byhi = boxes[j]
                if xhi < bxlo or bxhi < xlo or yhi < bylo or byhi < ylo:
                    continue
                # through the module attribute: perfbench/tracing.py
                # wraps planar's predicates there
                info = planar.segments_overlap_info(
                    pts[i], pts[(i + 1) % k], pts[j], pts[(j + 1) % k])
                if info != "disjoint":
                    raise PolygonError(
                        f"edges {i} and {j} intersect: not simple"
                    )

    # -- canonical form ----------------------------------------------------------

    def canonical_key(self):
        """Deduplication key: rotate so an edge has direction 0, pick the
        lexicographically smallest rotation of the edge list."""
        if self._key is not None:
            return self._key
        k = len(self.edges)
        candidates = []
        for i in range(k):
            base_dir = self.edges[i].direction.multiple
            seq = []
            for j in range(k):
                e = self.edges[(i + j) % k]
                d = (e.direction.multiple - base_dir) % 2
                seq.append((d, e.length.key()))
            candidates.append(tuple(seq))
        self._key = min(candidates)
        return self._key

    def __repr__(self):
        angle_str = ",".join(str(a.multiple) for a in self.angles())
        return f"Polygon(angles=[{angle_str}])"


def _float_bounds(x: CyclotomicReal) -> tuple:
    """(float(x), float(x)), or unbounded where x is too large for a
    float."""
    try:
        f = float(x)
    except OverflowError:
        return -math.inf, math.inf
    return f, f


class DihedralGroup:
    """D_N: rotations by 2*pi*j/N and reflections across axes
    base + j/N (axis angles in units of pi).  An element is its index,
    0..2N-1: rot_j is j and ref_j is N + j.

    Its lattice directions are base + m/N mod 2, indexed by m in
    0..2N-1.  The group acts on them by integers mod 2N: rot_j sends m
    to m + 2j and ref_j sends m to 2j - m."""

    def __init__(self, N: int, base_axis: Fraction):
        self.N = N
        self.base_axis = Fraction(base_axis) % Fraction(1, N)
        self._directions = None
        self._units = None

    def direction_index(self, direction) -> int:
        """The index m of a lattice direction d (units of pi): m = (d -
        base) N, read from the numerators and denominators."""
        d, b = _angle_value(direction), self.base_axis
        num = (d.numerator * b.denominator
               - b.numerator * d.denominator) * self.N
        den = d.denominator * b.denominator
        if num % den:
            raise PolygonError(
                f"direction {direction} is not a lattice direction of "
                f"D_{self.N}"
            )
        return num // den % (2 * self.N)

    def directions(self) -> list[Fraction]:
        """The 2N lattice directions base + m/N, in [0, 2), built on
        the first call and kept with the group."""
        if self._directions is None:
            self._directions = [
                (self.base_axis + Fraction(m, self.N)) % 2
                for m in range(2 * self.N)
            ]
        return self._directions

    def unit_vectors(self) -> list:
        """(cos, sin) of pi d_m for each lattice direction, built on the
        first call and kept; d_(m+N) = d_m + 1, so the second half is the
        first negated."""
        if self._units is None:
            half = [(cos_pi(d), sin_pi(d))
                    for d in self.directions()[:self.N]]
            self._units = half + [(-c, -s) for c, s in half]
        return self._units

    def act_on_direction(self, g: int, m: int) -> int:
        """The index of element g's image of lattice direction m."""
        N = self.N
        return (m + 2 * g if g < N else 2 * (g - N) - m) % (2 * N)

    def elements(self) -> range:
        return range(2 * self.N)

    def product(self, a: int, b: int) -> int:
        """The index of a.b, read from the indices by D_N's law (mod N):
        rot_a.rot_b = rot_(a+b), rot_a.ref_b = ref_(a+b), ref_a.rot_b =
        ref_(a-b) and ref_a.ref_b = rot_(a-b)."""
        N = self.N
        return (a - b if a >= N else a + b) % N + N * ((a >= N) != (b >= N))

    def multiplication_table(self) -> list[list[int]]:
        """mult[a][b] = product(a, b): (2N)**2 entries."""
        r = range(2 * self.N)
        return [[self.product(a, b) for b in r] for a in r]

    def map_of(self, g: int) -> tuple[str, Fraction]:
        """Element g as a linear map (kind, param): rotation by
        pi*param, or reflection across the axis at angle pi*param.
        param is reduced, in [0, 2) for 'rot' and [0, 1) for 'ref'."""
        N = self.N
        if g < N:
            return "rot", Fraction(2 * g, N)
        return "ref", self.base_axis + Fraction(g - N, N)

    def is_subgroup_of(self, other: "DihedralGroup") -> bool:
        """N divides other's N, and base is a lattice direction of other."""
        try:
            other.direction_index(self.base_axis)
        except PolygonError:
            return False
        return other.N % self.N == 0


# ---------------------------------------------------------------------------
# operations


def triangle_from_angles(a, b, c) -> Polygon:
    """Triangle with the given angles (units of pi, summing to 1) and
    the side opposite the first angle horizontal with unit length."""
    a = _angle_value(a)
    b = _angle_value(b)
    c = _angle_value(c)
    if a + b + c != 1:
        raise PolygonError("triangle angles must sum to pi")
    if a <= 0 or b <= 0 or c <= 0:
        raise PolygonError("triangle angles must be positive")
    sa = sin_pi(a)
    edges = [
        Edge(RationalAngle(Fraction(0)), embed(1)),
        Edge(RationalAngle(1 - c), sin_pi(b) / sa),
        Edge(RationalAngle((1 + b) % 2), sin_pi(c) / sa),
    ]
    return Polygon(edges)


def angle_data(P: Polygon) -> dict:
    """Vertex angles, N = lcm of their reduced denominators, and 2N."""
    angles = list(P.angles())
    N = 1
    for ang in angles:
        N = N * ang.denominator // math.gcd(N, ang.denominator)
    return {"angles": angles, "N": N, "group_order": 2 * N}


def walk(sides, lengths, table, origin=planar.ORIGIN) -> tuple:
    """The one placement of exact vertices: from `origin`, side (s, m)
    adds lengths[s] times the (cos, sin) pair table[m].  The walk
    closes, so its last side is not read."""
    x, y = origin
    out = [origin]
    for s, m in sides[:-1]:
        c, sn = table[m]
        x, y = x + lengths[s] * c, y + lengths[s] * sn
        out.append((x, y))
    return tuple(out)


def group_of(P: Polygon) -> DihedralGroup:
    """The dihedral group generated by reflections in lines parallel to
    the sides of P, built afresh (`Polygon.group` keeps one)."""
    N = angle_data(P)["N"]
    G = DihedralGroup(N, P.edges[0].direction.multiple)
    edge_directions(P, G)  # refuses an edge off the lattice
    return G


def edge_directions(P: Polygon, G: DihedralGroup) -> list[int]:
    """The lattice index in G of each edge direction of P."""
    return [G.direction_index(e.direction.multiple) for e in P.edges]


def side_reflections(P: Polygon, G: DihedralGroup) -> list[int]:
    """r[s]: the index in G of the reflection across side s of P.  The
    side's direction base + m/N is its axis, and axes are taken mod 1,
    so that reflection is ref_(m mod N)."""
    return [G.N + m % G.N for m in edge_directions(P, G)]
