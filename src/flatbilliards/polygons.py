"""Exact rational polygons, angle data, and the dihedral group D_N.

A polygon is a counterclockwise circular list of edge vectors given by
a rational direction (in units of pi) and an exact length.  Vertices
are prefix sums, so closure and translation invariance are native.
Reflex vertex angles are allowed; self-intersection is not.
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
    def numerator(self) -> int:
        return self.multiple.numerator

    @property
    def denominator(self) -> int:
        return self.multiple.denominator

    @property
    def is_even(self) -> bool:
        """Even angle: reduced denominator is even."""
        return self.multiple.denominator % 2 == 0

    def cos(self) -> CyclotomicReal:
        return cos_pi(self.multiple)

    def sin(self) -> CyclotomicReal:
        return sin_pi(self.multiple)

    def normalized(self, period: int = 2) -> "RationalAngle":
        return RationalAngle(self.multiple % period)

    def __add__(self, other):
        return RationalAngle(self.multiple + _angle_value(other))

    def __sub__(self, other):
        return RationalAngle(self.multiple - _angle_value(other))

    def __neg__(self):
        return RationalAngle(-self.multiple)

    def __str__(self):
        return f"{self.multiple}*pi"


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

    def vector(self) -> planar.Vec:
        c = self.direction.cos()
        s = self.direction.sin()
        return (self.length * c, self.length * s)


class Polygon:
    """A simple counterclockwise polygon with rational angles."""

    __slots__ = ("edges", "_vertices", "_angles", "_key")

    def __init__(self, edges):
        self.edges = tuple(
            e if isinstance(e, Edge) else Edge(*e) for e in edges
        )
        self._vertices = None
        self._angles = None
        self._key = None
        self._validate()

    # -- derived geometry ----------------------------------------------------

    def vertices(self) -> tuple:
        """Vertex i is the start point of edge i; vertex 0 is the origin."""
        if self._vertices is None:
            pts = [planar.ORIGIN]
            for e in self.edges[:-1]:
                pts.append(planar.vadd(pts[-1], e.vector()))
            self._vertices = tuple(pts)
        return self._vertices

    def angles(self) -> tuple:
        """Interior angle at each vertex (vertex i joins edges i-1 and i)."""
        if self._angles is None:
            out = []
            k = len(self.edges)
            for i in range(k):
                d_in = self.edges[i - 1].direction.multiple
                d_out = self.edges[i].direction.multiple
                turn = (d_out - d_in + 1) % 2 - 1  # in (-1, 1]
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
        # closure
        total = planar.ORIGIN
        for e in self.edges:
            total = planar.vadd(total, e.vector())
        if not planar.is_zero_vec(total):
            raise PolygonError("edges do not close up")
        # angles in (0, 2*pi), no straight vertices, total turn +2 (ccw)
        turn_sum = Fraction(0)
        k = len(self.edges)
        for i in range(k):
            d_in = self.edges[i - 1].direction.multiple
            d_out = self.edges[i].direction.multiple
            turn = (d_out - d_in + 1) % 2 - 1
            if turn == 0:
                raise PolygonError("straight (pi) vertex angle not allowed")
            if turn == 1:
                raise PolygonError("zero vertex angle not allowed")
            turn_sum += turn
        if turn_sum != 2:
            raise PolygonError(
                "edges must be listed counterclockwise (total turn 2*pi)"
            )
        self._check_simple()

    def _check_simple(self):
        """Refuse a polygon whose edges meet other than at the shared
        vertex of two adjacent edges.

        Adjacent edges need no exact test.  `_validate` has refused a
        straight vertex, so two adjacent edges are collinear only when
        the second turns back along the first (an interior angle of
        2 pi), and then they overlap; otherwise they meet only at their
        shared vertex.  Their directions decide it, and a triangle has
        no such vertex.  A non-adjacent pair is decided exactly unless
        the float boxes of its edges are apart.  `float()` is correctly
        rounded and so monotone: a point the two edges share has each
        float coordinate inside both boxes, so boxes that are apart
        prove the edges disjoint.  A coordinate too large for a float
        gives its box an unbounded side.  Pairs are tested in the order
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
        dirs = [e.direction.multiple for e in self.edges]
        for i in range(k):
            xlo, xhi, ylo, yhi = boxes[i]
            for j in range(i + 1, k):
                if j == i + 1 or (i == 0 and j == k - 1):
                    if (dirs[j] - dirs[i]) % 2 == 1:
                        raise PolygonError(f"adjacent edges {i},{j} overlap")
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


# ---------------------------------------------------------------------------
# linear isometries fixing the origin, with rational-angle parameters


@dataclass(frozen=True)
class LinearMap:
    """Orthogonal map: rotation by pi*param, or reflection across the
    line through the origin at angle pi*param."""

    kind: str  # 'rot' | 'ref'
    param: Fraction

    def __post_init__(self):
        period = 2 if self.kind == "rot" else 1
        object.__setattr__(self, "param", Fraction(self.param) % period)

    @staticmethod
    def identity() -> "LinearMap":
        return LinearMap("rot", Fraction(0))

    @staticmethod
    def rotation(angle) -> "LinearMap":
        return LinearMap("rot", _angle_value(angle))

    @staticmethod
    def reflection(axis) -> "LinearMap":
        return LinearMap("ref", _angle_value(axis))

    @property
    def det(self) -> int:
        return 1 if self.kind == "rot" else -1

    def apply_angle(self, direction) -> Fraction:
        """Image of a direction (units of pi), mod 2."""
        d = _angle_value(direction)
        if self.kind == "rot":
            return (d + self.param) % 2
        return (2 * self.param - d) % 2

    def apply_vec(self, v: planar.Vec) -> planar.Vec:
        x, y = v
        if self.kind == "rot":
            if not self.param:
                return v
            c = cos_pi(self.param)
            s = sin_pi(self.param)
            return (x * c - y * s, x * s + y * c)
        c = cos_pi(2 * self.param)
        s = sin_pi(2 * self.param)
        return (x * c + y * s, x * s - y * c)

    def __str__(self):
        return f"{self.kind}({self.param})"


MINUS_ID = LinearMap.rotation(Fraction(1))


class DihedralGroup:
    """D_N: rotations by 2*pi*j/N and reflections across axes
    base + j/N (axis angles in units of pi)."""

    def __init__(self, N: int, base_axis: Fraction):
        self.N = N
        self.base_axis = Fraction(base_axis) % Fraction(1, N)

    def elements(self) -> list[LinearMap]:
        out = [
            LinearMap.rotation(Fraction(2 * j, self.N)) for j in range(self.N)
        ]
        out += [
            LinearMap.reflection(self.base_axis + Fraction(j, self.N))
            for j in range(self.N)
        ]
        return out

    def __contains__(self, g: LinearMap) -> bool:
        if g.kind == "rot":
            return (g.param * self.N / 2).denominator == 1
        return ((g.param - self.base_axis) * self.N).denominator == 1

    def index_of(self, g: LinearMap) -> int:
        """0..N-1 rotations, N..2N-1 reflections."""
        if g not in self:
            raise PolygonError(f"{g} is not in D_{self.N}")
        if g.kind == "rot":
            return int(g.param * self.N / 2) % self.N
        return self.N + int((g.param - self.base_axis) * self.N) % self.N

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

    def element(self, index: int) -> LinearMap:
        index %= 2 * self.N
        if index < self.N:
            return LinearMap.rotation(Fraction(2 * index, self.N))
        j = index - self.N
        return LinearMap.reflection(self.base_axis + Fraction(j, self.N))

    def is_subgroup_of(self, other: "DihedralGroup") -> bool:
        if other.N % self.N != 0:
            return False
        return LinearMap.reflection(self.base_axis) in other


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


def group_of(P: Polygon) -> DihedralGroup:
    """The dihedral group generated by reflections in lines parallel to
    the sides of P."""
    N = angle_data(P)["N"]
    base = P.edges[0].direction.multiple % 1
    for e in P.edges:
        rel = (e.direction.multiple - base) * N
        if rel.denominator != 1:
            raise PolygonError(
                "edge directions are not compatible with N"
            )  # pragma: no cover - prevented by rational angles
    return DihedralGroup(N, base)


def side_reflections(P: Polygon, G: DihedralGroup) -> list[int]:
    """r[s]: the index in G of the reflection across side s of P."""
    return [G.index_of(LinearMap.reflection(e.direction.multiple))
            for e in P.edges]


def minus_id_screen(P: Polygon, external_sides=None) -> dict:
    """Does -Id belong to G_P, and which trigger shows it?

    in_group is true exactly when N is even.  The reason records the
    strongest trigger: an even vertex angle, an even angle between two
    committed-external sides (supplied by the caller), or bare even N.
    """
    data = angle_data(P)
    in_group = data["N"] % 2 == 0
    pair_found = False
    if external_sides:
        for i in external_sides:
            for j in external_sides:
                if i < j:
                    diff = (
                        P.edges[i].direction.multiple
                        - P.edges[j].direction.multiple
                    ) % 1
                    if diff.denominator % 2 == 0:
                        pair_found = True
    if pair_found:
        reason = "external_even_angle_pair"
    elif any(a.is_even for a in data["angles"]):
        reason = "even_angle"
    elif in_group:
        reason = "even_N"
    else:
        reason = "none"
    return {"in_group": in_group, "reason": reason}


# ---------------------------------------------------------------------------
# plane motions (orthogonal part + translation), used by covers/search


@dataclass(frozen=True)
class Motion:
    """Affine isometry x -> orth(x) + shift."""

    orth: LinearMap
    shift: planar.Vec

    def apply(self, p: planar.Vec) -> planar.Vec:
        return planar.vadd(self.orth.apply_vec(p), self.shift)

    def key(self):
        return (self.orth.kind, self.orth.param, planar.vkey(self.shift))
