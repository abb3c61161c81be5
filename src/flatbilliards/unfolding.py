"""Unfolding a rational polygon into a translation surface.

The surface M_P = P~/~ is 2N copies of P, one per element g of the
dihedral group G_P, glued by translation.  A face is combinatorial, so
the side pairing, vertex classes and genus come from group indices
alone.  Every side of every copy points along a lattice direction of
G_P, base + m/N; a side keeps its index m, read by D_N's integer
action, and its direction from the group's table of the 2N lattice
directions, so unfolding does no angle arithmetic.  Orientation-reversing
copies traverse their boundary in reversed vertex order so that every
face boundary is counterclockwise; side pastings are then genuine
translations between charts.  Only the surface dumps and the search
read coordinates: face g is P's row g (`Polygon.row`) in face order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicReal
from .polygons import (DihedralGroup, Polygon, RationalAngle,
                       edge_directions, side_reflections)


class SurfaceError(ValueError):
    """Internal consistency failure while building a surface."""


@dataclass(frozen=True)
class Side:
    """One oriented boundary side of a face: the side of P it copies
    and its direction in the face's chart, which is the group's
    lattice direction `lattice` (base + lattice/N)."""

    source: int  # index of the side of P this came from
    direction: Fraction  # units of pi mod 2
    lattice: int  # index of `direction` in the group's lattice, mod 2N


class Face:
    """One copy g.P, combinatorially: its group element g = `index`,
    `source_vertex[p]`, the vertex of P at counterclockwise position p,
    and `sides[p]`, the side from position p to p + 1.  Its coordinates
    are the surface's `vertices[index]`.

    `edge_dirs[s]` is the lattice index of side s of P; the side's
    image under g is read by D_N's integer action on directions."""

    __slots__ = ("index", "det", "sides", "source_vertex")

    def __init__(self, index: int, group: DihedralGroup, edge_dirs):
        self.index = index
        self.det = 1 if index < group.N else -1
        k = len(edge_dirs)
        self.source_vertex = tuple(p * self.det % k for p in range(k))
        # a reversed copy runs each source side backwards, turned by pi
        turn = 0 if self.det == 1 else group.N
        table = group.directions()
        sides = []
        for s in map(self.side_position_of_source, range(k)):
            m = group.act_on_direction(index, edge_dirs[s] + turn)
            sides.append(Side(s, table[m], m))
        self.sides = tuple(sides)

    def vertex_position(self, v: int) -> int:
        """Position of source vertex v: source_vertex is an involution."""
        return v * self.det % len(self.source_vertex)

    def side_position_of_source(self, s: int) -> int:
        """Position of source side s, and the source side at position s."""
        k = len(self.source_vertex)
        return s if self.det == 1 else (k - 1 - s) % k


@dataclass(frozen=True)
class ConePoint:
    """A vertex class of the glued surface."""

    class_id: int
    multiplicity: int
    corners: frozenset  # of (face index, ccw vertex position)
    source_vertex: int
    angle: RationalAngle  # interior angle of the source vertex of P

    @property
    def is_singular(self) -> bool:
        return self.multiplicity > 1

    def representative(self):
        return min(self.corners)


class TranslationSurface:
    """The unfolded surface M_P."""

    def __init__(self, polygon: Polygon):
        self.polygon = polygon
        self.group: DihedralGroup = polygon.group()
        self.N = self.group.N
        edge_dirs = edge_directions(polygon, self.group)
        self.faces = [
            Face(i, self.group, edge_dirs) for i in range(2 * self.N)
        ]
        self.k = len(polygon.edges)
        self.pairing: dict = {}
        self._build_pairing()
        self._cone_points = None
        self._corner_class = None
        self._vertices = None
        self.decompositions: dict = {}  # memo of periodicity.classify_points

    # -- construction -----------------------------------------------------

    def _build_pairing(self):
        # face g's copy of side s of P is glued to face g.r_s, r_s the
        # reflection across side s of P: the reflection across g's image
        # of that side is g.r_s.g^-1
        G = self.group
        r = side_reflections(self.polygon, G)
        for face in self.faces:
            for p, side in enumerate(face.sides):
                s = side.source
                fi2 = G.product(face.index, r[s])
                p2 = self.faces[fi2].side_position_of_source(s)
                self.pairing[(face.index, p)] = (fi2, p2)
        for (fi, p), (fj, q) in self.pairing.items():
            if self.pairing[(fj, q)] != (fi, p):
                raise SurfaceError("pairing is not an involution")
            if (fj, q) == (fi, p):
                raise SurfaceError("pairing has a fixed side")
            a = self.faces[fi].sides[p]
            b = self.faces[fj].sides[q]
            if a.source != b.source:
                raise SurfaceError("paired sides copy different sides of P")
            if (a.lattice - b.lattice) % (2 * self.N) != self.N:
                raise SurfaceError("paired sides are not anti-parallel")

    # -- coordinates --------------------------------------------------------

    @property
    def vertices(self) -> list:
        """Face index -> its exact vertices g.v in counterclockwise
        order: P's row g in face order, read once and kept.  Paired
        sides copy one side of P along anti-parallel lattice directions,
        so they cancel by construction."""
        if self._vertices is None:
            row = self.polygon.row
            self._vertices = [tuple(row(f.index)[j] for j in f.source_vertex)
                              for f in self.faces]
        return self._vertices

    # -- vertex classes -----------------------------------------------------

    def corner_across(self, corner):
        """The next corner around the same surface point."""
        fi, p = corner
        fj, q = self.pairing[(fi, p)]
        return (fj, (q + 1) % self.k)

    def cone_points(self) -> list[ConePoint]:
        """The vertex classes, found on the first call together with
        the corner table that `class_of_corner` reads."""
        if self._cone_points is not None:
            return self._cone_points
        seen = set()
        classes = []
        table = [[None] * self.k for _ in self.faces]
        angles = self.polygon.angles()
        for fi in range(len(self.faces)):
            for p in range(self.k):
                if (fi, p) in seen:
                    continue
                orbit = []
                cur = (fi, p)
                while cur not in seen:
                    seen.add(cur)
                    orbit.append(cur)
                    cur = self.corner_across(cur)
                if cur != (fi, p):
                    raise SurfaceError("vertex walk did not close")
                sources = {
                    self.faces[f].source_vertex[q] for f, q in orbit
                }
                if len(sources) != 1:
                    raise SurfaceError(
                        "vertex class mixes source vertices"
                    )
                src = sources.pop()
                total = sum(
                    angles[self.faces[f].source_vertex[q]].multiple
                    for f, q in orbit
                )
                if total % 2 != 0:
                    raise SurfaceError(
                        f"vertex class angle {total} is not a multiple of 2*pi"
                    )
                cp = ConePoint(
                    class_id=len(classes),
                    multiplicity=int(total // 2),
                    corners=frozenset(orbit),
                    source_vertex=src,
                    angle=angles[src],
                )
                classes.append(cp)
                for f, q in orbit:
                    table[f][q] = cp
        self._corner_class = table
        self._cone_points = classes
        return classes

    def class_of_corner(self, corner) -> ConePoint:
        """The class of corner (face index, position)."""
        if self._corner_class is None:
            self.cone_points()
        fi, p = corner
        return self._corner_class[fi][p]

    def classes_for_source_vertex(self, v: int) -> list[ConePoint]:
        return [c for c in self.cone_points() if c.source_vertex == v]

    def singular_points(self) -> list[ConePoint]:
        return [c for c in self.cone_points() if c.is_singular]

    # -- topology ----------------------------------------------------------

    def genus(self) -> dict:
        """Genus and Euler characteristic, computed two independent ways."""
        cps = self.cone_points()
        excess = sum(c.multiplicity - 1 for c in cps)
        # combinatorial: V - E + F of the face complex
        V = len(cps)
        E = len(self.faces) * self.k // 2
        F = len(self.faces)
        chi = V - E + F
        if -chi != excess:
            raise SurfaceError(
                f"genus formulas disagree: chi={chi}, sum(k-1)={excess}"
            )
        if excess % 2 != 0:
            raise SurfaceError("odd cone-angle excess")  # pragma: no cover
        return {"g": (excess + 2) // 2, "chi": chi}

    def area_twice(self) -> CyclotomicReal:
        return self.polygon.area_twice() * len(self.faces)

    # -- group action ----------------------------------------------------------

    def act_on_corner(self, g: int, corner):
        """Image of a corner under the affine action of group index g on
        the surface: face fi is group element fi, so it goes to face
        g.fi."""
        fi, p = corner
        v = self.faces[fi].source_vertex[p]
        fj = self.group.product(g, fi)
        return (fj, self.faces[fj].vertex_position(v))

    def act_on_class(self, g: int, cp: ConePoint) -> ConePoint:
        image = self.act_on_corner(g, cp.representative())
        return self.class_of_corner(image)


def unfold(P: Polygon) -> TranslationSurface:
    """Unfold a rational billiard polygon into its translation surface."""
    return TranslationSurface(P)
