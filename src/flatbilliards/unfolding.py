"""Unfolding a rational polygon into a translation surface.

The surface carries 2N faces, one per element of the dihedral group
G_P, each placed in its own chart as the literal image g.P (linear
part only, no translation).  Orientation-reversing copies traverse
their boundary in reversed vertex order so that every face boundary is
counterclockwise; side pastings are then genuine translations between
charts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import planar
from .cyclotomic import CyclotomicReal
from .polygons import (
    DihedralGroup,
    LinearMap,
    Polygon,
    PolygonError,
    RationalAngle,
    angle_data,
    group_of,
)


class SurfaceError(ValueError):
    """Internal consistency failure while building a surface."""


@dataclass(frozen=True)
class Side:
    """One oriented boundary side of a placed face."""

    source: int  # index of the side of P this came from
    start: tuple
    end: tuple
    direction: Fraction  # actual direction in this chart, units of pi mod 2

    def vector(self):
        return planar.vsub(self.end, self.start)


class Face:
    """One placed copy g.P with counterclockwise boundary."""

    __slots__ = ("index", "gmap", "det", "vertices", "sides", "source_vertex")

    def __init__(self, index: int, gmap: LinearMap, polygon: Polygon):
        self.index = index
        self.gmap = gmap
        self.det = gmap.det
        base = polygon.vertices()
        k = len(base)
        if self.det == 1:
            placed = [gmap.apply_vec(v) for v in base]
            self.vertices = tuple(placed)
            self.source_vertex = tuple(range(k))
            sources = list(range(k))
        else:
            order = [(k - p) % k for p in range(k)]
            self.vertices = tuple(gmap.apply_vec(base[i]) for i in order)
            self.source_vertex = tuple(order)
            sources = [(k - 1 - p) % k for p in range(k)]
        sides = []
        for p in range(k):
            s = sources[p]
            d = polygon.edges[s].direction.multiple
            if self.det == 1:
                direction = gmap.apply_angle(d)
            else:
                direction = gmap.apply_angle((d + 1) % 2)
            sides.append(
                Side(
                    source=s,
                    start=self.vertices[p],
                    end=self.vertices[(p + 1) % k],
                    direction=direction,
                )
            )
        self.sides = tuple(sides)

    def side_position_of_source(self, s: int) -> int:
        k = len(self.sides)
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
        self.group: DihedralGroup = group_of(polygon)
        data = angle_data(polygon)
        self.N = data["N"]
        self.faces = [
            Face(i, self.group.element(i), polygon)
            for i in range(2 * self.N)
        ]
        self.k = len(polygon.edges)
        self.pairing: dict = {}
        self.translations: dict = {}
        self._build_pairing()
        self._cone_points = None
        self.decompositions: dict = {}  # memo of periodicity.classify_points

    # -- construction -----------------------------------------------------

    def _build_pairing(self):
        for face in self.faces:
            for p, side in enumerate(face.sides):
                s = side.source
                axis = face.gmap.apply_angle(
                    self.polygon.edges[s].direction.multiple
                ) % 1
                partner_map = LinearMap.reflection(axis).compose(face.gmap)
                fi2 = self.group.index_of(partner_map)
                p2 = self.faces[fi2].side_position_of_source(s)
                self.pairing[(face.index, p)] = (fi2, p2)
        # validate involution + geometry
        for (fi, p), (fj, q) in self.pairing.items():
            if self.pairing[(fj, q)] != (fi, p):
                raise SurfaceError("pairing is not an involution")
            if (fj, q) == (fi, p):
                raise SurfaceError("pairing has a fixed side")
            a = self.faces[fi].sides[p]
            b = self.faces[fj].sides[q]
            if (a.direction - b.direction) % 2 != 1:
                raise SurfaceError("paired sides are not anti-parallel")
            va = a.vector()
            vb = b.vector()
            if not planar.is_zero_vec(planar.vadd(va, vb)):
                raise SurfaceError("paired sides differ in length")
            # gluing translation: own start -> partner end
            self.translations[(fi, p)] = planar.vsub(b.end, a.start)

    # -- vertex classes -----------------------------------------------------

    def corner_across(self, corner):
        """The next corner around the same surface point."""
        fi, p = corner
        fj, q = self.pairing[(fi, p)]
        return (fj, (q + 1) % self.k)

    def cone_points(self) -> list[ConePoint]:
        if self._cone_points is not None:
            return self._cone_points
        seen = set()
        classes = []
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
                classes.append(
                    ConePoint(
                        class_id=len(classes),
                        multiplicity=int(total // 2),
                        corners=frozenset(orbit),
                        source_vertex=src,
                        angle=angles[src],
                    )
                )
        self._cone_points = classes
        return classes

    def class_of_corner(self, corner) -> ConePoint:
        for c in self.cone_points():
            if corner in c.corners:
                return c
        raise SurfaceError(f"unknown corner {corner}")  # pragma: no cover

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

    def act_on_face(self, g: LinearMap, fi: int) -> int:
        return self.group.index_of(g.compose(self.faces[fi].gmap))

    def act_on_corner(self, g: LinearMap, corner):
        """Image of a corner under the affine action of g on the surface."""
        fi, p = corner
        face = self.faces[fi]
        v = face.source_vertex[p]
        fj = self.act_on_face(g, fi)
        target = self.faces[fj]
        positions = [
            q for q in range(self.k) if target.source_vertex[q] == v
        ]
        if len(positions) != 1:
            raise SurfaceError("ambiguous corner action")  # pragma: no cover
        return (fj, positions[0])

    def act_on_class(self, g: LinearMap, cp: ConePoint) -> ConePoint:
        image = self.act_on_corner(g, cp.representative())
        return self.class_of_corner(image)


def unfold(P: Polygon) -> TranslationSurface:
    """Unfold a rational billiard polygon into its translation surface."""
    return TranslationSurface(P)
