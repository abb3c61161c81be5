"""Generators for the known lattice-polygon families.

Each entry carries the polygon exactly plus the facts used elsewhere:
genus of the unfolded surface where stated, which vertex points are
known non-periodic (with a direction whose cylinder decomposition
certifies it), and which screens apply (all vertex points periodic,
square-tiled).  Latticeness itself is metadata, never recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import planar
from .cyclotomic import cos_pi, embed, sin_pi
from .polygons import Edge, Polygon, PolygonError, triangle_from_angles

F = Fraction

FAMILIES = (
    "1",  # regular n-gons, n >= 3
    "2",  # right triangles (1/2, 1/n, (n-2)/2n), n >= 4
    "3",  # acute isoceles ((n-1)/2n, (n-1)/2n, 1/n), n >= 3
    "4",  # obtuse isoceles (1/n, 1/n, (n-2)/n), n >= 5
    "5a",  # acute scalene (1/4, 1/3, 5/12)
    "5b",  # acute scalene (1/5, 1/3, 7/15)
    "5c",  # acute scalene (2/9, 1/3, 4/9)
    "6",  # obtuse (1/2n, 1/n, (2n-3)/2n), n >= 4
    "7",  # obtuse (1/12, 1/3, 7/12)
    "8",  # L-shaped polygons
    "9a",  # 4-gon (1/n, 1/n, 1/2n, (4n-5)/2n), n >= 7 odd
    "9b",  # 4-gon (1/2, 1/n, 1/n, (3n-4)/2n), n >= 5 odd
    "10",  # unit square (square-tiled)
)


class CatalogError(ValueError):
    """Unknown family or parameter outside the stated range."""


@dataclass(frozen=True)
class CatalogEntry:
    family: str
    n: int | None
    polygon: Polygon
    facts: dict


def regular_ngon(n: int) -> Polygon:
    return Polygon([Edge(F(2 * j, n), 1) for j in range(n)])


def quadrilateral_from_angles(angles) -> Polygon:
    """A simple quadrilateral with the given exact angles (units of pi,
    vertex order as listed, summing to 2); side lengths are solved
    exactly from the closure condition."""
    angles = [F(a) for a in angles]
    if sum(angles) != 2:
        raise CatalogError("quadrilateral angles must sum to 2*pi")
    dirs = [F(0)]
    for i in range(1, 4):
        dirs.append((dirs[i - 1] + 1 - angles[i]) % 2)
    units = [(cos_pi(d), sin_pi(d)) for d in dirs]
    for first in (F(1), F(1, 2), F(2), F(3, 2), F(2, 3), F(1, 4), F(4)):
        rhs = planar.vneg(
            planar.vadd(units[0], planar.vscale(units[1], first))
        )
        det = planar.cross(units[2], units[3])
        if det.is_zero:
            continue
        l2 = planar.cross(rhs, units[3]) / det
        l3 = planar.cross(units[2], rhs) / det
        if l2.sign() <= 0 or l3.sign() <= 0:
            continue
        try:
            poly = Polygon(
                [
                    Edge(dirs[0], 1),
                    Edge(dirs[1], first),
                    Edge(dirs[2], l2),
                    Edge(dirs[3], l3),
                ]
            )
        except PolygonError:
            continue
        if [a.multiple for a in poly.angles()] != angles:
            continue
        return poly
    raise CatalogError(
        f"no simple quadrilateral found for angles {angles}"
    )


def l_shape(lengths=(1, 1, 1, 1)) -> Polygon:
    """Axis-parallel L-shaped hexagon; `lengths` are the exact sizes
    (x1, y1, x2, y2) of the two rectangles forming the L."""
    x1, y1, x2, y2 = lengths
    return Polygon(
        [
            Edge(F(0), embed(x1) + embed(x2)),
            Edge(F(1, 2), y1),
            Edge(F(1), x2),
            Edge(F(1, 2), y2),
            Edge(F(1), x1),
            Edge(F(3, 2), embed(y1) + embed(y2)),
        ]
    )


def _require(cond: bool, msg: str):
    if not cond:
        raise CatalogError(msg)


def make_entry(family: str, n: int | None = None) -> CatalogEntry:
    family = str(family)
    _require(
        n is None or family not in ("5a", "5b", "5c", "7", "8", "10"),
        f"family {family} takes no parameter n",
    )
    facts: dict = {"lattice": True}
    if family == "1":
        _require(n is not None and n >= 3, "family 1 needs n >= 3")
        poly = regular_ngon(n)
        facts["all_vertex_points_periodic"] = True
        facts["periodic_reason"] = "singular"
    elif family == "2":
        _require(n is not None and n >= 4, "family 2 needs n >= 4")
        poly = triangle_from_angles(F(1, 2), F(1, n), F(n - 2, 2 * n))
        if n % 2 == 0:
            facts["all_vertex_points_periodic"] = True
            facts["periodic_reason"] = "rotation_by_pi"
        else:
            facts["non_periodic_vertex_angles"] = [F(1, n)]
            facts["split_direction"] = F(1, 2 * n)
    elif family == "3":
        _require(n is not None and n >= 3, "family 3 needs n >= 3")
        poly = triangle_from_angles(
            F(1, n), F(n - 1, 2 * n), F(n - 1, 2 * n)
        )
        facts["all_vertex_points_periodic"] = True
        facts["periodic_reason"] = "rotation_by_pi"
    elif family == "4":
        _require(n is not None and n >= 5, "family 4 needs n >= 5")
        poly = triangle_from_angles(F(n - 2, n), F(1, n), F(1, n))
    elif family == "5a":
        poly = triangle_from_angles(F(1, 4), F(1, 3), F(5, 12))
        facts["genus"] = 3
        facts["non_periodic_vertex_angles"] = [F(1, 3)]
        facts["split_direction"] = F(0)
    elif family == "5b":
        poly = triangle_from_angles(F(1, 5), F(1, 3), F(7, 15))
        facts["genus"] = 4
        facts["non_periodic_vertex_angles"] = [F(1, 3), F(1, 5)]
        facts["split_direction"] = F(1, 30)
    elif family == "5c":
        poly = triangle_from_angles(F(2, 9), F(1, 3), F(4, 9))
        facts["genus"] = 3
        facts["non_periodic_vertex_angles"] = [F(1, 3)]
        facts["split_direction"] = F(1, 6)
    elif family == "6":
        _require(n is not None and n >= 4, "family 6 needs n >= 4")
        poly = triangle_from_angles(
            F(1, 2 * n), F(1, n), F(2 * n - 3, 2 * n)
        )
        if n % 2 == 0:
            facts["all_vertex_points_periodic"] = True
            facts["periodic_reason"] = "rotation_by_pi"
        else:
            facts["non_periodic_vertex_angles"] = [F(1, n)]
            facts["split_direction"] = F(1, 2 * n)
    elif family == "7":
        poly = triangle_from_angles(F(1, 12), F(1, 3), F(7, 12))
    elif family == "8":
        poly = l_shape()
        facts["all_vertex_points_periodic"] = True
        facts["periodic_reason"] = "rotation_by_pi"
    elif family == "9a":
        _require(
            n is not None and n >= 7 and n % 2 == 1,
            "family 9a needs odd n >= 7",
        )
        poly = quadrilateral_from_angles(
            [F(1, n), F(1, n), F(1, 2 * n), F(4 * n - 5, 2 * n)]
        )
    elif family == "9b":
        _require(
            n is not None and n >= 5 and n % 2 == 1,
            "family 9b needs odd n >= 5",
        )
        poly = quadrilateral_from_angles(
            [F(1, 2), F(1, n), F(1, n), F(3 * n - 4, 2 * n)]
        )
    elif family == "10":
        poly = Polygon(
            [
                Edge(F(0), 1),
                Edge(F(1, 2), 1),
                Edge(F(1), 1),
                Edge(F(3, 2), 1),
            ]
        )
        facts["square_tiled"] = True
        facts["all_vertex_points_periodic"] = True
        facts["periodic_reason"] = "rotation_by_pi"
    else:
        raise CatalogError(f"unknown family {family!r}")
    return CatalogEntry(family=family, n=n, polygon=poly, facts=facts)


def list_families() -> tuple:
    return FAMILIES
