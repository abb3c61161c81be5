"""JSON and SVG input/output.

Every exact value is emitted as its canonical cyclotomic coordinates
(`conductor` plus rational coefficients) together with a 50-digit
decimal; re-parsing the coordinates reproduces the value exactly.
Files are written atomically (temporary file plus rename).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from fractions import Fraction

from .cyclotomic import (CyclotomicReal, ParseError, embed, parse_constant,
                         totient)
from .polygons import Edge, Polygon, triangle_from_angles

F = Fraction


class FormatError(ValueError):
    """Malformed input document."""


# ---------------------------------------------------------------------------
# exact scalars


def cyc_to_json(x: CyclotomicReal) -> dict:
    # the digits come from the canonical value, so they do not depend on
    # the conductor x happens to be stored at
    c = x.canonical()
    conductor, coeffs = c.to_pair()
    return {
        "conductor": conductor,
        "coeffs": coeffs,
        "decimal": c.decimal(50),
    }


def cyc_from_json(doc) -> CyclotomicReal:
    """Accepts the exact-object form, a constant expression string,
    or a plain integer."""
    if isinstance(doc, int):
        return embed(doc)
    if isinstance(doc, str):
        try:
            return parse_constant(doc)
        except (ParseError, ZeroDivisionError) as exc:
            raise FormatError(str(exc)) from exc
    if isinstance(doc, dict) and "conductor" in doc and "coeffs" in doc:
        n = doc["conductor"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise FormatError(f"conductor must be a positive integer: {n!r}")
        coeffs = doc["coeffs"]
        # phi(n) >= sqrt(n / 2): a larger n cannot match the list, and
        # the trial division in totient stays within the input's size
        if (
            not isinstance(coeffs, list)
            or 2 * len(coeffs) ** 2 < n
            or len(coeffs) != totient(n)
        ):
            raise FormatError(f"conductor {n} needs phi({n}) coefficients")
        coeffs = [fraction_from_str(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        nums = [int(c * den) for c in coeffs]
        return CyclotomicReal(n, nums, den)
    raise FormatError(f"not an exact value: {doc!r}")


def fraction_to_str(q) -> str:
    q = F(q)
    return str(q.numerator) if q.denominator == 1 else f"{q}"


def fraction_from_str(text) -> Fraction:
    """A rational from a string or a JSON integer; a float or a boolean
    is refused, as it does not hold the exact value written."""
    if isinstance(text, (float, bool)):
        raise FormatError(f"not an exact rational number: {text!r}")
    try:
        return F(text)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise FormatError(f"not a rational number: {text!r}") from exc


# ---------------------------------------------------------------------------
# polygons and tilings


def polygon_to_json(P: Polygon) -> dict:
    return {
        "edges": [
            {
                "direction": fraction_to_str(e.direction.multiple),
                "length": cyc_to_json(e.length),
            }
            for e in P.edges
        ]
    }


def polygon_from_json(doc) -> Polygon:
    if not isinstance(doc, dict):
        raise FormatError("polygon document must be an object")
    if "triangle" in doc:
        angles = doc["triangle"]
        if not isinstance(angles, list) or len(angles) != 3:
            raise FormatError("triangle needs a list of three angles")
        return triangle_from_angles(*map(fraction_from_str, angles))
    if not isinstance(doc.get("edges"), list):
        raise FormatError("polygon document needs 'edges' list or 'triangle'")
    edges = []
    for e in doc["edges"]:
        if not isinstance(e, dict) or not {"direction", "length"} <= e.keys():
            raise FormatError("each edge needs 'direction' and 'length'")
        edges.append(
            Edge(
                fraction_from_str(e["direction"]),
                cyc_from_json(e["length"]),
            )
        )
    return Polygon(edges)


def tiling_to_json(base: Polygon, words) -> dict:
    return {
        "base": polygon_to_json(base),
        "words": [list(w) for w in words],
    }


def tiling_from_json(doc):
    if not isinstance(doc, dict) or "base" not in doc or "words" not in doc:
        raise FormatError("tiling document needs 'base' and 'words'")
    base = polygon_from_json(doc["base"])
    words = doc["words"]
    if not isinstance(words, list) or not all(
        isinstance(w, list) and all(type(s) is int for s in w) for w in words
    ):
        raise FormatError("'words' must be lists of integer side indices")
    return base, words


# ---------------------------------------------------------------------------
# surfaces


def surface_to_json(M) -> dict:
    """Dump of an unfolded surface.  The polygon is authoritative for
    round-trips; the derived data is included for inspection."""
    return {
        "polygon": polygon_to_json(M.polygon),
        "N": M.N,
        "faces": [
            {
                "index": f.index,
                "map": {
                    "kind": f.gmap.kind,
                    "param": fraction_to_str(f.gmap.param),
                },
                "vertices": [
                    [cyc_to_json(v[0]), cyc_to_json(v[1])]
                    for v in M.vertices[f.index]
                ],
            }
            for f in M.faces
        ],
        "pairing": {
            f"{fi},{p}": [fj, q] for (fi, p), (fj, q) in M.pairing.items()
        },
        "cone_points": [
            {
                "class_id": cp.class_id,
                "multiplicity": cp.multiplicity,
                "source_vertex": cp.source_vertex,
                "angle": fraction_to_str(cp.angle.multiple),
                "singular": cp.is_singular,
                "corners": sorted(list(c) for c in cp.corners),
            }
            for cp in M.cone_points()
        ],
        "genus": M.genus(),
    }


# ---------------------------------------------------------------------------
# atomic file output


def atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc):
    atomic_write(path, json.dumps(doc, indent=2) + "\n")


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# SVG


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def svg_of_polygons(polygons, path: str, size: float = 640.0):
    """Render closed polygons (lists of exact vertices) scaled into a
    square viewport, y axis pointing up."""
    polygons = [[(float(x), float(y)) for x, y in poly] for poly in polygons]
    xs = [p[0] for poly in polygons for p in poly]
    ys = [p[1] for poly in polygons for p in poly]
    if not xs:
        raise FormatError("nothing to draw")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-9)
    margin = 0.05 * span
    scale = size / (span + 2 * margin)

    def tx(p):
        return (
            (p[0] - x0 + margin) * scale,
            size - (p[1] - y0 + margin) * scale,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(size)}" height="{_fmt(size)}" '
        f'viewBox="0 0 {_fmt(size)} {_fmt(size)}">'
    ]
    fills = ("#dce6f2", "#f2e3dc")
    for i, poly in enumerate(polygons):
        pts = " ".join(
            f"{_fmt(q[0])},{_fmt(q[1])}" for q in (tx(p) for p in poly)
        )
        parts.append(
            f'<polygon points="{pts}" fill="{fills[i % 2]}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts) + "\n")
