"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (machine-readable JSON
on standard error), 2 on a usage error.  All file outputs are written
atomically; reports carry exact values alongside decimals.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import fileio, planar
from .catalog import CatalogError, list_families, make_entry
from .covers import (
    analyze_cover,
    appropriate_verdict,
    copies_from_words,
    tile_by_words,
)
from .cyclotomic import is_rational
from .flow import NotShownPeriodic, cylinder_decomposition
from .periodicity import classify_points
from .polygons import Polygon
from .unfolding import unfold

F = Fraction

# triangle vertex labels: triangles are built from their angle triple
# (a, b, c) with vertex 0 at angle b, vertex 1 at angle c, vertex 2 at
# angle a
_POINT_TO_VERTEX = {"b": 0, "c": 1, "a": 2}


def _facts_json(facts: dict) -> dict:
    out = {}
    for k, v in facts.items():
        if isinstance(v, Fraction):
            out[k] = fileio.fraction_to_str(v)
        elif isinstance(v, (list, tuple)):
            out[k] = [
                fileio.fraction_to_str(x) if isinstance(x, Fraction) else x
                for x in v
            ]
        else:
            out[k] = v
    return out


def _load_polygon(args) -> Polygon:
    given = [
        bool(getattr(args, "input", None)),
        bool(getattr(args, "triangle", None)),
        bool(getattr(args, "family", None)),
    ]
    if sum(given) != 1:
        raise fileio.FormatError(
            "give exactly one of --in, --triangle, --family"
        )
    if getattr(args, "input", None):
        return fileio.polygon_from_json(fileio.read_json(args.input))
    if getattr(args, "triangle", None):
        angles = args.triangle.split(",")
        return fileio.polygon_from_json({"triangle": angles})
    return make_entry(args.family, getattr(args, "n", None)).polygon


def _print(doc):
    print(json.dumps(doc, indent=2))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_unfold(args) -> int:
    P = _load_polygon(args)
    M = unfold(P)
    if args.out:
        fileio.write_json(args.out, fileio.surface_to_json(M))
    if args.svg:
        fileio.svg_of_polygons(M.vertices, args.svg)
    _print(
        {
            "faces": len(M.faces),
            "N": M.N,
            "genus": M.genus(),
            "cone_points": len(M.cone_points()),
            "singular_points": len(M.singular_points()),
        }
    )
    return 0


def _cmd_analyze(args) -> int:
    P = _load_polygon(args)
    M = unfold(P)
    _print(
        {
            "N": M.N,
            "faces": len(M.faces),
            "genus": M.genus(),
            "area_twice": fileio.cyc_to_json(M.area_twice()),
            "cone_points": [
                {
                    "class_id": cp.class_id,
                    "multiplicity": cp.multiplicity,
                    "source_vertex": cp.source_vertex,
                    "angle": fileio.fraction_to_str(cp.angle.multiple),
                    "singular": cp.is_singular,
                }
                for cp in M.cone_points()
            ],
        }
    )
    return 0


def _cmd_cylinders(args) -> int:
    P = _load_polygon(args)
    M = unfold(P)
    theta = fileio.fraction_from_str(args.direction)
    bound = None
    if args.length_bound:
        bound = fileio.cyc_from_json(args.length_bound)
        if bound.sign() <= 0:
            raise fileio.FormatError("--length-bound must be > 0")
    dec = cylinder_decomposition(M, theta, bound)
    doc = {
        "direction": fileio.fraction_to_str(dec.theta),
        "cylinder_count": dec.cylinder_count(),
        "cylinders": [
            {
                "height": fileio.cyc_to_json(c.height),
                "circumference": fileio.cyc_to_json(c.circumference),
                "area_twice": fileio.cyc_to_json(c.area_twice),
            }
            for c in dec.cylinders
        ],
        "surface_area_twice": fileio.cyc_to_json(M.area_twice()),
    }
    if args.out:
        fileio.write_json(args.out, doc)
    _print(doc)
    return 0


def _cmd_nonperiodic_test(args) -> int:
    P = _load_polygon(args)
    if args.point is not None:
        if len(P.edges) != 3 or args.point not in _POINT_TO_VERTEX:
            raise fileio.FormatError(
                "--point a|b|c names a triangle corner; "
                "use --vertex for other polygons"
            )
        vertex = _POINT_TO_VERTEX[args.point]
    elif args.vertex is not None:
        vertex = args.vertex
    else:
        raise fileio.FormatError("give --point or --vertex")
    if not 0 <= vertex < len(P.edges):
        raise fileio.FormatError(
            f"vertex {vertex} not in 0..{len(P.edges) - 1}")
    M = unfold(P)
    directions = None
    if args.direction is not None:
        directions = [fileio.fraction_from_str(args.direction)]
    cps = M.classes_for_source_vertex(vertex)
    verdicts = classify_points(M, cps, directions)
    classes = []
    for cp in cps:
        v = verdicts[cp.class_id]
        entry = {
            "class_id": cp.class_id,
            "singular": cp.is_singular,
            "status": v.status,
        }
        if v.status == "non_periodic":
            cert = v.certificate
            ratio = cert["h1"] / cert["h"]
            square = is_rational(ratio * ratio)
            entry["certificate"] = {
                "direction": fileio.fraction_to_str(cert["direction"]),
                "h1": fileio.cyc_to_json(cert["h1"]),
                "h": fileio.cyc_to_json(cert["h"]),
                "ratio": fileio.cyc_to_json(ratio),
                "ratio_squared_rational": (
                    None if square is None else fileio.fraction_to_str(square)
                ),
            }
        elif v.status == "periodic":
            entry["certificate"] = v.certificate
        else:
            entry["evidence"] = [
                {"direction": fileio.fraction_to_str(d), "result": result}
                for d, result in v.evidence
            ]
        classes.append(entry)
    statuses = {v.status for v in verdicts.values()}
    status = next(
        (s for s in ("non_periodic", "unknown") if s in statuses), "periodic"
    )
    doc = {"vertex": vertex, "status": status, "classes": classes}
    if args.out:
        fileio.write_json(args.out, doc)
    _print(doc)
    return 0


def _cmd_check_cover(args) -> int:
    base, words = fileio.tiling_from_json(fileio.read_json(args.input))
    t = tile_by_words(base, words)
    a = analyze_cover(t)
    verdict = appropriate_verdict(a)
    doc = {
        "copies": a.n_copies,
        "degree": a.degree,
        "N_base": a.N_P,
        "N_outline": a.N_Q,
        "subgroup_index": a.subgroup_index,
        "chi_base": a.chi_base,
        "chi_cover": a.chi_cover,
        "genus_base": a.genus_base,
        "genus_cover": a.genus_cover,
        "riemann_hurwitz_consistent": a.rh_consistent,
        "total_ramification": a.total_ramification,
        "branch_points": [
            {
                "source_vertex": bp.source_vertex,
                "angle": fileio.fraction_to_str(bp.angle),
                "class_id": bp.class_id,
                "multipliers": list(bp.multipliers),
                "ramification_indices": list(bp.ram_indices),
                "branched": bp.branched,
            }
            for bp in a.branch_points
        ],
        "appropriate": verdict["appropriate"],
        "reasons": verdict["reasons"],
    }
    if args.out:
        fileio.write_json(args.out, doc)
    if args.svg:
        fileio.svg_of_polygons(t.copy_vertices, args.svg)
    _print(doc)
    return 0


def _cmd_catalog(args) -> int:
    if not args.family:
        _print({"families": list(list_families())})
        return 0
    entry = make_entry(args.family, args.n)
    doc = {
        "family": entry.family,
        "n": entry.n,
        "polygon": fileio.polygon_to_json(entry.polygon),
        "angles": [
            fileio.fraction_to_str(a.multiple)
            for a in entry.polygon.angles()
        ],
        "facts": _facts_json(entry.facts),
    }
    if args.out:
        fileio.write_json(args.out, doc)
    _print(doc)
    return 0


def _cmd_search(args) -> int:
    from .search import search_appropriate

    if min(args.max_copies, args.max_nodes) < 1:
        raise fileio.FormatError("--max-copies and --max-nodes must be >= 1")
    entry = make_entry(args.family, args.n)
    report = search_appropriate(
        entry, args.max_copies, cls=args.cls, max_nodes=args.max_nodes
    )
    doc = {
        "family": report.family,
        "n": report.n,
        "class": report.cls,
        "max_copies": report.max_copies,
        "outcome": report.outcome,
        "prechecks": report.prechecks,
        "statistics": report.statistics,
        "candidates": report.candidates,
        "rejected": report.rejected,
    }
    if args.out:
        fileio.write_json(args.out, doc)
    if args.svg_dir:
        import os

        os.makedirs(args.svg_dir, exist_ok=True)
        P = entry.polygon
        i = 0
        for tag, word_lists in report.rejected.items():
            slug = tag.replace(" ", "-").replace("(", "").replace(")", "")
            for words in word_lists:
                fileio.svg_of_polygons(
                    [[planar.vadd(p, t) for p in P.row(g)]
                     for g, t in copies_from_words(P, words)],
                    f"{args.svg_dir}/{slug}-{i:03d}.svg",
                )
                i += 1
    _print(doc)
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_polygon_inputs(p, with_family=True):
    p.add_argument("--in", dest="input", help="polygon JSON file")
    p.add_argument(
        "--triangle", help="comma-separated angle triple in units of pi"
    )
    if with_family:
        p.add_argument("--family", help="catalog family id")
        p.add_argument("--n", type=int, help="catalog family parameter")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flatbilliards",
        description="Unfoldings, cylinder decompositions, periodicity "
        "certificates, branched covers, and cover search for rational "
        "polygons.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("unfold", help="unfold a polygon to a surface")
    _add_polygon_inputs(p)
    p.add_argument("--out", help="surface JSON output")
    p.add_argument("--svg", help="figure output")
    p.set_defaults(func=_cmd_unfold)

    p = sub.add_parser("analyze", help="topology of the unfolded surface")
    _add_polygon_inputs(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("cylinders", help="cylinder decomposition")
    _add_polygon_inputs(p)
    p.add_argument("--direction", required=True, help="angle in units of pi")
    p.add_argument("--length-bound", help="search bound (exact expression)")
    p.add_argument("--out", help="JSON output")
    p.set_defaults(func=_cmd_cylinders)

    p = sub.add_parser(
        "nonperiodic-test", help="periodicity certificate for a vertex point"
    )
    _add_polygon_inputs(p)
    p.add_argument("--point", choices=("a", "b", "c"), help="triangle corner")
    p.add_argument("--vertex", type=int, help="polygon vertex index")
    p.add_argument("--direction", help="single direction to test")
    p.add_argument("--out", help="JSON output")
    p.set_defaults(func=_cmd_nonperiodic_test)

    p = sub.add_parser("check-cover", help="verify and analyze a tiling")
    p.add_argument("--in", dest="input", required=True, help="tiling JSON")
    p.add_argument("--out", help="report JSON output")
    p.add_argument("--svg", help="figure output")
    p.set_defaults(func=_cmd_check_cover)

    p = sub.add_parser("catalog", help="list or emit catalog entries")
    p.add_argument("--family", help="catalog family id")
    p.add_argument("--n", type=int, help="catalog family parameter")
    p.add_argument("--out", help="JSON output")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser(
        "search-appropriate", help="bounded search for appropriate covers"
    )
    p.add_argument("--family", required=True, help="catalog family id")
    p.add_argument("--n", type=int, help="catalog family parameter")
    p.add_argument("--max-copies", type=int, required=True)
    p.add_argument(
        "--class", dest="cls", type=int, choices=(1, 2), default=1
    )
    p.add_argument("--max-nodes", type=int, default=200000)
    p.add_argument("--out", help="report JSON output")
    p.add_argument("--svg-dir", help="directory for rejected-tiling figures")
    p.set_defaults(func=_cmd_search)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NotShownPeriodic, CatalogError) as exc:
        sys.stderr.write(
            json.dumps(
                {"error": type(exc).__name__, "message": str(exc)}
            )
            + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
