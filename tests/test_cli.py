import contextlib
import io
import json
import math
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatbilliards import fileio
from flatbilliards.cli import main
from flatbilliards.cyclotomic import embed
from flatbilliards.polygons import triangle_from_angles
from fractions import Fraction as F


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out.strip() else None
    err = json.loads(out.err) if out.err.strip() else None
    return code, doc, err


def test_unfold_octagon_triangle(tmp_path, capsys):
    out = tmp_path / "surface.json"
    svg = tmp_path / "figure.svg"
    code, doc, _ = run(
        capsys,
        "unfold",
        "--triangle",
        "1/2,1/8,3/8",
        "--out",
        str(out),
        "--svg",
        str(svg),
    )
    assert code == 0
    assert doc["faces"] == 16
    assert doc["genus"] == {"g": 2, "chi": -2}
    assert svg.read_text().startswith("<svg")
    dump = json.loads(out.read_text())
    # the emitted polygon re-parses to exactly the generating triangle
    P = fileio.polygon_from_json(dump["polygon"])
    Q = triangle_from_angles(F(1, 2), F(1, 8), F(3, 8))
    assert P.canonical_key() == Q.canonical_key()
    for e1, e2 in zip(P.edges, Q.edges):
        assert e1.direction.multiple == e2.direction.multiple
        assert (e1.length - e2.length).is_zero


def test_analyze_square_torus(tmp_path, capsys):
    poly = tmp_path / "torus.json"
    poly.write_text(
        json.dumps(
            {
                "edges": [
                    {"direction": "0", "length": "1"},
                    {"direction": "1/2", "length": "1"},
                    {"direction": "1", "length": "1"},
                    {"direction": "3/2", "length": "1"},
                ]
            }
        )
    )
    code, doc, _ = run(capsys, "analyze", "--in", str(poly))
    assert code == 0
    assert doc["genus"] == {"g": 1, "chi": 0}


def test_huge_coordinates_are_decided_exactly(tmp_path, capsys):
    # float() of a coordinate of this square overflows: the outline
    # screen gives it an unbounded box and the exact test decides
    side = str(10**400)
    poly = {"edges": [{"direction": d, "length": side}
                      for d in ("0", "1/2", "1", "3/2")]}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(poly))
    code, doc, err = run(capsys, "analyze", "--in", str(path))
    assert (code, err) == (0, None)
    assert doc == {
        "N": 2,
        "faces": 4,
        "genus": {"g": 1, "chi": 0},
        "area_twice": {
            "conductor": 1,
            "coeffs": [str(8 * 10**800)],
            "decimal": "8." + "0" * 49 + "e+800",
        },
        "cone_points": [
            {"class_id": v, "multiplicity": 1, "source_vertex": v,
             "angle": "1/2", "singular": False}
            for v in range(4)
        ],
    }
    path.write_text(json.dumps({"base": poly, "words": [[], [0], [1], [1, 0]]}))
    code, doc, err = run(capsys, "check-cover", "--in", str(path))
    assert (code, err) == (0, None)
    assert doc == {
        "copies": 4, "degree": 4, "N_base": 2, "N_outline": 2,
        "subgroup_index": 1, "chi_base": 0, "chi_cover": 0,
        "genus_base": 1, "genus_cover": 1,
        "riemann_hurwitz_consistent": True, "total_ramification": 0,
        "branch_points": [
            {"source_vertex": v, "angle": "1/2", "class_id": v,
             "multipliers": [kk] * 4, "ramification_indices": [1] * 4,
             "branched": False}
            for v, kk in enumerate((2, 4, 2, 1))
        ],
        "appropriate": False,
        "reasons": [
            "unbranched cover",
            "rotation by pi in outline group (external_even_angle_pair)",
        ],
    }


def test_cylinders_report_conserves_area(capsys):
    code, doc, _ = run(
        capsys,
        "cylinders",
        "--triangle",
        "1/2,1/8,3/8",
        "--direction",
        "0",
    )
    assert code == 0
    assert doc["cylinder_count"] >= 1
    total = embed(0)
    for c in doc["cylinders"]:
        total = total + fileio.cyc_from_json(c["area_twice"])
    surface = fileio.cyc_from_json(doc["surface_area_twice"])
    assert (total - surface).is_zero


def test_nonperiodic_test_example(capsys):
    code, doc, _ = run(
        capsys,
        "nonperiodic-test",
        "--family",
        "5a",
        "--point",
        "b",
        "--direction",
        "0",
    )
    assert code == 0
    assert doc["status"] == "non_periodic"
    squares = [
        c["certificate"]["ratio_squared_rational"]
        for c in doc["classes"]
        if c["status"] == "non_periodic"
    ]
    assert "1/3" in squares
    # the other two pi/3 classes sit on horizontal separatrices
    unknown = [c for c in doc["classes"] if c["status"] == "unknown"]
    assert len(unknown) == 2
    for c in unknown:
        assert c["evidence"] == [{"direction": "0", "result": "on_separatrix"}]


def test_cylinders_direction_is_read_mod_2(capsys):
    argv = ["cylinders", "--family", "2", "--n", "5", "--direction"]
    code, doc, _ = run(capsys, *argv, "7/2")
    assert code == 0 and doc["direction"] == "3/2"
    assert run(capsys, *argv, "3/2")[1] == doc


@pytest.mark.parametrize("command", ["cylinders", "nonperiodic-test"])
def test_direction_above_the_chart_degree_is_refused(capsys, command):
    # 1/97 puts 2 n=5 in a chart at conductor 1940, of degree 768: the
    # refusal comes before any arithmetic there
    argv = [command, "--family", "2", "--n", "5", "--direction", "1/97"]
    if command == "nonperiodic-test":
        argv += ["--vertex", "0"]
    t0 = time.perf_counter()
    code, doc, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 1 and doc is None
    assert err["error"] == "FlowError"
    assert "MAX_CHART_DEGREE" in err["message"]


_BIG = 10**30


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--triangle", f"1/2,1/{_BIG},{_BIG // 2 - 1}/{_BIG}"],
        ["cylinders", "--family", "2", "--n", "5",
         "--direction", f"1/{_BIG + 1}"],
        ["analyze", "--in", "EDGES"],
        ["cylinders", "--family", "2", "--n", "5",
         "--direction", f"1/{2 ** 89 - 1}"],
    ],
)
def test_conductor_above_max_degree_is_refused(tmp_path, capsys, argv):
    # a 31-digit denominator, a 27-digit prime one (which factoring by
    # trial division would never finish), and an edge direction of
    # 1/10007 (a conductor of degree 10006): each is refused before its
    # reduction data is built, a flow direction by the chart limit
    error, limit = "ExactError", "MAX_DEGREE"
    if "--direction" in argv:
        error, limit = "FlowError", "MAX_CHART_DEGREE"
    if argv[-1] == "EDGES":
        path = tmp_path / "edges.json"
        path.write_text(json.dumps({"edges": [
            {"direction": d, "length": "1"} for d in ("0", "1/10007", "1")
        ]}))
        argv = argv[:-1] + [str(path)]
    t0 = time.perf_counter()
    code, doc, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 1 and doc is None
    assert err["error"] == error
    assert limit in err["message"]


def test_triangle_at_the_max_degree_is_analyzed(capsys):
    # sin(pi/997) lives at conductor 3988, of degree 1992
    code, doc, _ = run(capsys, "analyze", "--triangle", "1/2,1/997,995/1994")
    assert code == 0 and doc["N"] == 1994


def test_check_cover(tmp_path, capsys):
    tiling = tmp_path / "tiling.json"
    tiling.write_text(
        json.dumps(
            {
                "base": {"triangle": ["1/2", "1/8", "3/8"]},
                "words": [[], [0], [0, 2]],
            }
        )
    )
    code, doc, _ = run(capsys, "check-cover", "--in", str(tiling))
    assert code == 0
    assert doc["degree"] == 3
    assert doc["genus_cover"] == 5
    assert doc["riemann_hurwitz_consistent"] is True
    assert doc["appropriate"] is False


def test_check_cover_rejects_out_of_range_side(tmp_path, capsys):
    # a triangle has sides 0, 1, 2; side 7 used to wrap round to side 1
    tiling = tmp_path / "tiling.json"
    tiling.write_text(
        json.dumps(
            {
                "base": {"triangle": ["1/2", "1/8", "3/8"]},
                "words": [[], [7]],
            }
        )
    )
    code, doc, err = run(capsys, "check-cover", "--in", str(tiling))
    assert code == 1 and doc is None
    assert err["error"] == "CoverError"
    assert "side index 7" in err["message"]


def _square(first_edge):
    return {
        "edges": [first_edge]
        + [
            {"direction": d, "length": "1"}
            for d in ("1/2", "1", "3/2")
        ]
    }


def _tiling(words, base=None):
    return {"base": base or {"triangle": ["1/2", "1/8", "3/8"]}, "words": words}


@pytest.mark.parametrize(
    "edge",
    [
        {"direction": "0", "length": {"conductor": -5, "coeffs": ["1"]}},
        {"direction": "0", "length": {"conductor": 0, "coeffs": ["1"]}},
        {"direction": "0", "length": {"conductor": 2.5, "coeffs": ["1"]}},
        {"direction": "0", "length": {"conductor": 1, "coeffs": ["1", "0"]}},
        {"direction": "0", "length": {"conductor": 5, "coeffs": ["1"]}},
        {"direction": "0", "length": {"conductor": 1, "coeffs": [None]}},
        {"direction": "0"},
        {"length": "1"},
        "0",
        # whole tiling documents, read by check-cover
        pytest.param(_tiling([[], 5]), id="word-not-a-list"),
        pytest.param(_tiling([[], [None]]), id="side-null"),
        pytest.param(_tiling([[], [1.5]]), id="side-float"),
        pytest.param(_tiling([[], [True]]), id="side-bool"),
        pytest.param(_tiling([[]], {"triangle": 5}), id="triangle-not-a-list"),
        pytest.param({"direction": "0", "length": "1/0"}, id="length-over-zero"),
        # JSON floats and booleans do not hold an exact rational
        pytest.param(
            {"direction": "0", "length": {"conductor": 1, "coeffs": [0.1]}},
            id="coefficient-float",
        ),
        pytest.param(
            {"direction": "0", "length": {"conductor": 1, "coeffs": [True]}},
            id="coefficient-bool",
        ),
        pytest.param({"direction": 0.0, "length": "1"}, id="direction-float"),
        pytest.param({"direction": False, "length": "1"}, id="direction-bool"),
        pytest.param(
            _tiling([[]], {"triangle": [0.5, 0.125, 0.375]}),
            id="triangle-float",
        ),
        # arguments to cylinders
        pytest.param(("--length-bound", "1/0"), id="bound-over-zero"),
        pytest.param(
            ("--length-bound=" + "(" * 3000 + "1" + ")" * 3000,),
            id="bound-deep-parentheses",
        ),
        pytest.param(
            ("--length-bound=" + "-" * 3000 + "1",), id="bound-deep-minus"
        ),
        pytest.param(("--length-bound", "-5"), id="bound-negative"),
        pytest.param(("--length-bound", "0"), id="bound-zero"),
    ],
)
def test_malformed_input_is_a_format_error(tmp_path, capsys, edge):
    # an edge goes into a square read by analyze, a tiling as it is to
    # check-cover, and a tuple of arguments to cylinders
    if isinstance(edge, tuple):
        argv = ["cylinders", "--family", "2", "--n", "5", "--direction", "0"]
        argv += edge
    else:
        command, doc = "analyze", _square(edge)
        if isinstance(edge, dict) and "words" in edge:
            command, doc = "check-cover", edge
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--in", str(path)]
    code, doc, err = run(capsys, *argv)
    assert code == 1 and doc is None
    assert err["error"] == "FormatError"


@pytest.mark.parametrize("vertex", ["7", "-1", "3"])
def test_nonperiodic_test_vertex_out_of_range(capsys, vertex):
    code, doc, err = run(
        capsys, "nonperiodic-test", "--family", "2", "--n", "5",
        "--vertex=" + vertex,
    )
    assert code == 1 and doc is None
    assert err["error"] == "FormatError"


def test_exact_length_in_coordinates_is_accepted(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    length = {"conductor": 1, "coeffs": ["1"]}
    poly.write_text(json.dumps(_square({"direction": "0", "length": length})))
    code, doc, _ = run(capsys, "analyze", "--in", str(poly))
    assert code == 0
    assert doc["genus"] == {"g": 1, "chi": 0}


def test_catalog_listing_and_entry(capsys):
    code, doc, _ = run(capsys, "catalog")
    assert code == 0 and len(doc["families"]) == 13
    code, doc, _ = run(capsys, "catalog", "--family", "2", "--n", "5")
    assert code == 0
    assert sorted(doc["angles"]) == ["1/2", "1/5", "3/10"]
    assert doc["facts"]["split_direction"] == "1/10"


def test_search_cli(capsys):
    code, doc, _ = run(
        capsys,
        "search-appropriate",
        "--family",
        "7",
        "--max-copies",
        "4",
    )
    assert code == 0
    assert doc["outcome"] == "none_found"


@pytest.mark.parametrize(
    "flag, value",
    [("--max-copies", "0"), ("--max-copies", "-3"),
     ("--max-nodes", "0"), ("--max-nodes", "-1")],
)
def test_search_bound_below_one_is_a_format_error(capsys, flag, value):
    bounds = {"--max-copies": "4", "--max-nodes": "100", flag: value}
    code, doc, err = run(
        capsys, "search-appropriate", "--family", "2", "--n", "5",
        *(f"{k}={v}" for k, v in bounds.items()),
    )
    assert code == 1 and doc is None
    assert err["error"] == "FormatError"


def test_search_tables_are_bounded_by_the_node_budget(capsys):
    # a node never holds more than max_nodes + 1 copies, so a huge copy
    # bound under a tiny node budget builds small tables
    t0 = time.perf_counter()
    code, doc, _ = run(
        capsys, "search-appropriate", "--family", "2", "--n", "5",
        "--max-copies", "100000000", "--max-nodes", "3",
    )
    assert time.perf_counter() - t0 < 2
    assert code == 0
    assert doc["outcome"] == "inconclusive"
    assert doc["statistics"]["resource budget"] == 1


def test_search_svg_dir_draws_each_retained_list(tmp_path, capsys):
    code, doc, _ = run(
        capsys, "search-appropriate", "--family", "2", "--n", "5",
        "--max-copies", "4", "--svg-dir", str(tmp_path),
    )
    assert code == 0
    lists = [w for kept in doc["rejected"].values() for w in kept]
    figures = sorted(tmp_path.iterdir(), key=lambda p: p.stem[-3:])
    assert lists and len(figures) == len(lists)
    for words, path in zip(lists, figures):
        assert path.read_text().count("<polygon ") == len(words)


@pytest.mark.parametrize(
    "argv",
    [("catalog", "--family", "5a", "--n", "7"),
     ("catalog", "--family", "10", "--n", "4"),
     ("search-appropriate", "--family", "5a", "--n", "9",
      "--max-copies", "4")],
)
def test_parameterless_family_refuses_n(capsys, argv):
    code, doc, err = run(capsys, *argv)
    assert code == 1 and doc is None
    assert err["error"] == "CatalogError"


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "catalog", "--family", "zzz")
    assert code == 1
    assert err["error"] == "CatalogError"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["search-appropriate", "--family", "7"])  # missing K
    assert exc.value.code == 2


def test_polygon_json_roundtrip():
    cases = [
        triangle_from_angles(F(1, 2), F(1, 5), F(3, 10)),
        triangle_from_angles(F(1, 4), F(1, 3), F(5, 12)),
    ]
    for P in cases:
        doc = fileio.polygon_to_json(P)
        Q = fileio.polygon_from_json(json.loads(json.dumps(doc)))
        for e1, e2 in zip(P.edges, Q.edges):
            assert e1.direction.multiple == e2.direction.multiple
            assert (e1.length - e2.length).is_zero


def test_atomic_write_replaces(tmp_path):
    target = tmp_path / "x.json"
    fileio.write_json(str(target), {"a": 1})
    fileio.write_json(str(target), {"a": 2})
    assert json.loads(target.read_text()) == {"a": 2}
    assert list(tmp_path.iterdir()) == [target]


_SIDE = st.one_of(
    st.integers(-2, 6), st.floats(), st.booleans(), st.none()
)
_BASES = [
    {"triangle": ["1/2", "1/8", "3/8"]},
    {"triangle": ["1/2", "1/4", "1/3"]},  # angles sum past pi
    {"triangle": ["3/2", "-1/4", "-1/4"]},  # negative angles
]


@settings(max_examples=60, deadline=None)
@given(
    words=st.lists(st.lists(_SIDE, max_size=6), max_size=6),
    base=st.sampled_from(_BASES),
)
def test_check_cover_ends_in_a_verdict_or_a_diagnostic(words, base):
    # any tiling document of short words over a valid or malformed base:
    # check-cover prints a verdict, or exits 1 with a JSON diagnostic
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tiling.json")
        with open(path, "w") as fh:
            json.dump({"base": base, "words": words}, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check-cover", "--in", path])
    if code == 0:
        assert json.loads(out.getvalue())["copies"] == len(words)
    else:
        assert code == 1 and not out.getvalue()
        assert {"error", "message"} <= json.loads(err.getvalue()).keys()


# polygon and exact-value documents: every field may be malformed.
# Denominators may be large: a conductor above cyclotomic.MAX_DEGREE is
# refused before anything is built for it.
_RATIONAL = st.one_of(
    st.fractions(max_denominator=24).map(str),
    st.fractions(max_denominator=10**40).map(str),
    st.integers(-5, 5),
    st.sampled_from(["1/0", "", "x", "1/2/3", "1e3", "nan", "inf", " 3/8 "]),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
)


def _phi(n):
    return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)


_EXACT = st.one_of(
    _RATIONAL,
    st.sampled_from(
        ["sin(1/8)", "2*cos(1/5)-1", "sqrt(2)", "sin(", "1/(1-1)", "-1", "0",
         "sin(1/10007)", "cos(1/1000000000000000000000000000001)"]
    ),
    # a conductor with a coefficient list of the right length or not
    st.integers(-2, 30).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "conductor": st.one_of(
                    st.just(n), st.floats(), st.booleans(), st.text(max_size=3)
                ),
                "coeffs": st.lists(
                    _RATIONAL,
                    min_size=_phi(max(n, 1)) - 1,
                    max_size=_phi(max(n, 1)) + 1,
                ),
            }
        )
    ),
    st.fixed_dictionaries({"conductor": st.integers(1, 30)}),
)
_VALID_EDGES = [
    fileio.polygon_to_json(triangle_from_angles(F(1, 2), F(1, 8), F(3, 8))),
    _square({"direction": "0", "length": "1"}),
]


@st.composite
def _polygon_documents(draw):
    # a valid polygon with one field replaced, or edges drawn at random
    if draw(st.booleans()):
        doc = json.loads(json.dumps(draw(st.sampled_from(_VALID_EDGES))))
        edge = draw(st.sampled_from(doc["edges"]))
        field = draw(st.sampled_from(["direction", "length", "coeffs"]))
        if field == "coeffs" and isinstance(edge["length"], dict):
            coeffs = edge["length"]["coeffs"]
            coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(_RATIONAL)
        elif field == "direction":
            edge["direction"] = draw(_RATIONAL)
        else:
            edge["length"] = draw(_EXACT)
        return doc
    edge = st.one_of(
        st.fixed_dictionaries({"direction": _RATIONAL, "length": _EXACT}),
        st.fixed_dictionaries({"direction": _RATIONAL}),
        _RATIONAL,
    )
    return {"edges": draw(st.one_of(st.lists(edge, max_size=5), _RATIONAL))}


_DOMAIN_ERRORS = {
    "FormatError",
    "PolygonError",
    "ExactError",
    "CoverError",
    "SurfaceError",
}


@settings(max_examples=80, deadline=None)
@given(doc=_polygon_documents(), command=st.sampled_from(["analyze", "check"]))
def test_polygon_documents_end_in_a_result_or_a_diagnostic(doc, command):
    # analyze reads the document as a polygon, check-cover as the base
    # of a two-copy tiling; either prints a result or exits 1 with a
    # JSON diagnostic of one of the library's error classes
    if command == "check":
        doc = {"base": doc, "words": [[], [0]]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(
                ["analyze" if command == "analyze" else "check-cover",
                 "--in", path]
            )
    if code == 0:
        assert json.loads(out.getvalue())
    else:
        assert code == 1 and not out.getvalue()
        assert json.loads(err.getvalue())["error"] in _DOMAIN_ERRORS
