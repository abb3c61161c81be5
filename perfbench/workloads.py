"""The benchmark's workloads: inputs from a seed, jobs, and their checks.

A workload hands out rounds of jobs.  Every round runs the same
operations, in an order the seed fixes (`covers` takes turns over two
request sets of one make-up), so each run attempts whole rounds and
its failed share never depends on the run length.  A job
is one request as a user would make it and builds everything it uses
from the generated inputs; the program is always reached through its
module attributes, so that the tracer in tracing.py sees every call.

A job returns an `Output` namespace: what the checks need, and
`nbytes`, the JSON bytes it parsed and emitted.  `check(kind, output)`
returns a list of problems, computed outside the timed region;
`finish()` makes the checks that need one output of each kind and
runs once per process.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from types import SimpleNamespace as Output

from flatbilliards import catalog, covers, fileio, periodicity, search, unfolding

import checks
import tilings

F = Fraction


def _status_doc(cp, verdict):
    """One vertex class as `flatbilliards nonperiodic-test` emits it."""
    doc = {
        "class_id": cp.class_id,
        "singular": cp.is_singular,
        "status": verdict.status,
    }
    if verdict.status == "non_periodic":
        cert = verdict.certificate
        ratio = cert["h1"] / cert["h"]
        square = (ratio * ratio).as_rational()
        doc["certificate"] = {
            "direction": fileio.fraction_to_str(cert["direction"]),
            "h1": fileio.cyc_to_json(cert["h1"]),
            "h": fileio.cyc_to_json(cert["h"]),
            "ratio": fileio.cyc_to_json(ratio),
            "ratio_squared_rational": (
                fileio.fraction_to_str(square) if square is not None else None
            ),
        }
    elif verdict.status == "periodic":
        doc["certificate"] = verdict.certificate
    return doc


# ---------------------------------------------------------------------------
# certify


class Certify:
    """Unfold a catalog surface, classify every vertex class and emit
    every certificate as JSON.

    Each request names the surface and the direction the paper splits
    its non-periodic points in; classify_point tries that direction
    first, then the reflection axes of the group.
    """

    # (family, n): (direction the paper splits in, angle of the vertex
    # points the paper shows non-periodic), both in units of pi
    SURFACES = {
        ("2", 5): (F(1, 10), F(1, 5)),
        ("6", 5): (F(1, 10), F(1, 5)),
        ("2", 7): (F(1, 14), F(1, 7)),
        ("5a", None): (F(0), F(1, 3)),
        ("5c", None): (F(1, 6), F(1, 3)),
    }
    SMALL = {("2", 5): SURFACES[("2", 5)]}

    def __init__(self, seed, small=False):
        self.rng = random.Random(seed)
        self.surfaces = self.SMALL if small else self.SURFACES
        self._ratio_5a = checks.ratio_5a_candidates()
        self._roots_5c = checks.cubic_5c_roots()

    def warmup_round(self):
        return self.round()

    def round(self):
        kinds = list(self.surfaces)
        self.rng.shuffle(kinds)
        return [(k, lambda k=k: self.job(*k)) for k in kinds]

    def job(self, family, n):
        split, _ = self.surfaces[(family, n)]
        entry = catalog.make_entry(family, n)
        M = unfolding.unfold(entry.polygon)
        directions = [split] + [
            d for d in periodicity.default_directions(M) if d != split
        ]
        verdicts = {}
        classes = []
        for cp in M.cone_points():
            v = periodicity.classify_point(M, cp, directions=directions)
            verdicts[cp.class_id] = v
            classes.append(_status_doc(cp, v))
        doc = {
            "family": family,
            "n": n,
            "genus": M.genus()["g"],
            "classes": classes,
        }
        text = json.dumps(doc)
        return Output(nbytes=len(text), surface=M, verdicts=verdicts, text=text)

    def check(self, kind, out):
        family, n = kind
        split, paper_angle = self.surfaces[kind]
        M = out.surface
        doc = json.loads(out.text)
        problems = []
        floats = [(float(x), float(y)) for x, y in M.polygon.vertices()]
        problems += checks.check_genus(tilings.interior_angles(floats), doc["genus"])
        status = {c["class_id"]: c["status"] for c in doc["classes"]}
        for cp in M.cone_points():
            st = status[cp.class_id]
            if cp.is_singular and st != "periodic":
                problems.append(f"singular class {cp.class_id} is {st}")
            if not cp.is_singular and cp.angle.multiple == paper_angle \
                    and st != "non_periodic":
                problems.append(
                    f"class {cp.class_id} at angle {paper_angle} is {st}"
                )
            for g in M.group.elements():
                image = M.act_on_class(g, cp).class_id
                if status[image] != st:
                    problems.append(
                        f"verdict differs along the orbit of class {cp.class_id}"
                    )
                    break
        certs = [
            (out.verdicts[c["class_id"]].certificate, c["certificate"])
            for c in doc["classes"]
            if c["status"] == "non_periodic"
        ]
        if family == "5a":
            problems += self._check_5a(certs)
        if family == "5c":
            problems += self._check_5c(certs)
        return problems

    def _check_5a(self, certs):
        problems = []
        seen = 0
        for cert, emitted in certs:
            if cert["direction"] != 0:
                continue
            seen += 1
            r = cert["h1"] / cert["h"]
            problems += checks.check_ratio_5a(r)
            problems += checks.check_decimal(
                emitted["ratio"]["decimal"], self._ratio_5a
            )
        if not seen:
            problems.append("5a: no certificate in direction 0")
        return problems

    def _check_5c(self, certs):
        problems = []
        seen = 0
        # the paper's point splits its cylinder in ratio (1/2)/h; the
        # other pi/3 classes split other cylinders
        targets = [0.5 / float(h) for h in self._roots_5c if float(h) > 0]
        for cert, emitted in certs:
            if cert["direction"] != F(1, 6):
                continue
            ratio = float(cert["h1"]) / float(cert["h"])
            if min(abs(ratio - t) for t in targets) > 1e-9:
                continue
            seen += 1
            problems += checks.check_split_5c(cert["h1"], cert["h"])
            problems += checks.check_decimal(emitted["h1"]["decimal"], [F(1, 2)])
            problems += checks.check_decimal(
                emitted["h"]["decimal"], self._roots_5c
            )
        if not seen:
            problems.append("5c: no certificate in direction 1/6 with ratio (1/2)/h")
        return problems

    def finish(self):
        return []


# ---------------------------------------------------------------------------
# search


class Search:
    """Bounded first-class searches for appropriate covers."""

    SEARCHES = [("6", 5, 8), ("2", 5, 8), ("2", 7, 8)]
    SMALL = [("2", 5, 5)]
    WARMUP_COPIES = 4
    TAG = "two branch points"

    def __init__(self, seed, small=False):
        self.rng = random.Random(seed)
        self.check_rng = random.Random(seed ^ 0x5EED)
        self.searches = self.SMALL if small else self.SEARCHES
        self.reference = {}

    def warmup_round(self):
        """The same bases with at most WARMUP_COPIES copies: they fill
        the same per-conductor caches in a fraction of the time."""
        return [
            ((f, n, self.WARMUP_COPIES), lambda f=f, n=n: self.job(
                f, n, self.WARMUP_COPIES))
            for f, n, _ in self.searches
        ]

    def round(self):
        kinds = list(self.searches)
        self.rng.shuffle(kinds)
        return [(k, lambda k=k: self.job(*k)) for k in kinds]

    def job(self, family, n, max_copies):
        entry = catalog.make_entry(family, n)
        report = search.search_appropriate(entry, max_copies)
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
        text = json.dumps(doc)
        return Output(nbytes=len(text), text=text)

    def check(self, kind, out):
        doc = json.loads(out.text)
        problems = []
        if doc["outcome"] != "none_found":
            problems.append(f"search {kind} outcome {doc['outcome']}")
        ref = self.reference.setdefault(kind, doc)
        if doc["statistics"] != ref["statistics"]:
            problems.append(f"search {kind} statistics changed on repeat")
        if doc["rejected"] != ref["rejected"]:
            problems.append(f"search {kind} retained lists changed on repeat")
        return problems

    def finish(self):
        """Re-verify retained 'two branch points' lists exactly: one
        list per search, chosen by the seed, and for 2 n=5, K=8 the
        four-copy lists until the tiling over both pi/5 centres turns
        up.  (All lists together take about 27 s; across seeds every
        list is covered.)  The first timed output of each search is its
        reference."""
        problems = []
        for kind in self.searches:
            doc = self.reference.get(kind)
            if doc is None:
                problems.append(f"search {kind}: no output to re-verify")
                continue
            family, n, _ = kind
            P = catalog.make_entry(family, n).polygon
            lists = list(doc["rejected"].get(self.TAG, []))
            if not lists:
                problems.append(f"search {kind}: no '{self.TAG}' list kept")
                continue
            self.check_rng.shuffle(lists)
            want_pair = kind == ("2", 5, 8)
            queue = lists[:1] + (
                [w for w in lists[1:] if len(w) == 4] if want_pair else []
            )
            for words in queue:
                a = covers.analyze_cover(covers.tile_by_words(P, words))
                branched = a.branched_classes()
                problems += checks.check_several_branch_points(
                    [bp.class_id for bp in branched]
                )
                if len(words) == 4 and len(branched) == 2 and {
                    bp.angle for bp in branched
                } == {F(1, 5)}:
                    want_pair = False
                    break
            if want_pair:
                problems.append(
                    "2 n=5 K=8: no four-copy tiling branched over both "
                    "pi/5 centres"
                )
        return problems


# ---------------------------------------------------------------------------
# covers


class Covers:
    """`flatbilliards check-cover` requests: tiling JSON in, cover
    analysis and appropriateness verdict out.

    Per base, a round holds valid tilings of 2 to 7 copies grown from
    the seed plus two requests that must be refused: one with an
    overlapping (or coinciding) copy and one with a detached copy.
    Rounds take turns over SETS such request sets, so that a run's
    median sees twice as many distinct tilings.
    """

    BASES = {
        "(1/2,1/5,3/10)": ("2", 5),
        "(1/2,1/8,3/8)": ("2", 8),
        "square": ("10", None),
        "5a": ("5a", None),
    }
    VALID_COPIES = (2, 3, 4, 5, 6, 7)
    SMALL_COPIES = (2, 3)
    SETS = 2

    def __init__(self, seed, small=False):
        self.rng = random.Random(seed)
        bases = dict(list(self.BASES.items())[:1]) if small else self.BASES
        sizes = self.SMALL_COPIES if small else self.VALID_COPIES
        self.sets = [[] for _ in range(self.SETS)]  # (kind, json, expectation)
        self.warmup = []
        self.rounds = 0
        for name, (family, n) in bases.items():
            P = catalog.make_entry(family, n).polygon
            fb = tilings.Base(P.vertices())
            for requests in self.sets:
                grown = {c: tilings.grow_valid(fb, self.rng, c) for c in sizes}
                bad = [
                    ("overlapping",
                     tilings.make_overlapping(fb, self.rng, grown[sizes[-2]])),
                    ("detached",
                     tilings.make_disconnected(fb, self.rng, grown[sizes[-1]])),
                ]
                for c in sizes:
                    requests.append(self._request(name, P, fb, f"{c} copies",
                                                  grown[c], True))
                for label, words in bad:
                    requests.append(self._request(name, P, fb, label, words, False))
            self.warmup.append(self.sets[0][-len(sizes) - 2])

    def _request(self, name, P, fb, label, words, valid):
        layout = tilings.judge(fb, words)
        if layout.valid != valid:
            raise RuntimeError(f"generator made a wrong {label} tiling")
        text = json.dumps(fileio.tiling_to_json(P, [list(w) for w in words]))
        expect = {"base": P, "base_float": fb, "words": [list(w) for w in words],
                  "layout": layout}
        return (name, label), text, expect

    def round(self):
        order = list(self.sets[self.rounds % self.SETS])
        self.rounds += 1
        self.rng.shuffle(order)
        return [(kind, lambda t=text, e=exp: self.job(t, e))
                for kind, text, exp in order]

    def warmup_round(self):
        return [(kind, lambda t=text, e=exp: self.job(t, e))
                for kind, text, exp in self.warmup]

    def job(self, text, expect):
        base, words = fileio.tiling_from_json(json.loads(text))
        try:
            t = covers.tile_by_words(base, words)
            a = covers.analyze_cover(t)
        except covers.CoverError as exc:
            return Output(nbytes=len(text), base=base, words=words,
                          refused=str(exc), analysis=None, expect=expect,
                          text=None)
        verdict = covers.appropriate_verdict(a)
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
        out_text = json.dumps(doc)
        return Output(nbytes=len(text) + len(out_text), base=base, words=words,
                      refused=None, analysis=a, expect=expect, text=out_text)

    def check(self, kind, out):
        exp = out.expect
        problems = []
        if out.words != exp["words"]:
            problems.append("words changed in the JSON round trip")
        if len(out.base.edges) != len(exp["base"].edges) or any(
            e1.direction != e2.direction or not (e1.length - e2.length).is_zero
            for e1, e2 in zip(out.base.edges, exp["base"].edges)
        ):
            problems.append("base changed in the JSON round trip")
        layout = exp["layout"]
        if not layout.valid:
            if out.refused is None:
                problems.append(f"{kind}: invalid tiling ({layout.reason}) accepted")
            return problems
        if out.refused is not None:
            return problems + [f"{kind}: valid tiling refused: {out.refused}"]
        doc = json.loads(out.text)
        fb = exp["base_float"]
        g_P, N_P = checks.angle_genus(fb.angles)
        g_Q, N_Q = checks.angle_genus([s for _, s in layout.outline_vertices()])
        n = len(exp["words"])
        ram = [e for bp in doc["branch_points"] for e in bp["ramification_indices"]]
        problems += checks.check_genus(fb.angles, doc["genus_base"])
        problems += checks.check_genus(
            [s for _, s in layout.outline_vertices()], doc["genus_cover"]
        )
        problems += checks.check_riemann_hurwitz(
            2 - 2 * g_Q, doc["degree"], 2 - 2 * g_P, ram
        )
        if doc["copies"] != n or n != doc["degree"] * doc["subgroup_index"]:
            problems.append(
                f"{kind}: {n} copies, degree {doc['degree']} x index "
                f"{doc['subgroup_index']}"
            )
        if doc["degree"] * N_P != n * N_Q:
            problems.append(f"{kind}: degree {doc['degree']} != n*N_Q/N_P")
        points = [
            (float(x), float(y)) for x, y in out.analysis.tiling.outline_points
        ]
        problems += checks.check_outline_area(points, n, fb.area)
        return problems

    def finish(self):
        return []


WORKLOADS = {"certify": Certify, "search": Search, "covers": Covers}
