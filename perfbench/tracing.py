"""Per-layer tracing by wrapping the program's public functions.

`Tracer.install()` replaces each traced function or method with a
wrapper that counts calls and times them; `uninstall()` puts the
originals back, so untraced rounds run the unmodified program.  A
function imported by name into another module of the package (say
`from .flow import cylinder_decomposition`) is replaced there too.

Times are taken at the outermost call of each timer only, so a
predicate that calls another predicate is not counted twice.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

from calibration import host_factor

from flatbilliards import (
    _kernel,
    catalog,
    covers,
    cyclotomic,
    fileio,
    flow,
    periodicity,
    planar,
    search,
    unfolding,
)

_PRUNE_TAGS = (
    "angle overflow",
    "pinched",
    "locked even angle",
    "locked periodic branch",
    "locked two branch points",
    "infinite forcing",
)

# the per-layer metrics a traced run reports, with their units
METRICS = {
    "cyclotomic.inverse_calls": "count",
    "cyclotomic.inverse_s": "s",
    "cyclotomic.sign_calls": "count",
    "cyclotomic.interval_evals": "count",
    "cyclotomic.interval_s": "s",
    "cyclotomic.key_calls": "count",
    "cyclotomic.key_s": "s",
    "cyclotomic.mul_calls": "count",
    "kernel.mul_reduced_calls": "count",
    "kernel.mul_reduced_s": "s",
    "planar.orient_calls": "count",
    "planar.predicate_s": "s",
    "unfolding.unfold_calls": "count",
    "unfolding.unfold_s": "s",
    "catalog.make_entry_s": "s",
    "flow.decompositions": "count",
    "flow.decomposition_s": "s",
    "flow.inverse_share_pct": "%",
    "flow.not_shown_periodic": "count",
    "flow.height_splits": "count",
    "flow.height_split_s": "s",
    "flow.cylinders": "count",
    "periodicity.classify_calls": "count",
    "periodicity.classify_s": "s",
    "periodicity.non_periodic_verdicts": "count",
    "periodicity.unknown_verdicts": "count",
    "periodicity.repeat_decompositions": "count",
    "covers.verify_calls": "count",
    "covers.verify_s": "s",
    "covers.analyze_calls": "count",
    "covers.analyze_s": "s",
    "covers.verdict_s": "s",
    "covers.refused": "count",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.prunes": "count",
    "search.self_s": "s",
    "search.exact_confirm_s": "s",
    "fileio.parse_s": "s",
    "fileio.emit_s": "s",
    "fileio.bytes": "B",
    "trace.overhead_pct": "%",
    "host.calibration_ms": "ms",
}


class Tracer:
    """Counters and timers for the calls made while installed."""

    def __init__(self):
        self.job = defaultdict(float)  # the running job's counts and times
        self.totals = defaultdict(float)
        self.jobs = 0
        self._depth = defaultdict(int)
        self._saved = []
        self._decomposed = {}

    # -- job boundaries ----------------------------------------------------

    def end_job(self, pass_s, nbytes):
        """Fold the job into the totals, its times divided by the host
        factor of the kernel pass time measured meanwhile (see
        calibration.py)."""
        factor = host_factor(pass_s)
        self.job["fileio.bytes"] += nbytes
        for name, value in self.job.items():
            self.totals[name] += value / factor if name.endswith("_s") else value
        self.totals["host.calibration_ms"] += pass_s * 1e3
        self.jobs += 1
        self.job.clear()
        self._decomposed = {}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, count=None, timer=None, group=None, on_enter=None,
              on_result=None, on_error=None, on_exit=None):
        totals = self.job
        depth = self._depth

        def wrapper(*args, **kwargs):
            if count is not None:
                totals[count] += 1
            if on_enter is not None:
                on_enter(args)
            if timer is None and group is None:
                return fn(*args, **kwargs)
            if timer is not None:
                depth[timer] += 1
            if group is not None:
                depth[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            else:
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                dt = perf_counter() - t0
                if timer is not None:
                    depth[timer] -= 1
                    if depth[timer] == 0:
                        totals[timer] += dt
                if group is not None:
                    depth[group] -= 1
                    if depth[group] == 0 and on_exit is not None:
                        on_exit(dt)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, name, wrapper):
        """Swap owner.name for wrapper, and the same function wherever
        another module of the package imported it by name."""
        original = getattr(owner, name)
        targets = [owner]
        if callable(original) and not isinstance(owner, type):
            for mod_name, mod in list(sys.modules.items()):
                if (
                    mod_name.startswith("flatbilliards")
                    and mod is not owner
                    and getattr(mod, name, None) is original
                ):
                    targets.append(mod)
        for target in targets:
            self._saved.append((target, name, original))
            setattr(target, name, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        R = cyclotomic.CyclotomicReal
        w = self._wrap
        depth = self._depth
        totals = self.job

        def inverse_exit(dt):
            if depth["flow.decomposition_s"]:
                totals["flow.inverse_in_decomposition_s"] += dt

        self._replace(R, "inverse", w(
            R.inverse, "cyclotomic.inverse_calls", "cyclotomic.inverse_s",
            group="inverse", on_exit=inverse_exit))
        self._replace(R, "sign", w(R.sign, "cyclotomic.sign_calls"))
        self._replace(cyclotomic, "_eval_interval", w(
            cyclotomic._eval_interval, "cyclotomic.interval_evals",
            "cyclotomic.interval_s"))
        self._replace(R, "key", w(
            R.key, "cyclotomic.key_calls", "cyclotomic.key_s"))
        self._replace(R, "__mul__", w(R.__mul__, "cyclotomic.mul_calls"))
        self._replace(R, "__rmul__", w(R.__rmul__, "cyclotomic.mul_calls"))
        self._replace(_kernel, "mul_reduced", w(
            _kernel.mul_reduced, "kernel.mul_reduced_calls",
            "kernel.mul_reduced_s"))

        self._replace(planar, "orient", w(
            planar.orient, "planar.orient_calls", "planar.predicate_s"))
        for name in ("on_segment", "segments_overlap_info", "point_in_polygon"):
            self._replace(planar, name, w(
                getattr(planar, name), timer="planar.predicate_s"))

        self._replace(unfolding, "unfold", w(
            unfolding.unfold, "unfolding.unfold_calls", "unfolding.unfold_s"))
        self._replace(catalog, "make_entry", w(
            catalog.make_entry, timer="catalog.make_entry_s"))

        def decomposition_enter(args):
            M, theta = args[0], Fraction(args[1]) % 2
            key = (id(M), theta)
            if key in self._decomposed:
                totals["periodicity.repeat_decompositions"] += 1
            self._decomposed[key] = M  # keeps id(M) from being reused

        def decomposition_result(dec):
            totals["flow.cylinders"] += len(dec.cylinders)

        def decomposition_error(exc):
            if isinstance(exc, flow.NotShownPeriodic):
                totals["flow.not_shown_periodic"] += 1

        self._replace(flow, "cylinder_decomposition", w(
            flow.cylinder_decomposition, "flow.decompositions",
            "flow.decomposition_s", on_enter=decomposition_enter,
            on_result=decomposition_result, on_error=decomposition_error))
        self._replace(flow, "height_split", w(
            flow.height_split, "flow.height_splits", "flow.height_split_s"))

        def confirm_exit(dt):
            if depth["search.total_s"]:
                totals["search.exact_confirm_s"] += dt

        def verdict_result(v):
            if v.status == "non_periodic":
                totals["periodicity.non_periodic_verdicts"] += 1
            elif v.status == "unknown":
                totals["periodicity.unknown_verdicts"] += 1

        self._replace(periodicity, "classify_point", w(
            periodicity.classify_point, "periodicity.classify_calls",
            "periodicity.classify_s", group="confirm",
            on_result=verdict_result, on_exit=confirm_exit))

        def refused(exc):
            if isinstance(exc, covers.CoverError):
                totals["covers.refused"] += 1

        self._replace(covers, "verify_tiling", w(
            covers.verify_tiling, "covers.verify_calls", "covers.verify_s",
            group="confirm", on_error=refused, on_exit=confirm_exit))
        self._replace(covers, "analyze_cover", w(
            covers.analyze_cover, "covers.analyze_calls", "covers.analyze_s",
            group="confirm", on_error=refused, on_exit=confirm_exit))
        self._replace(covers, "appropriate_verdict", w(
            covers.appropriate_verdict, timer="covers.verdict_s",
            group="confirm", on_exit=confirm_exit))
        # tile_by_words reaches verify_tiling through the module global,
        # but its own motion building also counts as exact confirmation
        self._replace(covers, "tile_by_words", w(
            covers.tile_by_words, group="confirm", on_exit=confirm_exit))

        def search_result(report):
            stats = report.statistics
            totals["search.nodes"] += stats.get("nodes", 0)
            totals["search.prunes"] += sum(stats.get(t, 0) for t in _PRUNE_TAGS)

        self._replace(search, "search_appropriate", w(
            search.search_appropriate, timer="search.total_s",
            on_result=search_result))

        for name in ("tiling_from_json", "polygon_from_json", "cyc_from_json"):
            self._replace(fileio, name, w(
                getattr(fileio, name), timer="fileio.parse_s"))
        for name in ("cyc_to_json", "polygon_to_json", "tiling_to_json"):
            self._replace(fileio, name, w(
                getattr(fileio, name), timer="fileio.emit_s"))

    def uninstall(self):
        for target, name, original in reversed(self._saved):
            setattr(target, name, original)
        self._saved = []

    # -- report --------------------------------------------------------------

    def per_job(self, overhead_pct):
        """Every per-layer metric as a mean per traced job."""
        t = self.totals
        jobs = max(self.jobs, 1)
        out = {name: t.get(name, 0.0) / jobs for name in METRICS}
        search_s = t.get("search.total_s", 0.0)
        confirm_s = t.get("search.exact_confirm_s", 0.0)
        out["search.self_s"] = (search_s - confirm_s) / jobs
        out["search.nodes_per_s"] = (
            t.get("search.nodes", 0.0) / search_s if search_s else 0.0
        )
        dec_s = t.get("flow.decomposition_s", 0.0)
        out["flow.inverse_share_pct"] = (
            100.0 * t.get("flow.inverse_in_decomposition_s", 0.0) / dec_s
            if dec_s else 0.0
        )
        out["trace.overhead_pct"] = overhead_pct
        return {name: {"value": out[name], "unit": unit}
                for name, unit in METRICS.items()}
