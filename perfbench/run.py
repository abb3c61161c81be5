"""Run one workload of the flatbilliards benchmark and print its metrics.

    python3 perfbench/run.py --workload certify|search|covers \
        --seed N --seconds S --trace 0|1

One process with one client in a closed loop: jobs run back to back on
one thread, each built fresh from inputs the seed generates.  Every job
kind runs once untimed first, so that module-level caches are warm.
Then whole rounds of jobs run until S seconds have passed; each round's
outputs are checked after the round, outside the timed region.

Every reported time is divided by a host factor that a calibration
kernel measures while the job runs (see calibration.py): the figures
are seconds on a host of a fixed reference speed.  The raw latencies
and the kernel's pass times go to the record file.

With --trace 0 the last line of standard output is one JSON object
with the end-to-end metrics; with --trace 1 it carries the per-layer
metrics, taken on every other round with the program's public functions
wrapped (see tracing.py), and the tracing overhead against the untraced
rounds in between.  A copy of the result, with every job latency, goes
to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"


def seconds_since_process_start():
    """Time this process spent before the call, from /proc (10 ms
    resolution); 0.0 where /proc cannot tell."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start_ticks = int(fields[19])  # field 22, starttime
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("certify", "search", "covers"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="smallest inputs of the workload (for tests)")
    return ap.parse_args(argv)


def import_program():
    """Import the program from the checkout's own source tree."""
    if not (SRC / "flatbilliards" / "__init__.py").is_file():
        raise ImportError(f"no flatbilliards source under {SRC}")
    sys.path.insert(0, str(SRC))
    import flatbilliards

    if not Path(flatbilliards.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"flatbilliards imported from {flatbilliards.__file__}")
    return flatbilliards


def run_job(job):
    try:
        return job()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def main(argv=None):
    before = seconds_since_process_start()
    t0 = time.perf_counter()
    args = parse_args(argv)
    try:
        program = import_program()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from calibration import HostSampler

    sampler = HostSampler()
    sampler.start()
    try:
        return measure(args, program, sampler, before, t0)
    finally:
        sampler.stop()


def measure(args, program, sampler, before, t0):
    import workloads
    from calibration import host_factor
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, small=args.small)
    warmup = [(kind, run_job(job)) for kind, job in wl.warmup_round()]
    setup_raw = before + (time.perf_counter() - t0) - sampler.stolen
    setup_s = setup_raw / host_factor(sampler.pass_time_since(0))
    sampler.stop()
    problems = []
    for kind, out in warmup:
        if out is None:
            problems.append(f"warm-up job {kind} raised")
        else:
            problems += wl.check(kind, out)

    tracer = Tracer() if args.trace else None
    jobs = []  # (kind, raw latency, mean kernel pass time, traced)
    attempted = failed = 0
    start = time.perf_counter()
    rounds = 0
    while True:
        done = time.perf_counter() - start >= args.seconds
        traced_seen = {j[3] for j in jobs}
        if rounds and done and (tracer is None or traced_seen == {False, True}):
            break
        traced = tracer is not None and rounds % 2 == 0
        outputs = []
        sampler.start()
        for kind, job in wl.round():
            if traced:
                tracer.install()
            first, stolen = len(sampler.samples), sampler.stolen
            t = time.perf_counter()
            out = run_job(job)
            dt = time.perf_counter() - t - (sampler.stolen - stolen)
            pass_s = sampler.pass_time_since(first)
            if traced:
                tracer.uninstall()
                tracer.end_job(pass_s, out.nbytes if out else 0)
            jobs.append((str(kind), dt, pass_s, traced))
            outputs.append((kind, out))
        sampler.stop()
        attempted += len(outputs)
        for kind, out in outputs:
            if out is None:
                failed += 1
            else:
                problems += wl.check(kind, out)
        rounds += 1
    problems += wl.finish()

    normalized = [dt / host_factor(p) for _, dt, p, _ in jobs]
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "job_p50_s": {"value": statistics.median(normalized), "unit": "s"},
            "jobs_per_s": {
                "value": (attempted - failed) / sum(normalized),
                "unit": "1/s",
            },
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    else:
        def mean_normalized(traced):
            return statistics.fmean(
                dt / host_factor(p) for _, dt, p, t in jobs if t == traced
            )

        overhead = 100.0 * (mean_normalized(True) / mean_normalized(False) - 1.0)
        metrics = tracer.per_job(overhead)

    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  kernel=program.KERNEL, setup_raw_s=setup_raw, rounds=rounds,
                  jobs=jobs, problems=problems)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
