"""jetforge benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload lift_solve --seed 1 --seconds 30 --trace 0

Imports jetforge and builds the workload's inputs from the seed, each
three times (`setup_s` is the median import plus the median build),
then runs the fixed job list in rounds, one job at a time, until the
next round would end past `--seconds` (at least one round).  Outputs are checked after each round,
outside the timed region; a job fails if it raises or its check fails.

Every time metric is corrected for the machine's drifting speed by the
in-process probe of speed.py: at reference speed it is the wall time.

With `--trace 0` the last stdout line reports the end-to-end metrics:
`wall_s`, the median time of one round; `job_p50_ms` and `job_p90_ms`,
quantiles over every job of every round; `setup_s` and `peak_rss_mb`.
With `--trace 1`, rounds alternate untraced and traced, and the line
reports the per-layer metrics of the traced rounds (see tracer.py) with
`trace_overhead_ratio`, the median traced over the median untraced
round time.  The line before it describes the run: git sha, Python
version, nproc, CPU model, job count, and corrected and raw round times.

Exit code 0 means the run finished, whatever its checks found (the
result line says); 2 means the benchmark could not run here.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

from speed import SpeedMeter
from tracer import PER_LAYER, Tracer, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3


def import_jetforge(meter):
    """Import the package from this checkout's src/ SETUP_REPEATS times,
    each from scratch; returns the corrected seconds of each import."""
    sys.path.insert(0, SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n.split(".")[0] == "jetforge"]:
            del sys.modules[name]
        t0 = time.perf_counter()
        jetforge = importlib.import_module("jetforge")
        times.append(meter.corrected(t0, time.perf_counter()))
    where = os.path.dirname(os.path.abspath(jetforge.__file__))
    if where != os.path.join(SRC, "jetforge"):
        raise ImportError("jetforge imported from %s, not from %s" % (where, SRC))
    return times


def git_sha():
    """HEAD of the checkout's git repository, read from .git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def quantile(values, q):
    """Linear-interpolation quantile (statistics.quantiles, inclusive)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


class Round:
    """One pass over the job list: corrected and raw seconds."""

    def __init__(self, job_times, raw_wall, factor, tracer):
        self.job_times = job_times
        self.wall = sum(job_times)
        self.raw_wall = raw_wall
        self.factor = factor
        self.tracer = tracer


def run_round(jobs, meter, tracer=None):
    """Run every job once, then check the outputs; returns (Round,
    number of failed jobs)."""
    gc.collect()
    results = []
    spans = []
    with tracer or contextlib.nullcontext():
        for job in jobs:
            t0 = time.perf_counter()
            try:
                results.append((job.run(), None))
            except Exception:
                results.append((None, traceback.format_exc()))
            spans.append((t0, time.perf_counter()))
    start, end = spans[0][0], spans[-1][1]
    rnd = Round([meter.corrected(t0, t1) for t0, t1 in spans], end - start,
                meter.factor(start, end), tracer)
    failures = 0
    for job, (out, err) in zip(jobs, results):
        if err is None:
            try:
                err = job.check(out)
            except Exception:
                err = traceback.format_exc()
        if err is not None:
            failures += 1
            print("FAILED %s: %s" % (job.label, err), file=sys.stderr)
    return rnd, failures


def measure(jobs, seconds, meter, trace):
    """Rounds until the next one would end past `seconds`; with `trace`,
    rounds alternate untraced and traced (a fresh Tracer each), at least
    one of each.  Returns (untraced rounds, traced rounds, failures)."""
    plain, traced = [], []
    failures = 0
    start = time.perf_counter()
    while True:
        use_tracer = trace and len(traced) < len(plain)
        rnd, failed = run_round(jobs, meter, Tracer() if use_tracer else None)
        (traced if use_tracer else plain).append(rnd)
        failures += failed
        if trace and not traced:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (len(plain) + len(traced)) > seconds:
            return plain, traced, failures


def run(args, meter):
    try:
        imports = import_jetforge(meter)
        import workloads
    except ImportError as err:
        print("error: cannot import jetforge from %s: %s" % (SRC, err), file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (have %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]

    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        try:
            jobs = build(args.seed)
        except OSError as err:
            print("error: cannot build %s inputs: %s" % (args.workload, err), file=sys.stderr)
            return 2
        builds.append(meter.corrected(t0, time.perf_counter()))

    plain, traced, failures = measure(jobs, args.seconds, meter, args.trace == 1)
    plain_wall = statistics.median(r.wall for r in plain)
    if traced:
        metrics = layer_metrics([(r.tracer, r.factor) for r in traced])
        metrics["trace_overhead_ratio"] = statistics.median(r.wall for r in traced) / plain_wall
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        job_times = [t for r in plain for t in r.job_times]
        metrics = {
            "wall_s": plain_wall,
            "job_p50_ms": 1000 * quantile(job_times, 0.5),
            "job_p90_ms": 1000 * quantile(job_times, 0.9),
            "setup_s": statistics.median(imports) + statistics.median(builds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "jobs_per_round": len(jobs), "rounds": len(plain), "traced_rounds": len(traced),
        "round_wall_s": [r.wall for r in plain], "round_raw_wall_s": [r.raw_wall for r in plain],
        "round_speed_factor": [r.factor for r in plain],
        "traced_round_wall_s": [r.wall for r in traced],
        "setup_imports_s": imports, "setup_builds_s": builds,
    }))
    print(json.dumps({
        "correct": failures == 0,
        "attempted": len(jobs) * (len(plain) + len(traced)),
        "failed": failures,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    with SpeedMeter() as meter:
        return run(args, meter)


if __name__ == "__main__":
    sys.exit(main())
