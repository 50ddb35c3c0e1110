"""Run-to-run spread of the end-to-end metrics, one process per run.

    python3 bench/spread.py --workloads lift_solve cli_corpus --seeds 1-10

Runs `bench/run.py` once per (workload, seed), one run at a time, with
the `run_seconds` of BENCHMARK.json, and prints for each metric its
median, its quartiles (statistics.quantiles, n=4) and the spread: the
interquartile distance as a share of the median, next to a third of the
metric's bound.  `--out FILE` also writes, per workload, these figures
and every run's description and result lines as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            *_, info, result = [json.loads(line) for line in proc.stdout.strip().splitlines()]
            runs.append({"run": info, "result": result})
            print("%s seed %d: correct=%s %s" % (
                workload, seed, result["correct"],
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
            print("  %-12s median %-10.5g q1 %-10.5g q3 %-10.5g spread %.3f (bound/3 %.3f)" % (
                name, med, q1, q3, (q3 - q1) / med, bound / 3), flush=True)
        record[workload] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
