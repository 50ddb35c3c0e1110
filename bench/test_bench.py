"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

They check that the tracer's call counts agree with cProfile, that the
speed meter samples while installed, that the tower_split output check
refuses a wrong splitting, that a
seed other than the one the benchmark was written with runs without a
failed job, that the metric names match BENCHMARK.json, and that the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction as Q

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from jetforge import spencer as sp  # noqa: E402
from jetforge import symexpr as sx  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _small_jobs():
    """Small jobs that together reach every traced function."""
    rng = random.Random("validation")
    lift = wl.build_lift_solve(0)[0]
    V = wl.random_surjective_tower(rng, (1, 2, 2, 3))
    W = wl.random_surjective_tower(rng, (1, 1, 2, 2))
    wave = wl._wave(2)
    chart = wave.chart()
    origin = wl.jc.JetPoint(chart, (Q(0), Q(0)), {(1, I): Q(0) for I in chart.jet_indices()})
    cli_runs = [("symbol", "cubic.jf"), ("integrability", "wave2.jf"),
                ("integrability", "tower3.jf"), ("tower", "tower3.jf"),
                ("solve", "tower3.jf")]
    return [
        lift.run,
        lambda: wl.pfd.tensor_tower(V, W),
        lambda: sp.cohomology_dims(sp.symbolic_system_at(wave, origin), 2, 3),
    ] + [lambda c=command, f=name: wl.run_cli(wl.cli_argv(c, os.path.join(wl.CORPUS_DIR, f), 1))
         for command, name in cli_runs]


def _originals():
    """prefix -> original functions, as the tracer finds them."""
    return {prefix: [tr.resolve(modname, path)[2] for modname, path, _ in targets]
            for prefix, targets in tr.TRACED.items()}


def test_tracer_calls_match_cprofile(monkeypatch):
    monkeypatch.chdir(ROOT)
    jobs = _small_jobs()
    with tr.Tracer() as tracer:
        for job in jobs:
            job()
    traced = {prefix: stat[0] for prefix, stat in tracer.stats.items()}

    prof = cProfile.Profile()
    prof.enable()
    for job in jobs:
        job()
    prof.disable()
    stats = pstats.Stats(prof).stats
    profiled = {}
    for prefix, fns in _originals().items():
        profiled[prefix] = 0
        for fn in fns:
            code = fn.__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            profiled[prefix] += stats[key][1] if key in stats else 0
    assert traced == profiled
    assert all(traced.values()), [p for p, n in traced.items() if not n]


def test_tracer_restores_bindings():
    differentiate, rank = sx.differentiate, sp.RationalMatrix.rank
    with tr.Tracer():
        assert sx.differentiate is not differentiate
        assert wl.jc.differentiate is sx.differentiate
        assert sp.RationalMatrix.rank is not rank
    assert sx.differentiate is differentiate and wl.jc.differentiate is differentiate
    assert sp.RationalMatrix.rank is rank


def test_speed_meter_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedMeter() as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    lo, hi = meter._span(t0, t1)
    assert hi - lo >= 3
    raw = t1 - t0 - sum(meter.durations[lo:hi])
    assert meter.corrected(t0, t1) == raw / meter.factor(t0, t1)


def test_tower_check_catches_a_wrong_splitting():
    rng = random.Random("tamper")
    V = wl.random_surjective_tower(rng, (1, 2, 2, 3))
    W = wl.random_surjective_tower(rng, (1, 1, 2, 3))
    assert wl.check_tensor_tower(wl.pfd.tensor_tower(V, W), V, W) is None
    for part, level in (("sections", 3), ("kernel_bases", 3), ("lifts", 2)):
        res = wl.pfd.tensor_tower(V, W)
        mats = getattr(res.diagonal, part)
        rows = [list(r) for r in mats[level].rows]
        rows[0][0] += 1
        mats[level] = sp.RationalMatrix(rows)
        assert "diagonal splitting" in wl.check_tensor_tower(res, V, W)
    res = wl.pfd.tensor_tower(V, W)
    res.tensor.steps[0] = sp.RationalMatrix([[Q(0)] * res.tensor.dims[1]])
    assert "Kronecker" in wl.check_tensor_tower(res, V, W)


def _run(workload, seed, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_second_seed_runs_without_failures(workload):
    proc = _run(workload, 2, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = _run("cli_corpus", 1, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tr.PER_LAYER)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("lift_solve", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
