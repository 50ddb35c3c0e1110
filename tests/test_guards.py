"""Guards on code outside the package that depends on its names: the
benchmark tracer's targets and the demo scripts."""

import glob
import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location("bench_tracer", os.path.join(ROOT, "bench", "tracer.py"))
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("prefix", sorted(tracer.TRACED))
def test_traced_target_resolves(prefix):
    for modname, path, _ in tracer.TRACED[prefix]:
        owner, attr, fn = tracer.resolve(modname, path)
        assert callable(fn), (prefix, path)


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, demo], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
