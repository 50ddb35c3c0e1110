"""The jetforge command line: problem files in, reports out.

A problem file declares a chart, an operator (directly or through a
metric), and optionally a list of queries.  Each command runs the
queries of its kind, or a default one when the file declares none.
Reports render as text or as canonical JSON that is byte-identical
across repeated seeded runs.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

JETFORGE = ([shutil.which("jetforge")] if shutil.which("jetforge")
            else [sys.executable, "-m", "jetforge"])

PROBLEM = """\
base m = 2;
fiber n = 1;
order k = 2;
metric { g[1][1] = 1 - x2^2/4; g[2][2] = -1 - x1^2/4; }
operator h = klein_gordon(F1=1, F2=1, K=z^3);
query integrability();
query solve(5);
query spencer(pmax=2, qmax=4);
"""


def run(args):
    print("$ jetforge " + " ".join(args))
    proc = subprocess.run([*JETFORGE, *args], capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.stderr:
        sys.stdout.write(proc.stderr)
    print("(exit %d)\n" % proc.returncode)
    return proc


with tempfile.TemporaryDirectory() as td:
    path = os.path.join(td, "kg.jf")
    with open(path, "w") as fh:
        fh.write(PROBLEM)

    run(["integrability", path])
    run(["solve", path, "--free-data", "random", "--seed", "7"])

    out = os.path.join(td, "report.json")
    p1 = run(["spencer", path, "--json", out])
    blob1 = open(out, "rb").read()
    run(["spencer", path, "--json", out])
    blob2 = open(out, "rb").read()
    assert blob1 == blob2
    print("JSON reports are byte-identical across runs;",
          "schema:", json.loads(blob1)["schema"])
