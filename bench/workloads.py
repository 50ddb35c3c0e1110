"""The benchmark's four workloads, built from a workload seed.

Each builder takes the seed and returns the workload's fixed job list.
A job is one timed top-level call into jetforge's public API plus an
output check that runs outside the timed region and returns None when
the output is right, or a message saying what is wrong.  Every random
input comes from `random.Random("<workload>:<seed>")`; the shapes and
sizes are fixed, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from math import comb
from typing import Callable

from jetforge import cli
from jetforge import formal as fm
from jetforge import integrability as ig
from jetforge import jetcalc as jc
from jetforge import pfd
from jetforge import spencer as sp
from jetforge import symexpr as sx
from jetforge.mindex import MultiIndex

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join("tests", "corpus")
CLI_GOLDEN = os.path.join(HERE, "cli_golden.json")
# the CLI's own default seed; its reports are pinned by sha256
CLI_DEFAULT_SEED = 0


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def dim_g_scalar(m, k, q):
    """Closed-form dim g_q of one scalar order-k equation in m variables."""
    return comb(m + q - 1, m - 1) - (comb(m + q - k - 1, m - 1) if q >= k else 0)


# ---------------------------------------------------------------------------
# spencer_tables


def _wave(m):
    comp = sx.jet(1, tuple(2 if j == 0 else 0 for j in range(m)))
    for i in range(1, m):
        comp = comp - sx.jet(1, tuple(2 if j == i else 0 for j in range(m)))
    return jc.DiffOp(m, 1, 2, [comp])


def _offdiag_metric_3d():
    # diagonally dominant on |x_i| <= 1, so nondegenerate at every
    # sampled base point; the off-diagonal entries make the symbol dense
    x1, x2, x3 = sx.base(1), sx.base(2), sx.base(3)
    return ig.MetricSpec(3, {
        (1, 1): sx.ONE + x2 ** 2 * Q(1, 4),
        (2, 2): sx.as_expr(Q(-1)) - x1 ** 2 * Q(1, 4),
        (3, 3): sx.as_expr(Q(-1)) + x1 * x2 * Q(1, 8),
        (1, 2): x3 * Q(1, 3), (2, 1): x3 * Q(1, 3),
        (1, 3): x1 * x2 * Q(1, 5), (3, 1): x1 * x2 * Q(1, 5),
        (2, 3): Q(1, 7) + x2 * Q(1, 6), (3, 2): Q(1, 7) + x2 * Q(1, 6),
    })


def _table_job(label, h, a, pmax, qmax):
    def run():
        g = sp.symbolic_system_at(h, a)
        return g, sp.cohomology_dims(g, pmax, qmax)

    def check(out):
        g, table = out
        m, k = h.m, h.order
        for q in range(0, qmax + 2):
            if g.dim_g(q) != dim_g_scalar(m, k, q):
                return "dim g_%d = %d, closed form %d" % (q, g.dim_g(q), dim_g_scalar(m, k, q))
        if table[(0, 0)] != 1 or table[(1, 1)] != 1:
            return "H^{0,0} = %d, H^{1,1} = %d, want 1, 1" % (table[(0, 0)], table[(1, 1)])
        bad = sorted(key for key, v in table.items() if key[1] >= k and v != 0)
        if bad:
            return "H^{p,q} nonzero for q >= %d at %s" % (k, bad)
        return None

    return Job(label, run, check)


def build_spencer_tables(seed):
    rng = random.Random("spencer_tables:%d" % seed)
    wave = _wave(4)
    chart = wave.chart()
    origin = jc.JetPoint(chart, (Q(0),) * 4,
                         {(1, I): Q(0) for I in chart.jet_indices()})
    kg = ig.make_klein_gordon(_offdiag_metric_3d(), F1=1, F2=1, K=lambda e: e ** 3)
    chart = kg.chart()
    base = tuple(sx.random_rational(rng, 4) / 4 for _ in range(3))
    point = jc.JetPoint(chart, base,
                        {(1, I): sx.random_rational(rng, 4) for I in chart.jet_indices()})
    return [
        _table_job("wave m=4", wave, origin, 4, 5),
        _table_job("klein_gordon m=3", kg, point, 3, 6),
    ]


# ---------------------------------------------------------------------------
# lift_solve


def _curved_metric_4d():
    # equals the signature matrix with vanishing first derivatives at the
    # origin, so the origin is a normal-coordinate point
    x1, x2 = sx.base(1), sx.base(2)
    return ig.MetricSpec(4, {
        (1, 1): sx.ONE - x2 ** 2,
        (2, 2): sx.as_expr(Q(-1)) - x1 ** 2,
        (3, 3): sx.as_expr(Q(-1)),
        (4, 4): sx.as_expr(Q(-1)),
    })


def _kernel_seed_m4(h, rng, base):
    # a random 2-jet pushed onto ker h by solving for u_(2,0,0,0); valid
    # where the metric equals the signature matrix
    chart = h.chart()
    jets = {(1, I): sx.random_rational(rng, 4) for I in chart.jet_indices()}
    u0 = jets[(1, MultiIndex((0, 0, 0, 0)))]
    rest = sum(jets[(1, MultiIndex(tuple(2 if j == i else 0 for j in range(4))))]
               for i in range(1, 4))
    jets[(1, MultiIndex((2, 0, 0, 0)))] = rest - u0 - u0 ** 3
    return jc.JetPoint(chart, base, jets)


def _expected_lift_table(b, brackets):
    # closed form of the zero-free-data lift at a normal-coordinate
    # point: the slots 2e_1 + e_l carry (bracket_l - 1 - K'(u_0)) u_{e_l},
    # every other new third-order slot is zero
    u0 = b[(1, MultiIndex((0, 0, 0, 0)))]
    kprime = 3 * u0 ** 2
    table = {I: Q(0) for I in jc.JetChartSpec(4, 1, 3).jet_indices() if I.degree == 3}
    e1 = MultiIndex.unit(4, 1)
    for l in range(1, 5):
        el = MultiIndex.unit(4, l)
        table[e1.add(e1).add(el)] = (brackets[l] - 1 - kprime) * b[(1, el)]
    return table


def _one_step_job(label, h, b, brackets):
    def check(res):
        for I, v in _expected_lift_table(b, brackets).items():
            if res.point[(1, I)] != v:
                return "lift slot %s = %s, closed form %s" % (I, res.point[(1, I)], v)
        if res.point.project(2) != b:
            return "lift changed the 2-jet it started from"
        return None

    return Job(label, lambda: ig.lift_point(h, b, policy="zero"), check)


def _two_step_job(label, h, b, prolonged):
    def run():
        return ig.lift_point(h, ig.lift_point(h, b).point)

    def check(res):
        if res.point.project(2) != b:
            return "lift changed the 2-jet it started from"
        if "op" not in prolonged:
            prolonged["op"] = jc.prolong_op(h, 2)
        vals = prolonged["op"].evaluate_at(res.point)
        if any(v != 0 for v in vals):
            return "depth-2 lift leaves a nonzero prolonged residual"
        return None

    return Job(label, run, check)


def _formal_job(h, seed_pt, order, depth, seed):
    def run():
        sol = fm.formal_solve(h, seed_pt, order, policy="random", seed=seed)
        return sol, fm.verify_residual(sol, depth, mode="exact")

    def check(out):
        sol, rep = out
        if not rep.passed or any(v != 0 for v in rep.values):
            return "formal solution leaves a nonzero residual"
        want = [dim_g_scalar(h.m, h.order, q) for q in range(h.order + 1, order + 1)]
        if sol.free_counts != want:
            return "free_counts %s, dim g_q %s" % (sol.free_counts, want)
        return None

    return Job("formal_solve order %d" % order, run, check)


def build_lift_solve(seed):
    rng = random.Random("lift_solve:%d" % seed)
    cubic = lambda e: e ** 3
    curved = ig.make_klein_gordon(_curved_metric_4d(), F1=1, F2=1, K=cubic)
    flat = ig.make_klein_gordon(ig.MetricSpec.minkowski(4), F1=1, F2=1, K=cubic)
    curved_brackets = {1: Q(-1), 2: Q(-1), 3: Q(0), 4: Q(0)}
    flat_brackets = {1: Q(0), 2: Q(0), 3: Q(0), 4: Q(0)}
    origin = (Q(0),) * 4
    jobs = []
    # the criterion-1 mix: 70 curved lifts at the normal-coordinate
    # point, 30 flat lifts at random base points
    for s in range(70):
        b = _kernel_seed_m4(curved, rng, origin)
        jobs.append(_one_step_job("curved lift %d" % s, curved, b, curved_brackets))
    for s in range(30):
        base = tuple(sx.random_rational(rng, 3) for _ in range(4))
        b = _kernel_seed_m4(flat, rng, base)
        jobs.append(_one_step_job("flat lift %d" % s, flat, b, flat_brackets))
    # twenty two-step lifts put the job p90 near the middle of this group
    prolonged = {}
    for s in range(20):
        b = _kernel_seed_m4(curved, rng, origin)
        jobs.append(_two_step_job("curved depth-2 lift %d" % s, curved, b, prolonged))
    x1, x2 = sx.base(1), sx.base(2)
    metric_2d = ig.MetricSpec(2, {(1, 1): sx.ONE - x2 ** 2 * Q(1, 4),
                                  (2, 2): sx.as_expr(Q(-1)) - x1 ** 2 * Q(1, 4)})
    kg2 = ig.make_klein_gordon(metric_2d, F1=1, F2=1, K=cubic)
    seed_pt = ig.sample_prolonged_points(kg2, 0, 1, seed="lift_solve:%d" % seed)[0]
    jobs.append(_formal_job(kg2, seed_pt, 7, 4, "lift_solve:%d" % seed))
    return jobs


# ---------------------------------------------------------------------------
# tower_split

# fixed level dimensions (1..5, ten levels) so every seed does the same
# work; the seed draws the step entries
TOWER_PAIRS = (
    ((1, 1, 2, 2, 2, 3, 3, 4, 4, 5), (2, 3, 3, 3, 4, 4, 5, 5, 5, 5)),
    ((1, 1, 2, 2, 2, 2, 3, 3, 4, 5), (1, 2, 2, 3, 3, 3, 3, 4, 5, 5)),
    ((1, 1, 1, 2, 3, 3, 3, 3, 4, 5), (2, 3, 4, 4, 4, 4, 4, 5, 5, 5)),
)


def random_surjective_tower(rng, dims):
    steps = []
    for i in range(len(dims) - 1):
        while True:
            M = sp.RationalMatrix([[Q(rng.randint(-3, 3)) for _ in range(dims[i + 1])]
                                   for _ in range(dims[i])])
            if M.rank() == dims[i]:
                steps.append(M)
                break
    return pfd.LinearTower(dims, steps)


def _rows(M):
    return [list(r) for r in M.rows]


def _matmul(A, B, inner):
    return [[sum((a[t] * B[t][c] for t in range(inner)), Q(0)) for c in range(len(B[0]) if B else 0)]
            for a in A]


def _identity(n):
    return [[Q(int(r == c)) for c in range(n)] for r in range(n)]


def _rank(A):
    """Rank by exact Gaussian elimination on a copy, independent of
    jetforge's own matrix code."""
    A = [list(r) for r in A]
    rank = 0
    for c in range(len(A[0]) if A else 0):
        pivot = next((r for r in range(rank, len(A)) if A[r][c] != 0), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        for r in range(rank + 1, len(A)):
            if A[r][c] != 0:
                f = A[r][c] / A[rank][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[rank])]
        rank += 1
    return rank


def _kron(A, B):
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


def check_splitting(split, dims, steps):
    """Re-check a tower splitting against the tower's own dims and step
    matrices (lists of rows): at each level i >= 1, step x section = I,
    step x kernel = 0 with the kernel of full column rank
    dims[i] - dims[i-1], and the lift is [section x previous lift |
    kernel]; every lift is square of full rank.  Returns None or a
    message."""
    L = len(dims)
    if not (len(split.kernel_bases) == len(split.sections) == len(split.lifts) == L):
        return "splitting has the wrong number of levels"
    prev = None
    for i in range(L):
        lift = _rows(split.lifts[i])
        if len(lift) != dims[i] or any(len(r) != dims[i] for r in lift) or _rank(lift) != dims[i]:
            return "lift %d is not an invertible %dx%d matrix" % (i, dims[i], dims[i])
        K = _rows(split.kernel_bases[i])
        if i == 0:
            if K != _identity(dims[0]):
                return "kernel piece 0 is not the identity"
            prev = lift
            continue
        step, kdim = steps[i - 1], dims[i] - dims[i - 1]
        if len(K) != dims[i] or any(len(r) != kdim for r in K) or _rank(K) != kdim:
            return "kernel piece %d is not a %dx%d matrix of full rank" % (i, dims[i], kdim)
        if any(v != 0 for r in _matmul(step, K, dims[i]) for v in r):
            return "step x kernel != 0 at level %d" % i
        f = _rows(split.sections[i])
        if len(f) != dims[i] or any(len(r) != dims[i - 1] for r in f):
            return "section %d has the wrong shape" % i
        if _matmul(step, f, dims[i]) != _identity(dims[i - 1]):
            return "step x section != I at level %d" % i
        pushed = _matmul(f, prev, dims[i - 1])
        if [r[:dims[i - 1]] for r in lift] != pushed or [r[dims[i - 1]:] for r in lift] != K:
            return "lift %d is not [section x lift %d | kernel]" % (i, i - 1)
        prev = lift
    return None


def check_tensor_tower(res, V, W):
    """Re-check a tensor_tower result from the factor towers V and W
    with bench code; returns None or a message."""
    dims = [a * b for a, b in zip(V.dims, W.dims)]
    if res.tensor.dims != dims:
        return "tensor dims %s" % res.tensor.dims
    steps = [_kron(_rows(a), _rows(b)) for a, b in zip(V.steps, W.steps)]
    for level, (got, want) in enumerate(zip(res.tensor.steps, steps)):
        if _rows(got) != want:
            return "tensor step %d is not the Kronecker product of the factor steps" % level
    for name, split, tdims, tsteps in (
            ("left", res.left, V.dims, [_rows(M) for M in V.steps]),
            ("right", res.right, W.dims, [_rows(M) for M in W.steps]),
            ("diagonal", res.diagonal, dims, steps)):
        err = check_splitting(split, tdims, tsteps)
        if err:
            return "%s splitting: %s" % (name, err)
    if not res.identities_hold:
        return "splitting lift identities fail"
    if not res.dim_identity_holds:
        return "truncation dimension identity fails"
    return None


def _tower_job(label, V, W):
    return Job(label, lambda: pfd.tensor_tower(V, W), lambda res: check_tensor_tower(res, V, W))


def build_tower_split(seed):
    rng = random.Random("tower_split:%d" % seed)
    jobs = []
    for i, (dv, dw) in enumerate(TOWER_PAIRS):
        V = random_surjective_tower(rng, dv)
        W = random_surjective_tower(rng, dw)
        jobs.append(_tower_job("tensor tower %d" % i, V, W))
    return jobs


# ---------------------------------------------------------------------------
# cli_corpus


def run_cli(argv):
    """cli.main in-process with stdout and stderr captured; returns
    (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def corpus_files():
    """Corpus paths relative to the checkout root, which the reports
    embed, so report bytes do not depend on where the checkout lives."""
    names = sorted(f for f in os.listdir(CORPUS_DIR) if f.endswith(".jf"))
    if not names:
        raise FileNotFoundError("no .jf files in %s" % CORPUS_DIR)
    return [os.path.join(CORPUS_DIR, f) for f in names]


def cli_argv(command, path, seed):
    return [command, path, "--seed", str(seed), "--json", "-"]


def _cli_job(command, path, seed, golden, seen):
    label = "%s %s --seed %d" % (command, path, seed)
    key = "%s %s" % (command, os.path.basename(path))

    def check(out):
        code, payload = out
        if code != 0:
            return "exit code %d" % code
        try:
            json.loads(payload)
        except ValueError:
            return "report is not JSON"
        if seed == CLI_DEFAULT_SEED:
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            if digest != golden[key]:
                return "report sha256 %s, pinned %s" % (digest, golden[key])
        # reports must be byte-identical on every round of the run
        if seen.setdefault(label, payload) != payload:
            return "report bytes differ between rounds"
        return None

    return Job(label, lambda: run_cli(cli_argv(command, path, seed)), check)


def build_cli_corpus(seed):
    rng = random.Random("cli_corpus:%d" % seed)
    seeds = [CLI_DEFAULT_SEED] + [rng.randrange(1, 10 ** 6) for _ in range(2)]
    with open(CLI_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    paths = corpus_files()
    # set-up includes the parsed corpus; the jobs read and parse each
    # file again through cli.main, as a user's call does, so a parser
    # change moves both setup_s and job latency
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            cli.parse_problem_file(fh.read())
    seen = {}
    return [_cli_job(command, path, s, golden, seen)
            for s in seeds for command in cli.COMMANDS for path in paths]


WORKLOADS = {
    "spencer_tables": build_spencer_tables,
    "lift_solve": build_lift_solve,
    "tower_split": build_tower_split,
    "cli_corpus": build_cli_corpus,
}
