"""Acceptance suite: one test per shipped guarantee.

Every comparison here is exact rational equality unless a line says
otherwise; the only floating tolerance in the package (1e-9 on float
residual paths) is not used by these tests.  Each test is independent
and seeded, so `pytest -v tests/test_acceptance.py` prints one
deterministic pass/fail line per criterion.
"""

import glob
import json
import math
import os
import random
import time
from fractions import Fraction as Q

from jetforge import cli
from jetforge import formal as fm
from jetforge import integrability as ig
from jetforge import jetcalc as jc
from jetforge import pfd
from jetforge import spencer as sp
from jetforge import symbols as sy
from jetforge import symexpr as sx
from jetforge.mindex import MultiIndex

from random_exprs import random_polynomial

RM = sp.RationalMatrix

X1, X2 = sx.base(1), sx.base(2)


def _dalembert(m):
    comp = sx.jet(1, tuple(2 if j == 0 else 0 for j in range(m)))
    for i in range(1, m):
        comp = comp - sx.jet(1, tuple(2 if j == i else 0 for j in range(m)))
    return jc.DiffOp(m, 1, 2, [comp])


def _zero_point(h):
    chart = h.chart()
    jets = {(alpha, I): Q(0) for alpha in range(1, h.n + 1)
            for I in chart.jet_indices()}
    return jc.JetPoint(chart, (Q(0),) * h.m, jets)


def _curved_metric_2d():
    return ig.MetricSpec(2, {
        (1, 1): sx.ONE - X2 ** 2 * Q(1, 4),
        (2, 2): sx.as_expr(Q(-1)) - X1 ** 2 * Q(1, 4),
    })


# ---------------------------------------------------------------------------
# criterion 1


def _curved_metric_4d():
    # diagonal (1 - x2^2, -1 - x1^2, -1, -1): at the origin this equals
    # the signature matrix and all first metric derivatives vanish, so
    # the origin is a normal-coordinate (exponential chart) point
    return ig.MetricSpec(4, {
        (1, 1): sx.ONE - X2 ** 2,
        (2, 2): sx.as_expr(Q(-1)) - X1 ** 2,
        (3, 3): sx.as_expr(Q(-1)),
        (4, 4): sx.as_expr(Q(-1)),
    })


def _kernel_seed_m4(h, rng, base):
    # random 2-jet pushed onto ker h by solving for u_(2,0,0,0); only
    # valid where the metric equals the signature matrix
    chart = h.chart()
    jets = {}
    for I in chart.jet_indices():
        jets[(1, I)] = sx.random_rational(rng, 4)
    u0 = jets[(1, MultiIndex((0, 0, 0, 0)))]
    rest = sum(jets[(1, MultiIndex(tuple(2 if j == i else 0 for j in range(4))))]
               for i in range(1, 4))
    jets[(1, MultiIndex((2, 0, 0, 0)))] = rest - u0 - u0 ** 3
    return jc.JetPoint(chart, base, jets)


def _expected_lift_table(b, brackets):
    # closed form of the zero-free-data lift at a normal-coordinate
    # point: the four leading third-order slots 2e_1 + e_l carry
    # (bracket_l - 1 - K'(u_0)) u_{e_l}, every other new slot is zero
    u0 = b[(1, MultiIndex((0, 0, 0, 0)))]
    kprime = 3 * u0 ** 2
    table = {}
    for I in jc.JetChartSpec(4, 1, 3).jet_indices():
        if I.degree == 3:
            table[I] = Q(0)
    for l in range(1, 5):
        el = MultiIndex.unit(4, l)
        slot = MultiIndex.unit(4, 1).add(MultiIndex.unit(4, 1)).add(el)
        table[slot] = (brackets[l] - 1 - kprime) * b[(1, el)]
    return table


def test_criterion_01_klein_gordon_lift_golden():
    t_start = time.monotonic()
    eta = [Q(1), Q(-1), Q(-1), Q(-1)]

    g_curved = _curved_metric_4d()
    origin = {sx.BaseVar(i): Q(0) for i in range(1, 5)}
    for i in range(1, 5):
        for j in range(1, 5):
            v = sx.evaluate(g_curved.entries[i - 1][j - 1], origin, exact=True)
            assert v == (eta[i - 1] if i == j else 0)
            for l in range(1, 5):
                dv = sx.evaluate(sx.differentiate(g_curved.entries[i - 1][j - 1], sx.BaseVar(l)),
                                 origin, exact=True)
                assert dv == 0

    cases = []
    h_curved = ig.make_klein_gordon(g_curved, F1=1, F2=1, K=lambda e: e ** 3)
    brackets_curved = {1: Q(-1), 2: Q(-1), 3: Q(0), 4: Q(0)}
    for s in range(70):
        cases.append((h_curved, brackets_curved, (Q(0),) * 4, 1000 + s))
    h_flat = ig.make_klein_gordon(ig.MetricSpec.minkowski(4), F1=1, F2=1,
                                  K=lambda e: e ** 3)
    brackets_flat = {1: Q(0), 2: Q(0), 3: Q(0), 4: Q(0)}
    for s in range(30):
        rng = random.Random(5000 + s)
        base = tuple(sx.random_rational(rng, 3) for _ in range(4))
        cases.append((h_flat, brackets_flat, base, 6000 + s))

    assert len(cases) == 100
    for h, brackets, base, seed in cases:
        rng = random.Random(seed)
        b = _kernel_seed_m4(h, rng, base)
        res = ig.lift_point(h, b, policy="zero")
        want = _expected_lift_table(b, brackets)
        for I, v in want.items():
            assert res.point[(1, I)] == v, (seed, I)
        assert res.point.project(2) == b

    assert time.monotonic() - t_start < 60.0


# ---------------------------------------------------------------------------
# criterion 2


def test_criterion_02_integrability_verdicts():
    k_cubic = lambda e: e ** 3
    flat = ig.make_klein_gordon(ig.MetricSpec.minkowski(4),
                                F1=1 + X1 ** 2, F2=1, K=k_cubic)
    curved = ig.make_klein_gordon(_curved_metric_2d(),
                                  F1=2 + X1 * X2, F2=1, K=k_cubic)
    for h in (flat, curved):
        rep = ig.check_conditions(h, samples=8, seed=2)
        assert rep.condition1.passed
        assert rep.condition2.passed
        assert rep.condition3.passed
        assert rep.passed
        assert rep.condition2.certified  # exact, not sampled, for polynomial metrics
        assert rep.verdict.startswith("all conditions satisfied")


# ---------------------------------------------------------------------------
# criterion 3


def test_criterion_03_spencer_vanishing():
    for m in (2, 3, 4):
        h = _dalembert(m)
        g = sp.symbolic_system_at(h, _zero_point(h))
        table = sp.cohomology_dims(g, m, 5)
        for p in range(0, m + 1):
            for q in range(2, 6):
                v = table[(p, q)]
                assert isinstance(v, int)
                assert v == 0, (m, p, q, v)
        # the two invariant cells, for contrast
        assert table[(0, 0)] == 1
        assert table[(1, 1)] == 1
        # the complex squares to zero on every computed cell
        for p in range(0, m + 1):
            for q in range(2, 6):
                first = sp.restricted_delta(g, p, q)
                if first.nrows == 0 or first.ncols == 0:
                    continue
                second = sp.spencer_delta(p + 1, q - 1, m, 1)
                if second.nrows == 0:
                    continue
                assert second.matmul(first).is_zero(), (m, p, q)


# ---------------------------------------------------------------------------
# criterion 4


def _random_order3_linear(rng):
    atoms = [sx.BaseVar(1), sx.BaseVar(2)]
    comps = []
    for _ in range(2):
        e = sx.ZERO
        for I in jc.JetChartSpec(2, 1, 3).jet_indices():
            if rng.random() < 0.4:
                e = e + random_polynomial(rng, atoms, degree=2, terms=2,
                                             bound=4) * sx.jet(1, I)
        e = e + (1 + X1 ** 2) * sx.jet(1, (3, 0))  # keep order 3 honest
        comps.append(e)
    return jc.DiffOp(2, 1, 3, comps)


def test_criterion_04_symbol_diagram_commutes():
    rng = random.Random(40)
    gradient = jc.DiffOp(2, 1, 1, [sx.jet(1, (1, 0)), sx.jet(1, (0, 1))])
    laplace = jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) + sx.jet(1, (0, 2))])
    cubic = _random_order3_linear(rng)
    for h in (gradient, laplace, cubic):
        assert h.is_linear()
        chart = h.chart()
        points = []
        covectors = []
        for _ in range(50):
            base = tuple(sx.random_rational(rng, 4) for _ in range(2))
            jets = {(1, I): sx.random_rational(rng, 4) for I in chart.jet_indices()}
            points.append(jc.JetPoint(chart, base, jets))
            covectors.append(tuple(sx.random_rational(rng, 4) for _ in range(2)))
        rep = sy.check_linear_symbol_diagram(h, points, covectors)
        assert rep.passed, rep.witness
        assert rep.samples == 50


# ---------------------------------------------------------------------------
# criterion 5


def test_criterion_05_prolongation_residuals_exact():
    h = _dalembert(2)
    for d in range(0, 6):
        psi = jc.SectionPoly(2, [(X1 + X2) ** d])
        for l in range(0, 5):
            assignment = jc.section_jet_assignment(psi, 2 + l)
            P = jc.prolong_op(h, l)
            for comp in P.components:
                pulled = sx.substitute(comp, assignment)
                assert sx.is_identically_zero(pulled), (d, l)


# ---------------------------------------------------------------------------
# criterion 6


def test_criterion_06_codimension_law():
    for m in (1, 2, 3):
        h = _dalembert(m)
        for l in range(0, 4):
            cd = ig.variety_codim(h, l, samples=25, seed=10 * m + l)
            assert cd.points == 25
            assert cd.expected == math.comb(m + l, m)
            assert cd.all_match, (m, l, cd.observed)


# ---------------------------------------------------------------------------
# criterion 7


def test_criterion_07_formal_solution_order_six():
    h = ig.make_klein_gordon(_curved_metric_2d(), F1=1, F2=1, K=lambda e: e ** 3)
    seed_pt = ig.sample_prolonged_points(h, 0, 1, seed=11)[0]
    sol = fm.formal_solve(h, seed_pt, 6, policy="random", seed=5)
    assert sol.order == 6
    rep = fm.verify_residual(sol, 4, mode="exact")
    assert rep.passed
    assert all(v == 0 for v in rep.values)
    g = sp.symbolic_system_at(h, seed_pt)
    assert sol.free_counts == [g.dim_g(q) for q in range(3, 7)]


# ---------------------------------------------------------------------------
# criterion 8


def _random_surjective_tower(rng):
    dims = sorted(rng.randint(1, 6) for _ in range(5))
    steps = []
    for i in range(4):
        while True:
            M = RM([[Q(rng.randint(-3, 3)) for _ in range(dims[i + 1])]
                    for _ in range(dims[i])])
            if M.rank() == dims[i]:
                steps.append(M)
                break
    return pfd.LinearTower(dims, steps)


def test_criterion_08_tensor_tower_splitting():
    rng = random.Random(88)
    for trial in range(3):
        V = _random_surjective_tower(rng)
        W = _random_surjective_tower(rng)
        res = pfd.tensor_tower(V, W)
        assert res.identities_hold
        assert res.dim_identity_holds
        assert res.tensor.dims == [a * b for a, b in zip(V.dims, W.dims)]
        # re-verify the lift identities on the tensor tower directly
        split = res.diagonal
        for k in range(5):
            for i in range(k + 1):
                lhs = res.tensor.connect(i, k).matmul(split.lifts[k])
                want_cols = split.lifts[i].ncols
                # rows builds its Fraction view on each read
                got, lift = lhs.rows, split.lifts[i].rows
                for r in range(lhs.nrows):
                    for c in range(lhs.ncols):
                        want = lift[r][c] if c < want_cols else Q(0)
                        assert got[r][c] == want, (trial, i, k)
        # truncation dimension identity at each level, recomputed here
        for k in range(5):
            total = sum(res.left.tilde_dim(i) * res.right.tilde_dim(j)
                        for i in range(k + 1) for j in range(k + 1))
            assert total == res.tensor.dims[k]


# ---------------------------------------------------------------------------
# criterion 9


def test_criterion_09_pfd_calculus():
    jt = pfd.JetTower(2, 1, 6)
    tw = jt.tower
    rng = random.Random(99)

    forms = []
    for idx in range(10):
        level = idx % 4
        degree = 1 + idx % 2
        nslots = tw.dims[level]
        table = {}
        atoms = [sx.BaseVar(i) for i in range(1, nslots + 1)]
        for _ in range(3):
            key = tuple(sorted(rng.sample(range(1, nslots + 1), degree)))
            table[key] = random_polynomial(rng, atoms, degree=2, terms=2, bound=4)
        forms.append(pfd.LocalForm(tw, level, degree, table))
    for om in forms:
        assert pfd.d(pfd.d(om)).is_zero()
    for a, b in zip(forms, forms[1:]):
        lhs = pfd.d(pfd.wedge(a, b))
        da_b = pfd.wedge(pfd.d(a), b)
        a_db = pfd.wedge(a, pfd.d(b))
        sign = Q(-1) ** a.degree
        for key in set(lhs.table) | set(da_b.table) | set(a_db.table):
            diff = lhs.entry(key) - da_b.entry(key) - sign * a_db.entry(key)
            assert diff.is_zero(), (a.level, b.level, key)

    D1 = pfd.total_derivative_field(jt, 1)
    D2 = pfd.total_derivative_field(jt, 2)
    for idx in range(20):
        level = idx % 3
        atoms = jt.slots(level)
        e = random_polynomial(rng, atoms, degree=2, terms=4, bound=5)
        f = pfd.LocalFunction(level, jt.to_tower_expr(e, level))
        a = pfd.vf_apply(D1, pfd.vf_apply(D2, f))
        b = pfd.vf_apply(D2, pfd.vf_apply(D1, f))
        assert (a.expr - b.expr).is_zero(), idx

    for n in (1, 2):
        chart = jc.JetChartSpec(2, n, 4)
        data = {}
        for alpha in range(1, n + 1):
            for I in chart.jet_indices():
                data[(alpha, I)] = sx.random_rational(rng, 6)
        p0 = (Q(1, 3), Q(-2))
        sec = pfd.borel_realize(2, n, data, p0, 4)
        back = jc.jet_of_section(sec, p0, 4)
        for key, v in data.items():
            assert back[key] == v


# ---------------------------------------------------------------------------
# criterion 10


def _corpus_files():
    here = os.path.dirname(os.path.abspath(__file__))
    return sorted(glob.glob(os.path.join(here, "corpus", "*.jf")))


def test_criterion_10_determinism_and_parsing(tmp_path):
    files = _corpus_files()
    assert len(files) >= 10
    for f in files:
        text = open(f, encoding="utf-8").read()
        spec = cli.parse_problem_file(text)
        printed = cli.format_problem(spec)
        spec2 = cli._parse.__wrapped__(printed)
        assert cli.format_problem(spec2) == printed, f

    wave = [f for f in files if f.endswith("wave2.jf")][0]
    kg = [f for f in files if f.endswith("kg_curved2.jf")][0]
    for cmd, src, extra in (
        ("spencer", wave, []),
        ("integrability", wave, ["--seed", "7", "--samples", "5"]),
        ("solve", kg, ["--free-data", "random", "--seed", "7"]),
    ):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert cli.main([cmd, src, *extra, "--json", str(out1)]) == 0
        assert cli.main([cmd, src, *extra, "--json", str(out2)]) == 0
        b1 = out1.read_bytes()
        b2 = out2.read_bytes()
        assert b1 == b2
        json.loads(b1)  # well-formed
