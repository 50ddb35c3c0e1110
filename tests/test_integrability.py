import math
import os
import random
from fractions import Fraction as Q

import pytest

from jetforge import cli
from jetforge import integrability as ig
from jetforge import jetcalc as jc
from jetforge import spencer as sp
from jetforge import symbols as sy
from jetforge import symexpr as sx
from jetforge.mindex import MultiIndex


def _curved_metric_m2():
    x1, x2 = sx.base(1), sx.base(2)
    return ig.MetricSpec(2, {
        (1, 1): sx.ONE - x2 ** 2 * Q(1, 4),
        (2, 2): sx.as_expr(Q(-1)) - x1 ** 2 * Q(1, 4),
    })


def _variety_point_kg(h, seed):
    """Order-2 chart point at base 0 on the zero set of the operator."""
    rng = random.Random(seed)
    chart = h.chart()
    jets = {}
    for I in chart.jet_indices():
        jets[(1, I)] = sx.random_rational(rng, 4)
    jets[(1, MultiIndex((2, 0)))] = sx.ZERO.constant_value()
    p = jc.JetPoint(chart, (Q(0), Q(0)), jets)
    # solve the single affine top coefficient at the assembled point
    val = h.evaluate_at(p)[0]
    c = sx.evaluate(sx.differentiate(h.components[0], sx.JetVar(1, MultiIndex((2, 0)))),
                    p.assignment())
    jets[(1, MultiIndex((2, 0)))] = -Q(val) / Q(c)
    return jc.JetPoint(chart, (Q(0), Q(0)), jets)


def test_minkowski_metric_values():
    g = ig.MetricSpec.minkowski(3)
    assert g.entries[0][0] == sx.ONE
    assert g.entries[1][1] == sx.as_expr(-1)
    assert g.inverse_entry(1, 1) == sx.ONE
    assert g.inverse_entry(2, 2) == sx.as_expr(-1)
    assert g.inverse_entry(1, 2).is_zero()
    table = _christoffel_reference(g)
    for k in range(1, 4):
        for i in range(1, 4):
            for j in range(1, 4):
                assert table[(k, i, j)].is_zero()


def _christoffel_reference(g):
    # the table built the way it was before the brackets were hoisted:
    # every bracket formed inside the loop over k
    m = g.m
    base = [sx.BaseVar(l) for l in range(1, m + 1)]
    dg = [[list(sx.partials(g.entries[a][b], base).values()) for b in range(m)]
          for a in range(m)]
    table = {}
    for k in range(1, m + 1):
        for i in range(1, m + 1):
            for j in range(i, m + 1):
                total = sx.ZERO
                for l in range(1, m + 1):
                    term = (dg[j - 1][l - 1][i - 1] + dg[i - 1][l - 1][j - 1]
                            - dg[i - 1][j - 1][l - 1])
                    if not term.is_zero():
                        total = total + g.inverse_entry(k, l) * term
                table[(k, i, j)] = table[(k, j, i)] = Q(1, 2) * total
    return table


def _corpus_and_bench_metrics():
    corpus = os.path.join(os.path.dirname(__file__), "corpus")
    out = []
    for name in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, name), encoding="utf-8") as fh:
            spec = cli.parse_problem_file(fh.read())
        if spec.metric is not None:
            out.append((name, spec.metric.entries))
    # the metrics of the benchmark's workloads
    x1, x2, x3 = sx.base(1), sx.base(2), sx.base(3)
    out.append(("offdiag m=3", ig.MetricSpec(3, {
        (1, 1): sx.ONE + x2 ** 2 * Q(1, 4),
        (2, 2): sx.as_expr(Q(-1)) - x1 ** 2 * Q(1, 4),
        (3, 3): sx.as_expr(Q(-1)) + x1 * x2 * Q(1, 8),
        (1, 2): x3 * Q(1, 3), (2, 1): x3 * Q(1, 3),
        (1, 3): x1 * x2 * Q(1, 5), (3, 1): x1 * x2 * Q(1, 5),
        (2, 3): Q(1, 7) + x2 * Q(1, 6), (3, 2): Q(1, 7) + x2 * Q(1, 6),
    }).entries))
    out.append(("curved m=4", ig.MetricSpec(4, {
        (1, 1): sx.ONE - x2 ** 2, (2, 2): sx.as_expr(Q(-1)) - x1 ** 2,
        (3, 3): sx.as_expr(Q(-1)), (4, 4): sx.as_expr(Q(-1)),
    }).entries))
    out.append(("minkowski m=4", ig.MetricSpec.minkowski(4).entries))
    out.append(("curved m=2", _curved_metric_m2().entries))
    return out


def _metric_of_grid(grid):
    """The MetricSpec of an m x m grid of entries."""
    return ig.MetricSpec(len(grid), {(i + 1, j + 1): e for i, row in enumerate(grid)
                                     for j, e in enumerate(row)})


@pytest.mark.parametrize("name, entries", _corpus_and_bench_metrics())
def test_christoffel_table_and_operator_match_the_reference_loop(name, entries):
    g = _metric_of_grid(entries)
    ref = _metric_of_grid(entries)
    table = _christoffel_reference(ref)
    # the hoisted brackets, contracted with g^{kl}, give the same table
    for (i, j), nonzero in g.brackets().items():
        for k in range(1, g.m + 1):
            got = sx.ZERO
            for l, b in nonzero:
                got = got + g.inverse_entry(k, l + 1) * b
            got = Q(1, 2) * got
            want = table[(k, i + 1, j + 1)]
            assert got == want and str(got) == str(want), (name, k, i, j)
    cubic = lambda e: e ** 3
    h = ig.make_klein_gordon(g, F1=1, F2=1, K=cubic)
    want = ig.make_klein_gordon(ref, F1=1, F2=1, K=cubic)
    assert h.components == want.components
    assert [str(c) for c in h.components] == [str(c) for c in want.components]


@pytest.mark.parametrize("name, entries", _corpus_and_bench_metrics())
def test_klein_gordon_operator_matches_the_gamma_loop(name, entries):
    # the operator built term by term from the Christoffel table, one
    # product g^{ij} Gamma^k_{ij} per (i, j, k)
    g = _metric_of_grid(entries)
    table = _christoffel_reference(g)
    m = g.m
    u = lambda I: sx.jet(1, MultiIndex(I))
    unit = lambda i: MultiIndex.unit(m, i)
    want = u((0,) * m) + u((0,) * m) ** 3
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            want = want + g.inverse_entry(i, j) * u(unit(i).add(unit(j)))
            for k in range(1, m + 1):
                want = want - g.inverse_entry(i, j) * table[(k, i, j)] * u(unit(k))
    h = ig.make_klein_gordon(g, F1=1, F2=1, K=lambda e: e ** 3)
    assert h.components[0] == want, name


def test_metric_inverse_identity_curved():
    g = _curved_metric_m2()
    for i in range(1, 3):
        for k in range(1, 3):
            total = sx.ZERO
            for j in range(1, 3):
                total = total + g.inverse_entry(i, j) * g.entries[j - 1][k - 1]
            want = sx.ONE if i == k else sx.ZERO
            assert sx.is_identically_zero(total - want)


def test_christoffel_values_curved():
    # g = diag(1 - x2^2/4, -1 - x1^2/4); by the standard formula
    # Gamma^1_{12} = -x2/(4 g11) * ... verified against direct evaluation
    g = _curved_metric_m2()
    table = _christoffel_reference(g)
    rng = random.Random(2)
    pts = [{sx.BaseVar(1): sx.random_rational(rng, 1), sx.BaseVar(2): sx.random_rational(rng, 1)}
           for _ in range(4)]
    for a in pts:
        g11 = sx.evaluate(g.entries[0][0], a)
        g22 = sx.evaluate(g.entries[1][1], a)
        x1v, x2v = a[sx.BaseVar(1)], a[sx.BaseVar(2)]
        # hand-derived: d1 g22 = -x1/2, d2 g11 = -x2/2
        want_112 = Q(1, 2) * (-Q(x2v) / 2) / g11          # Gamma^1_{12}
        want_211 = Q(1, 2) * (Q(x2v) / 2) / g22           # Gamma^2_{11}
        want_122 = Q(1, 2) * (Q(x1v) / 2) / g11           # Gamma^1_{22}
        want_212 = Q(1, 2) * (-Q(x1v) / 2) / g22          # Gamma^2_{12}
        assert sx.evaluate(table[(1, 1, 2)], a) == want_112
        assert sx.evaluate(table[(2, 1, 1)], a) == want_211
        assert sx.evaluate(table[(1, 2, 2)], a) == want_122
        assert sx.evaluate(table[(2, 1, 2)], a) == want_212
        assert sx.evaluate(table[(2, 2, 2)], a) == 0


def test_make_klein_gordon_flat_reduces_to_wave():
    h = ig.make_klein_gordon(ig.MetricSpec.minkowski(2))
    assert h.components[0] == sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))


def test_make_klein_gordon_with_potential_terms():
    h = ig.make_klein_gordon(ig.MetricSpec.minkowski(2), F1=Q(2), F2=1,
                             K=lambda e: e ** 3)
    u = sx.jet(1, (0, 0))
    want = sx.jet(1, (2, 0)) - sx.jet(1, (0, 2)) + 2 * u + u ** 3
    assert h.components[0] == want


def test_make_klein_gordon_requires_k_with_f2():
    with pytest.raises(ValueError):
        ig.make_klein_gordon(ig.MetricSpec.minkowski(2), F2=1)


def test_check_conditions_wave():
    h = ig.make_klein_gordon(ig.MetricSpec.minkowski(2))
    rep = ig.check_conditions(h, samples=6, seed=0)
    assert rep.passed
    assert rep.condition1.certified
    assert rep.condition2.certified
    assert not rep.condition3.certified  # sampled by nature
    assert "all conditions satisfied" in rep.verdict


def test_check_conditions_curved_phi4():
    h = ig.make_klein_gordon(_curved_metric_m2(), F1=1, F2=1, K=lambda e: e ** 3)
    rep = ig.check_conditions(h, samples=5, seed=1)
    assert rep.passed
    assert rep.condition2.certified
    lines = rep.lines()
    assert any("symbol nonvanishing" in ln for ln in lines)
    assert any("constant rank" in ln for ln in lines)


def test_check_conditions_degenerate_symbol_fails():
    h = jc.DiffOp(2, 1, 2, [sx.jet(1, (1, 0)) + sx.jet(1, (0, 0))])
    rep = ig.check_conditions(h, samples=4, seed=0)
    assert not rep.passed
    assert not rep.condition1.passed
    assert "not established" in rep.verdict


def test_lift_point_free_count_matches_prolonged_symbol_kernel():
    h = ig.make_klein_gordon(ig.MetricSpec.minkowski(2), F1=1, F2=1, K=lambda e: e ** 3)
    b = _variety_point_kg(h, seed=5)
    res = ig.lift_point(h, b)
    assert res.point.chart.k == 3
    assert res.free_count == 2
    g = sp.symbolic_system_at(h, b)
    assert res.free_count == g.dim_g(3)
    # the lifted point satisfies the one-step prolongation
    vals = jc.prolong_op(h, 1).evaluate_at(res.point)
    assert all(v == 0 for v in vals)


def test_lift_point_zero_policy_is_deterministic():
    h = ig.make_klein_gordon(ig.MetricSpec.minkowski(2))
    b = _variety_point_kg(h, seed=9)
    r1 = ig.lift_point(h, b)
    r2 = ig.lift_point(h, b)
    assert r1.point == r2.point
    with pytest.raises(ValueError, match="^unknown free-data policy 'zeros'$"):
        ig.lift_point(h, b, policy="zeros")


def test_lift_point_explicit_free_data_sets_kernel_columns():
    h = ig.make_klein_gordon(ig.MetricSpec.minkowski(2))
    b = _variety_point_kg(h, seed=11)
    table = {(1, MultiIndex((2, 1))): Q(7), (1, MultiIndex((0, 3))): Q(-2)}
    res = ig.lift_point(h, b, free_data=table, policy="explicit")
    labels = set(res.free_labels)
    for key, val in table.items():
        if key in labels:
            assert res.point[key] == val


def test_lift_obstruction_frobenius_counterexample():
    # u_x = u, u_y = x1 * u: cross derivatives differ by u, so any
    # variety point with u != 0 admits no one-step lift
    x1 = sx.base(1)
    u = sx.jet(1, (0, 0))
    h = jc.DiffOp(2, 1, 1, [sx.jet(1, (1, 0)) - u, sx.jet(1, (0, 1)) - x1 * u])
    chart = h.chart()
    u0 = Q(3)
    b = jc.JetPoint(chart, (Q(2), Q(0)), {
        (1, (0, 0)): u0, (1, (1, 0)): u0, (1, (0, 1)): Q(2) * u0})
    assert all(v == 0 for v in h.evaluate_at(b))
    with pytest.raises(ig.LiftObstructionError):
        ig.lift_point(h, b)


def test_warm_lift_solves_once(monkeypatch):
    # the one elimination of [A | I] kept on the plan gives the free
    # columns, the obstruction test and the solution: Echelon.solve
    # runs once
    h = ig.make_klein_gordon(_curved_metric_m2(), F1=1, F2=1, K=lambda e: e ** 3)
    b = ig.sample_prolonged_points(h, 1, 1, seed=2)[0]
    want = ig.lift_point(h, b, policy="random", seed=5)
    solve = sp.Echelon.solve
    calls = []

    def counting_solve(self, *args, **kwargs):
        calls.append(args)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(sp.Echelon, "solve", counting_solve)
    got = ig.lift_point(h, b, policy="random", seed=5)
    assert got.point == want.point
    assert got.free_labels == want.free_labels and got.free_labels
    assert len(calls) == 1


def test_sample_prolonged_points_satisfy_all_equations():
    h = ig.make_klein_gordon(ig.MetricSpec.minkowski(2), F1=1, F2=1, K=lambda e: e ** 3)
    pts = ig.sample_prolonged_points(h, 2, 3, seed=4)
    P = jc.prolong_op(h, 2)
    for p in pts:
        assert all(v == 0 for v in P.evaluate_at(p))


def test_variety_codim_wave():
    h = ig.make_klein_gordon(ig.MetricSpec.minkowski(2))
    for l in range(3):
        rep = ig.variety_codim(h, l, samples=4, seed=1)
        assert rep.all_match
        assert rep.expected == math.comb(2 + l, l)


def test_variety_codim_refuses_no_samples():
    # zero samples would report every observed codimension matching
    h = _corpus_operator("laplace3.jf")
    for samples in (0, -1):
        with pytest.raises(ValueError, match="^samples must be at least 1, got %d$" % samples):
            ig.variety_codim(h, 2, samples=samples)


def test_metric_rejects_asymmetric_or_jet_entries():
    with pytest.raises(ValueError):
        ig.MetricSpec(2, {(1, 2): sx.base(1), (2, 1): sx.base(2),
                          (1, 1): sx.ONE, (2, 2): sx.ONE})
    with pytest.raises(ValueError):
        ig.MetricSpec(2, {(1, 1): sx.jet(1, (0, 0)), (2, 2): sx.ONE})


def test_metric_refuses_a_base_variable_outside_its_chart():
    x5 = sx.base(5)
    with pytest.raises(ValueError) as err:
        ig.MetricSpec(2, {(1, 1): x5 + 1, (2, 2): -1})
    assert str(err.value) == ("metric entry g[1][1] uses x5, which is not a base "
                              "variable x1..x2 of the metric")
    # inside a quotient, and off the diagonal
    with pytest.raises(ValueError, match=r"metric entry g\[1\]\[2\] uses x3"):
        ig.MetricSpec(2, {(1, 1): 1, (2, 2): -1, (1, 2): sx.inverse(2 + sx.base(3)),
                          (2, 1): sx.inverse(2 + sx.base(3))})


def test_metric_singular_determinant_rejected():
    # refused when it is constructed, before any entry is read
    with pytest.raises(ValueError, match="^metric expression is singular$"):
        ig.MetricSpec(2, {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1})
    # a singular block among nonsingular ones is refused too
    x1 = sx.base(1)
    with pytest.raises(ValueError, match="^metric expression is singular$"):
        ig.MetricSpec(3, {(1, 1): -1, (2, 2): x1, (2, 3): x1, (3, 2): x1, (3, 3): x1})
    assert not hasattr(ig.MetricSpec.minkowski(2), "determinant")
    assert not hasattr(ig.MetricSpec.minkowski(2), "christoffel")


def _condition1_fallback_reference(h, samples, seed):
    """The sampled fallback of condition 1 as a per-trial loop that
    draws a fresh assignment and evaluates each coefficient on its own:
    (ConditionReport, number of trials skipped on a zero division)."""
    table = jc.symbol_table(h)
    rng = random.Random(seed)
    allvars = sorted({v for c in table.values() for v in c.free_vars()}, key=lambda v: v.key)
    skipped = 0
    for _ in range(samples):
        assignment = {v: sx.random_rational(rng, 5) for v in allvars}
        try:
            vals = [sx.evaluate(c, assignment, exact=True) for c in table.values()]
        except sx.EvalZeroDivision:
            skipped += 1
            continue
        except sx.EvaluationError:
            return ig.ConditionReport(
                "symbol nonvanishing", True, False,
                "non-rational coefficients: nonvanishing not sampled exactly"), skipped
        if all(v == 0 for v in vals):
            return ig.ConditionReport(
                "symbol nonvanishing", False, False,
                "all top-order coefficients vanish at a sampled point",
                {"witness": assignment}), skipped
    detail = "nonzero at all %d sampled points" % (samples - skipped)
    if skipped:
        detail += " evaluated; %d skipped where a denominator vanishes" % skipped
    return ig.ConditionReport("symbol nonvanishing", True, False, detail), skipped


_X1, _X2 = sx.base(1), sx.base(2)
_U20, _U02 = sx.jet(1, (2, 0)), sx.jet(1, (0, 2))


@pytest.mark.parametrize("component, outcome", [
    ((1 + _X1 ** 2) * _U20 + _X2 * _U02, "nonzero at all"),
    (_X1 * _U20 + _X1 * _U02, "all top-order coefficients vanish"),
    (_U20 / _X1 + _X2 * _U02, "nonzero at all"),
    (sx.prim("sin", _X1) * _U20 + _X2 * _U02, "non-rational coefficients"),
], ids=["pass", "witness", "zero-division", "primitive"])
def test_condition1_sampled_fallback_matches_the_per_trial_loop(component, outcome):
    h = jc.DiffOp(2, 1, 2, [component])
    for seed in range(4):
        got = ig._check_symbol_nonvanishing(h, 30, seed)
        want, skipped = _condition1_fallback_reference(h, 30, seed)
        assert got == want
        assert got.detail.startswith(outcome)
        if "witness" in want.data:
            assert list(got.data["witness"].items()) == list(want.data["witness"].items())
        if outcome == "nonzero at all" and component.has_recip():
            # the quotient's payload is drawn as 0 in some trial, which is skipped
            assert skipped


_QUOTIENT = "base m = 2;\nfiber n = 1;\norder k = 2;\noperator h = u[(2,0)]/x1 + x2*u[(0,2)];\n"


@pytest.mark.parametrize("seed, detail", [
    (0, "nonzero at all 8 sampled points"),
    (1, "nonzero at all 8 sampled points"),
    (2, "nonzero at all 7 sampled points evaluated; 1 skipped where a denominator vanishes"),
    (5, "nonzero at all 8 sampled points"),
])
def test_condition1_counts_the_points_it_evaluated(seed, detail):
    # at seed 2 one of the 8 points has x1 = 0; it once still read "all 8"
    h = cli.parse_problem_file(_QUOTIENT).operator
    got = ig._check_symbol_nonvanishing(h, 8, seed)
    assert (got.passed, got.certified, got.detail) == (True, False, detail)


def test_condition1_fails_when_no_point_is_evaluated():
    # the single point of seed 7 has x1 = 0, so nothing was checked
    h = cli.parse_problem_file(_QUOTIENT).operator
    got = ig._check_symbol_nonvanishing(h, 1, 7)
    assert (got.passed, got.certified) == (False, False)
    assert got.detail == "no point evaluated: a denominator vanishes at each of the 1 sampled points"
    assert not ig.check_conditions(h, samples=1, seed=7).passed


def _bench_offdiag_klein_gordon():
    # the Klein-Gordon operator of the spencer_tables benchmark, built
    # from the metric that bench/workloads.py defines
    import importlib.util
    import sys

    module = sys.modules.get("bench_workloads")
    if module is None:
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "bench", "workloads.py")
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        module = importlib.util.module_from_spec(spec)
        # its dataclass looks its module up by name
        sys.modules["bench_workloads"] = module
        spec.loader.exec_module(module)
    return ig.make_klein_gordon(module._offdiag_metric_3d(), F1=1, F2=1, K=lambda e: e ** 3)


def _corpus_operator(name):
    with open(os.path.join(os.path.dirname(__file__), "corpus", name), encoding="utf-8") as fh:
        return cli.parse_problem_file(fh.read()).operator


@pytest.mark.parametrize("name", ["kg_curved2.jf", "offdiag.jf", "offdiag m=3 benchmark"])
def test_condition1_of_klein_gordon_re_proves_nothing(name, monkeypatch):
    # the symbol is the inverse metric by construction, so condition 1
    # certifies it without testing g^{-1} g = I entry by entry
    if name.endswith(".jf"):
        h = _corpus_operator(name)
    else:
        h = _bench_offdiag_klein_gordon()
    calls = []
    real = sx.is_identically_zero
    monkeypatch.setattr(sx, "is_identically_zero", lambda e: calls.append(e) or real(e))
    c1 = ig.check_conditions(h, samples=4, seed=0).condition1
    assert calls == []
    assert (c1.name, c1.passed, c1.certified, c1.detail) == (
        "symbol nonvanishing", True, True,
        "top-order coefficients form the exact inverse metric; an invertible "
        "matrix has no zero row, so the symbol cannot vanish where the metric "
        "is nondegenerate")


@pytest.mark.parametrize("name, detail", [
    ("kg_curved2.jf", "top-order coefficients form the exact inverse metric; an invertible "
                      "matrix has no zero row, so the symbol cannot vanish where the metric "
                      "is nondegenerate"),
    ("offdiag.jf", "top-order coefficients form the exact inverse metric; an invertible "
                   "matrix has no zero row, so the symbol cannot vanish where the metric "
                   "is nondegenerate"),
    ("kg_mink4.jf", "a top-order coefficient is the nonzero constant 1"),
])
def test_condition1_reports_of_the_klein_gordon_corpus(name, detail):
    h = _corpus_operator(name)
    assert type(h) is ig.KleinGordonOp
    c1 = ig.check_conditions(h, samples=4, seed=0).condition1
    assert (c1.name, c1.passed, c1.certified, c1.detail) == ("symbol nonvanishing", True, True, detail)


def test_a_klein_gordon_operator_is_built_from_its_metric_only():
    # condition 1 certifies every KleinGordonOp by its type, so neither
    # given components nor derivatives of u in the potential get in: the
    # symbol of x1*u_(2,0) vanishes on x1 = 0
    g = ig.MetricSpec.minkowski(2)
    x1, u20 = sx.base(1), sx.jet(1, (2, 0))
    with pytest.raises(TypeError):
        ig.KleinGordonOp(g, [x1 * u20])
    with pytest.raises(ValueError, match="derivatives of u"):
        ig.KleinGordonOp(g, F1=sx.jet(1, (1, 0)))
    with pytest.raises(ValueError, match="derivatives of u"):
        ig.make_klein_gordon(g, F2=1, K=lambda e: (x1 - 1) * u20 + sx.jet(1, (0, 2)))
    h = ig.KleinGordonOp(g, 2, 1, lambda e: e ** 3)
    assert h.components == ig.make_klein_gordon(g, 2, 1, lambda e: e ** 3).components
    assert h.components == (u20 - sx.jet(1, (0, 2)) + 2 * sx.jet(1, (0, 0))
                            + sx.jet(1, (0, 0)) ** 3,)


def _cofactor_over_det(grid, r, c):
    n = len(grid)
    minor = [[grid[rr][cc] for cc in range(n) if cc != c] for rr in range(n) if rr != r]
    return (-1) ** (r + c) * sx.det(minor) / sx.det(grid)


@pytest.mark.parametrize("name, blocks", [
    ("kg_curved2.jf", [[0], [1]]),
    ("offdiag.jf", [[0, 1]]),
    ("kg_mink4.jf", [[0], [1], [2], [3]]),
], ids=["kg_curved2.jf", "offdiag.jf", "kg_mink4.jf"])
def test_inverse_metric_is_adjugate_over_determinant_term_for_term(name, blocks):
    # each entry is its block's adjugate over the block's determinant,
    # term for term, and zero across blocks; as a rational function it
    # is the cofactor of g over det g
    metric = _corpus_operator(name).metric
    assert metric.blocks() == blocks
    n = metric.m
    for block in blocks:
        g = [[metric.entries[rr][cc] for cc in block] for rr in block]
        for r in range(n):
            for c in range(n):
                got = metric.inverse_entry(c + 1, r + 1)
                if r in block and c in block:
                    want = _cofactor_over_det(g, block.index(r), block.index(c))
                    assert list(got._terms.items()) == list(want._terms.items())
                elif r in block:
                    assert got.is_zero()
                assert sx.is_identically_zero(got - _cofactor_over_det(metric.entries, r, c))


def test_metric_indices_outside_the_chart_are_refused():
    for key in [(3, 3), (0, 0), (1, 3), (-1, 1)]:
        with pytest.raises(ValueError, match=r"metric index g\[.*\] is outside 1\.\.2"):
            ig.MetricSpec(2, {(1, 1): 1, (2, 2): -1, key: 1})


@pytest.mark.parametrize("name", ["wave2.jf", "kg_curved2.jf"])
def test_condition_checks_refuse_no_samples(name):
    # zero samples passed lift surjectivity "at all 0 sampled points"
    # and ranked nothing
    h = _corpus_operator(name)
    for samples in (0, -1):
        message = "^samples must be at least 1, got %d$" % samples
        with pytest.raises(ValueError, match=message):
            ig.check_conditions(h, samples=samples)
        with pytest.raises(ValueError, match=message):
            sy.rank_profile(h, samples=samples)


def test_sample_prolonged_points_refuses_a_negative_level_and_no_points():
    # l = -1 returned the unlifted order-k points
    h = _corpus_operator("kg_curved2.jf")
    for l in (-1, -2):
        with pytest.raises(ValueError, match="^level l must be at least 0, got %d$" % l):
            ig.sample_prolonged_points(h, l, 1, "s")
    for count in (0, -1):
        with pytest.raises(ValueError, match="^count must be at least 1, got %d$" % count):
            ig.sample_prolonged_points(h, 0, count, "s")
    assert ig.sample_prolonged_points(h, 0, 1, "s")[0].chart.k == 2
