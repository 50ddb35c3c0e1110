from fractions import Fraction as Q

import pytest

from jetforge import formal as fm
from jetforge import integrability as ig
from jetforge import jetcalc as jc
from jetforge import spencer as sp
from jetforge import symbols as sy
from jetforge import symexpr as sx
from jetforge.mindex import MultiIndex, factorial


def _wave():
    return jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))])


def _solution_of_poly(e, order, base=(Q(0), Q(0))):
    # the jet of a wave solution, as the formal solution it is
    top = jc.jet_of_section(jc.SectionPoly(2, [e]), base, order)
    return fm.FormalSolution(operator=_wave(), top_jet=top)


def _coefficient(sol, I):
    return {J: Q(num, den) for J, num, den in sol.coefficients()}[tuple(I)]


def test_series_from_polynomial_coefficients():
    x1, x2 = sx.base(1), sx.base(2)
    s = _solution_of_poly((x1 + x2) ** 2, 3)
    assert _coefficient(s, MultiIndex((2, 0))) == 1
    assert _coefficient(s, MultiIndex((1, 1))) == 2
    assert _coefficient(s, MultiIndex((0, 2))) == 1
    assert _coefficient(s, MultiIndex((3, 0))) == 0
    assert _coefficient(s, MultiIndex((2, 0))) * factorial(MultiIndex((2, 0))) == 2


def test_series_around_shifted_base_point():
    x1, x2 = sx.base(1), sx.base(2)
    p = (Q(1), Q(2))
    s = _solution_of_poly(x1 * x2, 2, p)
    assert _coefficient(s, MultiIndex((0, 0))) == 2
    assert _coefficient(s, MultiIndex((1, 0))) == 2
    assert _coefficient(s, MultiIndex((0, 1))) == 1
    assert _coefficient(s, MultiIndex((1, 1))) == 1
    back = s.section().components[0]
    assert sx.is_identically_zero(back - x1 * x2)


def test_serialize_is_graded_lex():
    x1, x2 = sx.base(1), sx.base(2)
    s = _solution_of_poly(x1 + 3 * x2, 2)
    triples = s.coefficients()
    indices = [t[0] for t in triples]
    assert indices == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert triples[1] == ((1, 0), 1, 1)
    assert triples[2] == ((0, 1), 3, 1)


def _curved_klein_gordon():
    g_m = ig.MetricSpec(2, {(1, 1): sx.ONE - sx.base(2) ** 2 * Q(1, 4),
                            (2, 2): sx.as_expr(Q(-1)) - sx.base(1) ** 2 * Q(1, 4)})
    return ig.make_klein_gordon(g_m, F1=1, F2=1, K=lambda e: e ** 3)


@pytest.mark.parametrize("make_op", [_wave, _curved_klein_gordon])
def test_section_round_trips_to_top_jet(make_op):
    h = make_op()
    seed_pt = ig.sample_prolonged_points(h, 0, 1, seed=11)[0]
    sol = fm.formal_solve(h, seed_pt, 5, policy="random", seed=5)
    assert jc.jet_of_section(sol.section(), sol.base, sol.order) == sol.top_jet


def test_formal_solve_wave_reproduces_polynomial_solution():
    # seed with the 2-jet of (x1+x2)^3 and hand the lift exactly the
    # free data of that polynomial; the top jet must be its jet
    h = _wave()
    x1, x2 = sx.base(1), sx.base(2)
    poly = (x1 + x2) ** 3
    psi = jc.SectionPoly(2, [poly])
    seed_pt = jc.jet_of_section(psi, (Q(0), Q(0)), 2)
    free = {}
    for N in (3, 4, 5):
        jp = jc.jet_of_section(psi, (Q(0), Q(0)), N)
        for I in jp.chart.jet_indices():
            if I.degree == N:
                free[(1, I)] = jp[(1, I)]
    sol = fm.formal_solve(h, seed_pt, 5, policy="explicit", free_table=free)
    assert sol.top_jet == jc.jet_of_section(psi, (Q(0), Q(0)), 5)
    rep = fm.verify_residual(sol, 3)
    assert rep.passed
    assert rep.order == 3


def test_formal_solve_zero_free_data_is_deterministic():
    h = _wave()
    chart = h.chart()
    jets = {(1, I): Q(0) for I in chart.jet_indices()}
    seed_pt = jc.JetPoint(chart, (Q(0), Q(0)), jets)
    s1 = fm.formal_solve(h, seed_pt, 4)
    s2 = fm.formal_solve(h, seed_pt, 4)
    assert s1.top_jet == s2.top_jet
    assert s1.free_counts == [2, 2]


def test_formal_solve_rejects_seed_off_the_variety():
    h = _wave()
    chart = h.chart()
    jets = {(1, I): Q(0) for I in chart.jet_indices()}
    jets[(1, MultiIndex((2, 0)))] = Q(1)
    bad = jc.JetPoint(chart, (Q(0), Q(0)), jets)
    with pytest.raises(ValueError):
        fm.formal_solve(h, bad, 4)


def test_formal_solve_rejects_seed_above_the_order():
    # a solve to an order below the seed's cannot drop the seed's jets
    h = _wave()
    chart = jc.JetChartSpec(2, 1, 3)
    seed_pt = jc.JetPoint(chart, (Q(0), Q(0)), {(1, I): Q(0) for I in chart.jet_indices()})
    with pytest.raises(ValueError, match="^truncation order N = 2 is below the seed's order 3$"):
        fm.formal_solve(h, seed_pt, 2)


@pytest.mark.parametrize("N", [0, 1])
def test_formal_solve_below_the_operator_order_names_n_and_the_seed_order(N):
    h = _wave()
    seed_pt = ig.sample_prolonged_points(h, 0, 1, seed=11)[0]
    with pytest.raises(ValueError, match="^truncation order N = %d is below the seed's order 2$" % N):
        fm.formal_solve(h, seed_pt, N)


def test_free_counts_match_symbol_kernel_dims():
    h = _curved_klein_gordon()
    pt = ig.sample_prolonged_points(h, 0, 1, seed=6)[0]
    sol = fm.formal_solve(h, pt, 5)
    g = sp.symbolic_system_at(h, pt)
    for lvl, free in enumerate(sol.free_counts, start=h.order + 1):
        assert free == g.dim_g(lvl)


def test_residual_negative_control():
    h = _wave()
    chart = h.chart()
    jets = {(1, I): Q(0) for I in chart.jet_indices()}
    seed_pt = jc.JetPoint(chart, (Q(0), Q(0)), jets)
    sol = fm.formal_solve(h, seed_pt, 4)
    top = sol.top_jet
    tampered = dict((key, top[key]) for key in
                    ((1, I) for I in top.chart.jet_indices()))
    tampered[(1, MultiIndex((4, 0)))] = Q(1)
    bad_top = jc.JetPoint(top.chart, top.base, tampered)
    bad = fm.FormalSolution(operator=h, top_jet=bad_top, free_counts=sol.free_counts)
    rep = fm.verify_residual(bad, 2)
    assert not rep.passed


def test_residual_float_mode():
    h = _wave()
    chart = h.chart()
    jets = {(1, I): Q(0) for I in chart.jet_indices()}
    seed_pt = jc.JetPoint(chart, (Q(0), Q(0)), jets)
    sol = fm.formal_solve(h, seed_pt, 4)
    rep = fm.verify_residual(sol, 2, mode="float")
    assert rep.passed
    assert rep.max_abs <= 1e-9


def test_residual_summary_of_a_tampered_solution():
    # (x1 + x2)^3 solves the wave equation; one changed top jet value
    # leaves the residual D_1 D_1 h = u_(4,0) - u_(2,2) at 1
    x1, x2 = sx.base(1), sx.base(2)
    good = _solution_of_poly((x1 + x2) ** 3, 4)
    jets = good.top_jet.jets
    jets[(1, MultiIndex((4, 0)))] += 1
    bad = fm.FormalSolution(operator=good.operator,
                            top_jet=jc.JetPoint(good.top_jet.chart, good.base, jets))
    assert fm.verify_residual(good, 2).passed
    exact = fm.verify_residual(bad, 2)
    assert not exact.passed
    assert sorted(exact.values) == [0, 0, 0, 0, 0, 1]
    assert exact.summary() == "nonzero residual at outer order <= 2"
    approx = fm.verify_residual(bad, 2, mode="float")
    assert not approx.passed and approx.max_abs == 1.0
    assert approx.summary() == "max |residual| = 1 at outer order <= 2"


def test_float_residual_reads_the_float_rank_tolerance(monkeypatch):
    # the tolerance float-mode reports are labelled with is the one the
    # residual check applies
    x1, x2 = sx.base(1), sx.base(2)
    good = _solution_of_poly((x1 + x2) ** 3, 4)
    jets = good.top_jet.jets
    jets[(1, MultiIndex((4, 0)))] += Q(1, 10 ** 6)
    bad = fm.FormalSolution(operator=good.operator,
                            top_jet=jc.JetPoint(good.top_jet.chart, good.base, jets))
    assert not fm.verify_residual(bad, 2, mode="float").passed
    monkeypatch.setattr(sy, "FLOAT_RANK_TOL", 1e-5)
    assert fm.verify_residual(bad, 2, mode="float").passed
    assert not fm.verify_residual(bad, 2).passed


@pytest.mark.parametrize("r, mode, message", [
    # any mode but "exact" once ran the float check
    (2, "exakt", "mode must be exact or float"),
    (2, "Exact", "mode must be exact or float"),
    (3, "exact", "not enough series orders for residual depth 3"),
    (3, "float", "not enough series orders for residual depth 3"),
], ids=["misspelt_mode", "capitalised_mode", "too_deep_exact", "too_deep_float"])
def test_verify_residual_refuses_an_unknown_mode_and_a_depth_past_the_series(r, mode, message):
    x1, x2 = sx.base(1), sx.base(2)
    sol = _solution_of_poly((x1 + x2) ** 3, 4)
    with pytest.raises(ValueError, match="^%s$" % message):
        fm.verify_residual(sol, r, mode=mode)
