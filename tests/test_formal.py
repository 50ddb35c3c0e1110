import random
from fractions import Fraction as Q

import pytest

from jetforge import formal as fm
from jetforge import integrability as ig
from jetforge import jetcalc as jc
from jetforge import spencer as sp
from jetforge import symexpr as sx
from jetforge.formal import TruncSeries
from jetforge.mindex import MultiIndex, factorial


def _wave():
    return jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))])


def _series_of_poly(e, order, base=(Q(0), Q(0))):
    return TruncSeries.from_polynomial(e, 2, order, base)


def test_series_from_polynomial_coefficients():
    x1, x2 = sx.base(1), sx.base(2)
    s = _series_of_poly((x1 + x2) ** 2, 3)
    assert s.coefficient(MultiIndex((2, 0))) == 1
    assert s.coefficient(MultiIndex((1, 1))) == 2
    assert s.coefficient(MultiIndex((0, 2))) == 1
    assert s.coefficient(MultiIndex((3, 0))) == 0
    assert s.coefficient(MultiIndex((2, 0))) * factorial(MultiIndex((2, 0))) == 2


def test_series_mul_matches_polynomial_product():
    rng = random.Random(8)
    x1, x2 = sx.base(1), sx.base(2)
    atoms = [sx.BaseVar(1), sx.BaseVar(2)]
    for _ in range(8):
        e1 = sx.random_polynomial(rng, atoms, degree=3, terms=4, bound=5)
        e2 = sx.random_polynomial(rng, atoms, degree=3, terms=4, bound=5)
        s1 = _series_of_poly(e1, 4)
        s2 = _series_of_poly(e2, 4)
        prod = s1 * s2
        want = _series_of_poly(e1 * e2, 4)
        assert prod == want


def test_series_truncates_at_min_order():
    x1 = sx.base(1)
    s1 = _series_of_poly(x1 ** 2, 2)
    s2 = _series_of_poly(x1, 5)
    assert (s1 * s2).order == 2


def test_series_around_shifted_base_point():
    x1, x2 = sx.base(1), sx.base(2)
    p = (Q(1), Q(2))
    s = TruncSeries.from_polynomial(x1 * x2, 2, 2, p)
    assert s.coefficient(MultiIndex((0, 0))) == 2
    assert s.coefficient(MultiIndex((1, 0))) == 2
    assert s.coefficient(MultiIndex((0, 1))) == 1
    assert s.coefficient(MultiIndex((1, 1))) == 1
    back = s.truncation_polynomial()
    assert sx.is_identically_zero(back - x1 * x2)


def test_series_compose_scalar_powers():
    x1 = sx.base(1)
    s = _series_of_poly(1 + x1, 3)
    out = s ** 2
    want = _series_of_poly((1 + x1) ** 2, 3)
    assert out == want


def test_serialize_is_graded_lex():
    x1, x2 = sx.base(1), sx.base(2)
    s = _series_of_poly(x1 + 3 * x2, 2)
    triples = s.serialize()
    indices = [t[0] for t in triples]
    assert indices == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert triples[1] == ((1, 0), 1, 1)
    assert triples[2] == ((0, 1), 3, 1)


def test_formal_solve_wave_reproduces_polynomial_solution():
    # seed with the 2-jet of (x1+x2)^3 and hand the lift exactly the
    # free data of that polynomial; the series must match its jets
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
    want = TruncSeries.from_polynomial(poly, 2, 5, (Q(0), Q(0)))
    assert sol.series[0] == want
    rep = fm.verify_residual(sol, 3)
    assert rep.passed
    assert sol.verified_order == 3


def test_formal_solve_zero_free_data_is_deterministic():
    h = _wave()
    chart = h.chart()
    jets = {(1, I): Q(0) for I in chart.jet_indices()}
    seed_pt = jc.JetPoint(chart, (Q(0), Q(0)), jets)
    s1 = fm.formal_solve(h, seed_pt, 4)
    s2 = fm.formal_solve(h, seed_pt, 4)
    assert s1.series[0] == s2.series[0]
    assert s1.free_counts == [2, 2]


def test_formal_solve_rejects_seed_off_the_variety():
    h = _wave()
    chart = h.chart()
    jets = {(1, I): Q(0) for I in chart.jet_indices()}
    jets[(1, MultiIndex((2, 0)))] = Q(1)
    bad = jc.JetPoint(chart, (Q(0), Q(0)), jets)
    with pytest.raises(ValueError):
        fm.formal_solve(h, bad, 4)


def test_free_counts_match_symbol_kernel_dims():
    g_m = ig.MetricSpec(2, {(1, 1): sx.ONE - sx.base(2) ** 2 * Q(1, 4),
                            (2, 2): sx.as_expr(Q(-1)) - sx.base(1) ** 2 * Q(1, 4)})
    h = ig.make_klein_gordon(g_m, F1=1, F2=1, K=lambda e: e ** 3)
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
    bad = fm.FormalSolution(operator=h, base=sol.base, series=sol.series,
                            top_jet=bad_top, free_counts=sol.free_counts)
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
