import math
import random
from fractions import Fraction as Q

import pytest

from jetforge import integrability as ig
from jetforge import jetcalc as jc
from jetforge import spencer as sp
from jetforge import symbols as sy
from jetforge import symexpr as sx
from jetforge.mindex import MultiIndex, multinomial


def _wave():
    return jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))])


def _laplace(m):
    e = sx.ZERO
    for i in range(m):
        e = e + sx.jet(1, tuple(2 if j == i else 0 for j in range(m)))
    return jc.DiffOp(m, 1, 2, [e])


def _point(h, seed=0):
    rng = random.Random(seed)
    chart = h.chart()
    jets = {(alpha, I): sx.random_rational(rng, 4)
            for alpha in range(1, h.n + 1) for I in chart.jet_indices()}
    return jc.JetPoint(chart, tuple(sx.random_rational(rng, 4) for _ in range(h.m)), jets)


def test_symbol_of_wave_table():
    S = sy.symbol_of(_wave())
    assert S.get((1, 1, (2, 0)), sx.ZERO) == sx.ONE
    assert S.get((1, 1, (0, 2)), sx.ZERO) == -sx.ONE
    assert S.get((1, 1, (1, 1)), sx.ZERO).is_zero()
    assert S


def test_symbol_polynomial_evaluation():
    h = _wave()
    S = sy.symbol_of(h)
    a = _point(h)
    assert sy.symbol_value(S, 1, a, (Q(1), Q(1))) == 0
    assert sy.symbol_value(S, 1, a, (Q(2), Q(1))) == 3
    assert sy.symbol_value(S, 1, a, (Q(0), Q(1))) == -1


def _symbol_value_reference(S, beta, a, xi, alpha=1):
    # sum s_J(a) xi^J, each coefficient evaluated at a, then times xi^J
    total = Q(0)
    for (a_, b, J), c in S.items():
        if (a_, b) == (alpha, beta):
            val = sx.evaluate(c, a.assignment())
            for i, e in enumerate(J):
                val = val * Q(xi[i]) ** e
            total = total + val
    return total


def test_symbol_value_is_the_entrywise_sum():
    rng = random.Random(7)
    curved = ig.make_klein_gordon(ig.MetricSpec(
        2, {(1, 1): 1 + sx.base(2) ** 2, (1, 2): sx.base(1), (2, 1): sx.base(1),
            (2, 2): -1 - sx.base(1) ** 2}))
    pair = jc.DiffOp(2, 2, 1, [sx.jet(1, (1, 0)) + sx.base(1) * sx.jet(2, (0, 1)),
                               sx.jet(2, (1, 0)) - sx.jet(1, (0, 1)) / (1 + sx.base(2) ** 2)])
    nonlinear = jc.DiffOp(2, 1, 2, [sx.jet(1, (0, 0)) * sx.jet(1, (2, 0)) - sx.jet(1, (1, 1))])
    for h in (_wave(), _laplace(3), curved, pair, nonlinear):
        tables = [sy.symbol_of(h)]
        if h.is_linear():
            tables.append(jc.bundle_to_classical(h))
        for seed in range(4):
            a = _point(h, seed)
            xi = tuple(rng.choice((rng.randint(-3, 3), sx.random_rational(rng, 5)))
                       for _ in range(h.m))
            for S in tables:
                for beta in range(1, h.n_out + 1):
                    for alpha in range(1, h.n + 1):
                        assert sy.symbol_value(S, beta, a, xi, alpha=alpha) \
                            == _symbol_value_reference(S, beta, a, xi, alpha=alpha)
    for xi in ((Q(1),), (Q(1), Q(1), Q(5))):
        with pytest.raises(ValueError, match="^covector has %d entries, need 2$" % len(xi)):
            sy.symbol_value(sy.symbol_of(_wave()), 1, _point(_wave()), xi)


def test_functional_values_divide_multinomial():
    h = _laplace(2)
    A = sp.symbol_constraint_matrix(h, _point(h))
    vals = {J: v for (J, alpha), v in zip(A.col_labels, A.rows[0])}
    assert vals[MultiIndex((2, 0))] == 1
    assert vals[MultiIndex((1, 1))] == 0
    assert vals[MultiIndex((0, 2))] == 1


def test_nonlinear_symbol_depends_on_point():
    h = jc.DiffOp(2, 1, 2, [sx.jet(1, (0, 0)) * sx.jet(1, (2, 0))])
    S = sy.symbol_of(h)
    assert S.get((1, 1, (2, 0)), sx.ZERO) == sx.jet(1, (0, 0))


def test_linear_symbol_diagram_gradient_laplace():
    rng = random.Random(13)
    grad = jc.DiffOp(2, 1, 1, [sx.jet(1, (1, 0)), sx.jet(1, (0, 1))])
    lap = _laplace(2)
    for h in (grad, lap):
        pts = [_point(h, seed=i) for i in range(5)]
        covs = [tuple(sx.random_rational(rng, 5) for _ in range(2)) for _ in range(5)]
        rep = sy.check_linear_symbol_diagram(h, pts, covs)
        assert rep.passed
        assert rep.samples == 5


def test_linear_symbol_diagram_refuses_unequal_lists():
    # zip cut three points and one covector to "commutes on 1 samples"
    h = _wave()
    pts = [_point(h, seed=i) for i in range(3)]
    with pytest.raises(ValueError, match="^3 points but 1 covectors$"):
        sy.check_linear_symbol_diagram(h, pts, [(Q(1), Q(2))])
    # a nonlinear operator is still refused first
    nonlinear = jc.DiffOp(2, 1, 2, [sx.jet(1, (0, 0)) * sx.jet(1, (2, 0))])
    with pytest.raises(ValueError, match="^operator is not linear$"):
        sy.check_linear_symbol_diagram(nonlinear, [_point(nonlinear)], [])


def test_symbol_prolong_matrix_shape_and_identity():
    # for one equation the prolonged symbol at a point of order k is the
    # lift matrix there: entry (i, T) is s_{T - e_i}, so row i sends the
    # powers v^T to v_i * S(v)
    wave = _wave()
    A = ig.lift_system_at(wave, _point(wave))[0]
    # rows D_i h: 2; cols u_T, |T| = 3: 4
    assert (A.nrows, A.ncols) == (2, 4)
    nonlinear = jc.DiffOp(2, 1, 2, [sx.jet(1, (0, 0)) * sx.jet(1, (2, 0)) - sx.jet(1, (1, 0)) * sx.jet(1, (1, 1))
                                    - sx.jet(1, (0, 2))])
    rng = random.Random(4)
    for h in (wave, nonlinear):
        S = sy.symbol_of(h)
        for seed in range(3):
            a = _point(h, seed)
            A = ig.lift_system_at(h, a)[0]
            for _ in range(10):
                v = tuple(sx.random_rational(rng, 5) for _ in range(2))
                powers = [math.prod(Q(v[j]) ** e for j, e in enumerate(T)) for (alpha, T) in A.col_labels]
                s_val = sy.symbol_value(S, 1, a, v)
                for (beta, I), row in zip(A.row_labels, A.rows):
                    i = list(I).index(1)
                    assert sum(x * c for x, c in zip(row, powers)) == Q(v[i]) * s_val


def test_characteristic_test():
    h = _wave()
    a = _point(h)
    S = sy.symbol_of(h)
    assert sy.symbol_value(S, 1, a, (Q(1), Q(1))) == 0
    assert sy.symbol_value(S, 1, a, (Q(1), Q(-1))) == 0
    assert sy.symbol_value(S, 1, a, (Q(1), Q(0))) != 0


def test_sample_variety_points_satisfy_equation():
    h = jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) - sx.jet(1, (0, 2)) + sx.jet(1, (0, 0)) ** 3])
    pts = sy.sample_variety_points(h, 5, seed=3)
    assert len(pts) == 5
    for p in pts:
        vals = h.evaluate_at(p)
        assert all(v == 0 for v in vals)


def test_sample_variety_points_refuses_no_points():
    # a count of 0 or below returned an empty sample
    h = jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))])
    for count in (0, -3):
        with pytest.raises(ValueError, match="^count must be at least 1, got %d$" % count):
            sy.sample_variety_points(h, count, seed=0)
    assert len(sy.sample_variety_points(h, 1, seed=0)) == 1


def test_sampler_raises_without_affine_top_variable():
    h = jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) ** 2 + sx.jet(1, (0, 2)) ** 2])
    with pytest.raises(sy.SamplerError):
        sy.sample_variety_points(h, 3, seed=0)


def test_rank_profile_certified_for_wave():
    h = _wave()
    rep = sy.rank_profile(h, samples=6, seed=1)
    assert rep.certified
    assert rep.generic_rank == 2
    assert rep.constant_on_samples
    assert "certified" in rep.summary()


def test_rank_profile_float_mode():
    h = _laplace(3)
    rep = sy.rank_profile(h, samples=4, seed=2, mode="float")
    assert rep.mode == "float"
    assert rep.min_rank == rep.max_rank == 3


def test_rank_profile_float_ranks_are_ranks_of_the_exact_samples():
    np = pytest.importorskip("numpy")
    # Monge-Ampere with a cubic term: the symbol depends on the point
    h = jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) * sx.jet(1, (0, 2)) - sx.jet(1, (1, 1)) ** 2
                            + sx.jet(1, (0, 0)) ** 3])
    rep = sy.rank_profile(h, samples=8, seed=5, mode="float")
    want = []
    for p in sy.sample_variety_points(h, 8, 5):
        A = ig.lift_system_at(h, p)[0]
        assert all(type(x) is Q for row in A.rows for x in row)
        floats = [[float(x) for x in row] for row in A.rows]
        want.append(int(np.linalg.matrix_rank(np.array(floats), tol=1e-9)))
    assert rep.sampled_ranks == want
    assert len(want) == 8


def test_symbol_is_built_once_and_kept_read_only_on_the_operator():
    h = jc.DiffOp(2, 1, 2, [sx.jet(1, (0, 0)) * sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))])
    S = jc.symbol_table(h)
    assert S is jc.symbol_table(h) is sy.symbol_of(h) is sy.symbol_of(h)
    with pytest.raises(TypeError):
        S[(1, 1, MultiIndex((1, 1)))] = sx.ONE
    assert (1, 1, (1, 1)) not in S
    # a prolongation is an operator of its own, with its own symbol
    P = jc.prolong_op(h, 1)
    assert jc.symbol_table(P) is sy.symbol_of(P) is not S


def _constraint_rows_reference(h, a):
    """The rows of `symbol_constraint_matrix`, each entry evaluated on
    its own, in row order."""
    table = jc.symbol_table(h)
    return [[sx.evaluate(table.get((alpha, beta, J), sx.ZERO), a.assignment()) / multinomial(J)
             for (J, alpha) in sp.sym_component_labels(h.m, h.order, h.n)]
            for beta in range(1, h.n_out + 1)]


def _error(f):
    try:
        f()
    except sx.EvaluationError as err:
        return type(err), str(err)
    return None


@pytest.mark.parametrize("component, base, kind", [
    # the quotient's payload vanishes at x1 = 0; sin comes later in the row
    (sx.jet(1, (2, 0)) / sx.base(1) + sx.prim("sin", sx.base(2)) * sx.jet(1, (0, 2)),
     (0, 1), sx.EvalZeroDivision),
    # sin comes first in the row, before the vanishing quotient
    (sx.prim("sin", sx.base(1)) * sx.jet(1, (2, 0)) + sx.jet(1, (0, 2)) / sx.base(2),
     (1, 0), sx.EvaluationError),
    (sx.jet(1, (2, 0)) / sx.base(1) + sx.prim("sin", sx.base(2)) * sx.jet(1, (0, 2)),
     (1, 1), sx.EvaluationError),
])
def test_symbol_constraint_matrix_raises_the_first_error_of_its_entries(component, base, kind):
    h = jc.DiffOp(2, 1, 2, [component, sx.jet(1, (1, 1)) / (sx.base(1) + 1)])
    chart = h.chart()
    a = jc.JetPoint(chart, base, {label: Q(1, 2) for label in chart.labels})
    got = _error(lambda: sp.symbol_constraint_matrix(h, a))
    assert got == _error(lambda: _constraint_rows_reference(h, a))
    assert got[0] is kind


def test_symbol_constraint_matrix_matches_the_entrywise_rows():
    h = jc.DiffOp(2, 2, 2, [sx.jet(1, (0, 0)) * sx.jet(1, (2, 0)) + sx.jet(2, (1, 1)) / (1 + sx.base(1) ** 2),
                            sx.jet(2, (0, 2)) - sx.base(2) * sx.jet(1, (1, 1))])
    for seed in range(3):
        a = _point(h, seed)
        assert [list(r) for r in sp.symbol_constraint_matrix(h, a).rows] == \
            _constraint_rows_reference(h, a)


def test_rank_summary_reports_why_no_point_was_ranked():
    # a symbol coefficient of 10^400 overflows a float at every sampled
    # point, so no rank is sampled and the summary is the sampling
    # failure, not a varying rank
    h = jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) - 10 ** 400 * sx.jet(1, (0, 2))])
    rep = sy.rank_profile(h, samples=3, seed=0, mode="float")
    assert rep.sampled_ranks == []
    assert rep.summary().startswith("sampling failed: ")
    assert rep.summary() in rep.notes
