import math
import random
from fractions import Fraction as Q

import pytest

from jetforge import jetcalc as jc
from jetforge import symexpr as sx
from jetforge.mindex import MultiIndex
from jetforge.symexpr import BaseVar, JetVar

from random_exprs import random_polynomial


def _wave():
    return jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))])


def test_chart_labels_are_graded_lex_outer():
    chart = jc.JetChartSpec(2, 2, 1)
    assert list(chart.labels) == [
        (1, MultiIndex((0, 0))), (2, MultiIndex((0, 0))),
        (1, MultiIndex((1, 0))), (2, MultiIndex((1, 0))),
        (1, MultiIndex((0, 1))), (2, MultiIndex((0, 1))),
    ]
    assert chart.dim == 2 + 6


def test_jet_point_validation_and_projection():
    chart = jc.JetChartSpec(2, 1, 1)
    p = jc.JetPoint(chart, (Q(0), Q(0)), {
        (1, (0, 0)): Q(1), (1, (1, 0)): Q(2), (1, (0, 1)): Q(3)})
    assert p[(1, MultiIndex((1, 0)))] == Q(2)
    q = p.project(0)
    assert q.chart.k == 0
    with pytest.raises(ValueError):
        jc.JetPoint(chart, (Q(0), Q(0)), {(1, (0, 0)): Q(1)})


def test_total_derivative_basic():
    x1 = sx.base(1)
    u10 = sx.jet(1, (1, 0))
    e = x1 * u10
    d = jc.total_derivative(e, 1)
    assert d == u10 + x1 * sx.jet(1, (2, 0))


def test_total_derivatives_commute():
    rng = random.Random(3)
    atoms = [BaseVar(1), BaseVar(2), JetVar(1, MultiIndex((0, 0))),
             JetVar(1, MultiIndex((1, 0))), JetVar(1, MultiIndex((1, 1)))]
    for _ in range(10):
        e = random_polynomial(rng, atoms, degree=3, terms=4, bound=6)
        d12 = jc.total_derivative(jc.total_derivative(e, 1), 2)
        d21 = jc.total_derivative(jc.total_derivative(e, 2), 1)
        assert (d12 - d21).is_zero()


def test_prolong_wave_level1_components():
    h = _wave()
    P = jc.prolong_op(h, 1)
    assert P.order == 3
    assert tuple(P.labels) == (
        (1, MultiIndex((0, 0))), (1, MultiIndex((1, 0))), (1, MultiIndex((0, 1))))
    assert P.components[0] == h.components[0]
    assert P.components[1] == sx.jet(1, (3, 0)) - sx.jet(1, (1, 2))
    assert P.components[2] == sx.jet(1, (2, 1)) - sx.jet(1, (0, 3))


def test_prolong_component_count():
    h = _wave()
    for l in range(4):
        P = jc.prolong_op(h, l)
        assert P.n_out == math.comb(2 + l, l)


def test_jet_of_section_matches_derivatives():
    x1, x2 = sx.base(1), sx.base(2)
    psi = jc.SectionPoly(2, [(x1 + 2 * x2) ** 3])
    p = (Q(1), Q(-1))
    jp = jc.jet_of_section(psi, p, 2)
    # psi(p) = (1 - 2)^3 = -1; d/dx1 = 3(x1+2x2)^2 -> 3; d/dx2 -> 6
    assert jp[(1, MultiIndex((0, 0)))] == Q(-1)
    assert jp[(1, MultiIndex((1, 0)))] == Q(3)
    assert jp[(1, MultiIndex((0, 1)))] == Q(6)
    assert jp[(1, MultiIndex((2, 0)))] == Q(-6)
    assert jp[(1, MultiIndex((1, 1)))] == Q(-12)
    assert jp[(1, MultiIndex((0, 2)))] == Q(-24)


def test_residual_of_section_zero_for_solutions():
    h = _wave()
    x1, x2 = sx.base(1), sx.base(2)
    sol = jc.SectionPoly(2, [(x1 + x2) ** 4])
    bad = jc.SectionPoly(2, [x1 ** 2])
    pts = [(Q(0), Q(0)), (Q(1), Q(2)), (Q(-1, 2), Q(1, 3))]
    assert all(v == 0 for vals in jc.residual_of_section(h, sol, pts) for v in vals)
    res = jc.residual_of_section(h, bad, pts)
    assert any(v != 0 for vals in res for v in vals)


def test_evaluate_prolongation_on_prolonged_jet():
    # chain rule consistency: prolong then evaluate at a higher jet of a
    # solution equals iterated derivatives of the residual, which vanish
    h = _wave()
    x1, x2 = sx.base(1), sx.base(2)
    sol = jc.SectionPoly(2, [(x1 - x2) ** 5])
    P = jc.prolong_op(h, 2)
    jp = jc.jet_of_section(sol, (Q(2), Q(1)), 4)
    vals = P.evaluate_at(jp)
    assert all(v == 0 for v in vals)


def test_linear_detection_and_classical_round_trip():
    coeffs = {
        (1, 1, MultiIndex((2, 0))): sx.base(1) ** 2,
        (1, 1, MultiIndex((0, 2))): sx.as_expr(Q(-1)),
        (1, 1, MultiIndex((0, 0))): sx.base(2),
    }
    h = jc.DiffOp(2, 1, 2, [sum((c * sx.jet(alpha, I) for (alpha, _, I), c in coeffs.items()),
                                sx.ZERO)])
    assert h.is_linear()
    back = jc.bundle_to_classical(h)
    assert back == coeffs
    nonlin = jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) * sx.jet(1, (0, 0))])
    assert not nonlin.is_linear()


def _per_label_classical(h):
    # the coefficient table read chart label by chart label, zeros dropped
    if not h.is_linear():
        raise ValueError("operator is not linear")
    coeffs = {}
    for beta, comp in enumerate(h.components, start=1):
        for alpha, I in h.chart().labels:
            c = sx.differentiate(comp, JetVar(alpha, I))
            if not c.is_zero():
                coeffs[(alpha, beta, I)] = c
    return coeffs


def _is_linear_with_remainder(h):
    # linear in the jets with jet-free coefficients, and nothing of the
    # jets left once the linear part is taken off
    for c in h.components:
        rest = c
        for v in c.jet_vars():
            coef = sx.differentiate(c, v)
            if any(isinstance(w, JetVar) for w in coef.free_vars()):
                return False
            rest = rest - coef * sx.Expr.variable(v)
        if any(isinstance(w, JetVar) for w in rest.free_vars()):
            return False
    return True


def _base_coefficient(rng, xs):
    # a polynomial, a polynomial over 1 + x^2, or one plus a primitive
    p = random_polynomial(rng, xs)
    kind = rng.randrange(3)
    if kind == 1:
        return p * sx.inverse(1 + sx.Expr.variable(rng.choice(xs)) ** 2)
    if kind == 2:
        return p + sx.prim(rng.choice(("sin", "exp")), random_polynomial(rng, xs))
    return p


def _random_linear_operator(rng):
    m, n, order = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2)
    chart = jc.JetChartSpec(m, n, order)
    xs = chart.atoms[:m]
    comps = []
    for _ in range(rng.randint(1, 3)):
        comp = _base_coefficient(rng, xs)
        for alpha, I in rng.sample(chart.labels, rng.randint(0, len(chart.labels))):
            comp = comp + _base_coefficient(rng, xs) * sx.jet(alpha, I)
        comps.append(comp)
    return jc.DiffOp(m, n, order, comps)


def _nonlinear_term(rng, chart):
    # a jet times a jet, or a jet inside a quotient or a primitive
    u = sx.jet(*rng.choice(chart.labels))
    v = sx.jet(*rng.choice(chart.labels))
    return rng.choice((u * v, u ** 2 * sx.base(1), sx.inverse(1 + u ** 2),
                       sx.prim("sin", u), sx.prim("exp", sx.base(1) + v) * u))


def test_bundle_to_classical_is_the_per_label_table_in_its_order():
    rng = random.Random(20)
    for _ in range(60):
        h = _random_linear_operator(rng)
        assert list(jc.bundle_to_classical(h).items()) == list(_per_label_classical(h).items())


def test_is_linear_is_the_check_with_the_remainder_test():
    rng = random.Random(21)
    for trial in range(80):
        h = _random_linear_operator(rng)
        if trial % 2:
            comps = list(h.components)
            i = rng.randrange(len(comps))
            comps[i] = comps[i] + _nonlinear_term(rng, h.chart())
            h = jc.DiffOp(h.m, h.n, h.order, comps)
        assert h.is_linear() == _is_linear_with_remainder(h) == (trial % 2 == 0)
    nonlinear = jc.DiffOp(2, 1, 1, [sx.jet(1, (1, 0)) * sx.jet(1, (0, 1))])
    assert not nonlinear.is_linear() and not _is_linear_with_remainder(nonlinear)
    with pytest.raises(ValueError, match="^operator is not linear$"):
        jc.bundle_to_classical(nonlinear)


def test_iota_reindex_labels_and_pullback():
    io = jc.IotaReindex(2, 1, 2, 1)
    assert io.label_map[(1, MultiIndex((1, 0)))] == (1, MultiIndex((1, 0)))
    # inner position 3 is (1, (0,1)); shifting by J = (1,0) lands on u_(1,1)
    assert io.label_map[(3, MultiIndex((1, 0)))] == (1, MultiIndex((1, 1)))
    assert io.pull_expr(sx.jet(3, (1, 0))) == sx.jet(1, (1, 1))


def test_iota_point_embed_consistent_with_pull_expr():
    io = jc.IotaReindex(2, 1, 2, 1)
    x1, x2 = sx.base(1), sx.base(2)
    psi = jc.SectionPoly(2, [x1 ** 3 * x2 + x2 ** 2])
    jp = jc.jet_of_section(psi, (Q(1), Q(2)), 3)
    emb = io.point_embed(jp)
    for (pos, J), (alpha, IJ) in io.label_map.items():
        assert emb[(pos, J)] == jp[(alpha, IJ)]


def test_diffop_rejects_overflow_order():
    with pytest.raises(ValueError, match="component uses jets above the declared order"):
        jc.DiffOp(2, 1, 1, [sx.jet(1, (2, 0))])


@pytest.mark.parametrize("m, n, order, component, var", [
    # u2 with n = 1: condition 1 read "every top-order coefficient is
    # the zero expression"
    (1, 1, 1, sx.jet(2, (1,)), "u2[(1)]"),
    # x5 on m = 2: conditions 2 and 3 failed with "sampling failed"
    (2, 1, 2, sx.jet(1, (2, 0)) - sx.jet(1, (0, 2)) + sx.base(5), "x5"),
    (2, 1, 2, sx.jet(1, (0, 0, 1)), "u[(0,0,1)]"),
    # inside a quotient too
    (2, 1, 2, sx.jet(1, (2, 0)) * sx.inverse(1 + sx.base(3) ** 2), "x3"),
], ids=["fiber", "base", "multi_index", "quotient"])
def test_diffop_refuses_a_variable_off_its_chart(m, n, order, component, var):
    with pytest.raises(ValueError) as err:
        jc.DiffOp(m, n, order, [component])
    assert str(err.value) == ("component uses %s, which is not a coordinate of the chart "
                              "with m = %d, n = %d" % (var, m, n))


@pytest.mark.parametrize("call, message", [
    # x3 on m = 2: jet_of_section failed later with "no value assigned to x3"
    (lambda: jc.SectionPoly(2, [sx.base(3)]),
     "section component uses x3, which is not a base variable for m = 2"),
    (lambda: jc.SectionPoly(2, [sx.base(1) * sx.inverse(1 + sx.base(3) ** 2)]),
     "section component uses x3, which is not a base variable for m = 2"),
    # alpha = 0 read the last component through a negative index
    (lambda: jc.SectionPoly(2, [sx.base(1), sx.base(2)]).derivative(0, (1, 0)),
     "component alpha = 0 is outside 1..2"),
    (lambda: jc.SectionPoly(1, [sx.base(1)]).derivative(2, (1,)),
     "component alpha = 2 is outside 1..1"),
    # an index longer than m differentiated by x3 and returned 0
    (lambda: jc.SectionPoly(2, [sx.base(1)]).derivative(1, (0, 0, 1)),
     "index (0, 0, 1) has 3 entries, need 2"),
    (lambda: jc.SectionPoly(2, [sx.base(1)]).derivative(1, (1,)),
     "index (1,) has 1 entries, need 2"),
    # a negative entry was skipped: d^(-1,0) x1 returned x1
    (lambda: jc.SectionPoly(2, [sx.base(1)]).derivative(1, (-1, 0)),
     "multi-index entries must be nonnegative: (-1, 0)"),
], ids=["base", "quotient", "alpha_0", "alpha_past_n", "long_index", "short_index",
        "negative_entry"])
def test_section_refuses_what_it_cannot_use(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("component", [
    sx.jet(1, (2, 0)) - sx.param("c") * sx.jet(1, (0, 2)),
    # inside a quotient too
    sx.jet(1, (2, 0)) * sx.inverse(1 + sx.param("c") ** 2),
], ids=["coefficient", "quotient"])
def test_diffop_refuses_a_parameter_without_a_value(component):
    # a leftover parameter is no chart coordinate: evaluating it later
    # would fail far from where it came in
    with pytest.raises(ValueError) as err:
        jc.DiffOp(2, 1, 2, [component])
    assert str(err.value) == "component uses the parameter c, which has no value; substitute it first"


def test_prolongation_checks_no_jet_degree(monkeypatch):
    # the operator a caller passes in is checked; its prolongations have
    # the right jet degree by construction
    h = jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) * sx.jet(1, (0, 0)) - sx.jet(1, (0, 2))])
    calls = []
    real = jc.DiffOp.__init__
    monkeypatch.setattr(jc.DiffOp, "__init__", lambda *a: calls.append(a) or real(*a))
    top = jc.prolong_op(h, 3)
    assert calls == []
    assert top.order == 5
    assert max(c.max_jet_degree() for c in top.components) == 5
