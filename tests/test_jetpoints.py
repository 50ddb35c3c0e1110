"""Jet points over one cached chart per (m, n, k), against the per-label
form.

A `JetPoint` stores its jet values as a tuple in the order of its
chart's labels.  The reference here is the dictionary form points had
before: one `MultiIndex` key and one `Fraction` per fiber label, one
`JetVar` per coordinate, with the labels enumerated independently of
`mindex.enumerate_indices` (all exponent tuples, sorted graded-lex).
A warm lift reads the chart and the compiled plan only, which the
last test counts.
"""

import collections
import itertools
import pickle
import re
from math import comb
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetforge import formal as fm
from jetforge import integrability as ig
from jetforge import jetcalc as jc
from jetforge import pfd
from jetforge import symexpr as sx
from jetforge.mindex import MultiIndex
from jetforge.symexpr import BaseVar, JetVar

VALUES = st.sampled_from([0, 1, -2, Q(1, 3), Q(-5, 2), Q(7, 4)])


def _ref_labels(m, n, k):
    indices = [I for I in itertools.product(range(k + 1), repeat=m) if sum(I) <= k]
    indices.sort(key=lambda I: (sum(I), tuple(-e for e in I)))
    return [(alpha, MultiIndex(I)) for I in indices for alpha in range(1, n + 1)]


class _RefPoint:
    """A point the per-label way: a dict keyed by (alpha, MultiIndex)."""

    def __init__(self, m, n, k, base, jets):
        self.m, self.n, self.k = m, n, k
        self.base = tuple(Q(b) for b in base)
        self.jets = {}
        for alpha, I in _ref_labels(m, n, k):
            key = (alpha, MultiIndex(I))
            if key not in jets and (alpha, tuple(I)) not in jets:
                raise ValueError("missing jet value for %s" % (key,))
            self.jets[key] = Q(jets.get(key, jets.get((alpha, tuple(I)))))

    def assignment(self):
        out = {BaseVar(i + 1): v for i, v in enumerate(self.base)}
        for (alpha, I), v in self.jets.items():
            out[JetVar(alpha, I)] = v
        return out

    def project(self, k1):
        jets = {key: v for key, v in self.jets.items() if key[1].degree <= k1}
        return _RefPoint(self.m, self.n, k1, self.base, jets)

    def extend(self, new_jets):
        jets = dict(self.jets)
        for (alpha, I), v in new_jets.items():
            jets[(alpha, MultiIndex(I))] = v
        return _RefPoint(self.m, self.n, self.k + 1, self.base, jets)


def _agrees(p, ref):
    assert (p.chart.m, p.chart.n, p.chart.k) == (ref.m, ref.n, ref.k)
    assert p.base == ref.base
    assert dict(p.jets) == ref.jets
    assert list(p.jets) == list(ref.jets)
    assert all(type(v) is Q for v in p.base + p.values)
    assert p.assignment() == ref.assignment()
    for (alpha, I), v in ref.jets.items():
        assert p[(alpha, I)] == v
        assert p[(alpha, tuple(I))] == v
        assert p[(alpha, list(I))] == v


@st.composite
def points(draw):
    m, n, k = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(0, 3))
    base = [draw(VALUES) for _ in range(m)]
    # keys as plain tuples or as multi-indices, values as ints or fractions
    jets = {}
    for alpha, I in _ref_labels(m, n, k):
        key = (alpha, I if draw(st.booleans()) else tuple(I))
        jets[key] = draw(VALUES)
    top = {(alpha, tuple(I)): draw(VALUES)
           for alpha, I in _ref_labels(m, n, k + 1) if I.degree == k + 1}
    return m, n, k, base, jets, top


@settings(max_examples=60, deadline=None)
@given(points(), st.data())
def test_jet_point_matches_the_per_label_reference(case, data):
    m, n, k, base, jets, top = case
    chart = jc.JetChartSpec(m, n, k)
    p = jc.JetPoint(chart, base, jets)
    ref = _RefPoint(m, n, k, base, jets)
    _agrees(p, ref)
    assert list(chart.labels) == _ref_labels(m, n, k)
    assert list(chart.atoms) == list(ref.assignment())
    # the new values in label order: top is built in that order
    values = list(top.values())
    up = p.extend(*sx.integer_row(values))
    _agrees(up, ref.extend(top))
    assert up.project(k) == p
    for k1 in range(k + 1):
        _agrees(p.project(k1), ref.project(k1))
        assert p.project(k1) == jc.JetPoint(jc.JetChartSpec(m, n, k1), base, ref.project(k1).jets)
    # equal keys in either form give equal points; one changed value does not
    assert p == jc.JetPoint(chart, base, ref.jets)
    label = data.draw(st.sampled_from(_ref_labels(m, n, k)))
    changed = dict(ref.jets)
    changed[label] += 1
    assert p != jc.JetPoint(chart, base, changed)
    # a missing label raises the reference's error
    del changed[label]
    with pytest.raises(ValueError) as got:
        jc.JetPoint(chart, base, changed)
    with pytest.raises(ValueError) as want:
        _RefPoint(m, n, k, base, changed)
    assert str(got.value) == str(want.value)
    # one new value too few or too many
    for wrong in (values[:-1], values + [0]):
        with pytest.raises(ValueError, match="^wrong number of jet values$"):
            p.extend(*sx.integer_row(wrong))


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (4, 1)])
def test_charts_are_cached_prefixes(m, n):
    for k in range(4):
        chart = jc.JetChartSpec(m, n, k)
        assert jc.JetChartSpec(m, n, k) is chart
        assert pickle.loads(pickle.dumps(chart)) is chart
        assert len(chart.indices) == comb(m + k, m)
        assert chart.dim == len(chart.atoms) == m + n * len(chart.indices)
        assert chart.slots == {a: pos for pos, a in enumerate(chart.atoms)}
        assert chart.index == {label: pos for pos, label in enumerate(chart.labels)}
        if k:
            low = jc.JetChartSpec(m, n, k - 1)
            assert chart.indices[:len(low.indices)] == low.indices
            assert chart.labels[:len(low.labels)] == low.labels
            assert all(a is b for a, b in zip(chart.atoms, low.atoms))
            assert [l for l in chart.labels[len(low.labels):] if l[1].degree != k] == []
        with pytest.raises(AttributeError):
            chart.k = k + 1
        assert chart.k == k
    for bad in ((0, n, 1), (m, 0, 1), (m, n, -1)):
        with pytest.raises(ValueError, match=r"^need m >= 1, n >= 1, k >= 0$"):
            jc.JetChartSpec(*bad)


def _curved_kg4():
    x1, x2 = sx.base(1), sx.base(2)
    metric = ig.MetricSpec(4, {
        (1, 1): sx.ONE - x2 ** 2,
        (2, 2): sx.as_expr(Q(-1)) - x1 ** 2,
        (3, 3): sx.as_expr(Q(-1)),
        (4, 4): sx.as_expr(Q(-1)),
    })
    return ig.make_klein_gordon(metric, F1=1, F2=1, K=lambda e: e ** 3)


def test_lift_plan_unknowns_are_the_new_layout_labels():
    h = _curved_kg4()
    for l in (0, 1):
        plan = jc.lift_plan(h, l)
        below = jc.JetChartSpec(4, 1, h.order + l)
        above = jc.JetChartSpec(4, 1, h.order + l + 1)
        assert plan.unknowns == above.labels[len(below.labels):]


def _zero_point(m, n, k):
    chart = jc.JetChartSpec(m, n, k)
    return jc.JetPoint(chart, (0,) * m, {label: 0 for label in chart.labels})


# every entry point that reads a point's level or its membership in the
# equation variety, all through `jc.point_level` and `jc.on_variety`
_ENTRY_POINTS = {
    "lift_system_at": ig.lift_system_at,
    "lift_point": ig.lift_point,
    "formal_solve": lambda h, b: fm.formal_solve(h, b, 4),
    "membership": lambda h, b: pfd.EquationSubtower(h).membership(b),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize("m, n", [(3, 1), (4, 2)], ids=["other_m", "other_n"])
def test_lift_rejects_a_point_of_another_bundle(m, n, entry):
    # h lives on m = 4, n = 1; the zero point is at h's order 2
    h = _curved_kg4()
    with pytest.raises(ValueError, match="point and operator live on different bundles"):
        _ENTRY_POINTS[entry](h, _zero_point(m, n, 2))


def test_a_point_below_the_operator_order_is_a_member_without_a_level():
    h = _curved_kg4()
    assert pfd.EquationSubtower(h).membership(_zero_point(4, 1, 1))
    for entry in ("lift_system_at", "lift_point", "formal_solve"):
        with pytest.raises(ValueError, match="point order below operator order"):
            _ENTRY_POINTS[entry](h, _zero_point(4, 1, 1))
    # below the order, a point of another bundle is still refused
    with pytest.raises(ValueError, match="different bundles"):
        pfd.EquationSubtower(h).membership(_zero_point(3, 1, 1))


def test_a_point_off_the_variety_is_refused_with_its_message():
    # u = 1 and every derivative 0: h = u + u^3 = 2 there
    h = _curved_kg4()
    chart = jc.JetChartSpec(4, 1, 2)
    b = jc.JetPoint(chart, (0,) * 4, {(1, I): int(I.degree == 0) for _, I in chart.labels})
    assert not pfd.EquationSubtower(h).membership(b)
    with pytest.raises(ValueError, match="point does not satisfy the prolonged equations"):
        ig.lift_point(h, b, check=True)
    with pytest.raises(ValueError, match="seed does not satisfy the prolonged equations"):
        fm.formal_solve(h, b, 4)


def test_warm_lift_builds_no_keys_and_converts_no_fractions():
    h = _curved_kg4()
    b = ig.sample_prolonged_points(h, 0, 1, seed=3)[0]
    want = ig.lift_point(h, b)  # builds the plan and the check's batch
    counts = collections.Counter()
    saved = {
        (MultiIndex, "__new__"): vars(MultiIndex)["__new__"],
        (MultiIndex, "_trusted"): vars(MultiIndex)["_trusted"],
        (JetVar, "__init__"): vars(JetVar)["__init__"],
        (Q, "__new__"): vars(Q)["__new__"],
    }
    mi_new, mi_trusted, jv_init, q_new = (
        MultiIndex.__new__, MultiIndex._trusted, JetVar.__init__, Q.__new__)

    def counting_mi_new(cls, entries):
        counts["MultiIndex"] += 1
        return mi_new(cls, entries)

    def counting_mi_trusted(cls, entries):
        counts["MultiIndex"] += 1
        return mi_trusted(entries)

    def counting_jv_init(self, alpha, index):
        counts["JetVar"] += 1
        jv_init(self, alpha, index)

    def counting_q_new(cls, *args, **kwargs):
        if len(args) == 1 and isinstance(args[0], Q):
            counts["Fraction from Fraction"] += 1
        return q_new(cls, *args, **kwargs)

    try:
        type.__setattr__(MultiIndex, "__new__", staticmethod(counting_mi_new))
        type.__setattr__(MultiIndex, "_trusted", classmethod(counting_mi_trusted))
        type.__setattr__(JetVar, "__init__", counting_jv_init)
        type.__setattr__(Q, "__new__", staticmethod(counting_q_new))
        got = ig.lift_point(h, b)
    finally:
        for (cls, name), value in saved.items():
            type.__setattr__(cls, name, value)
    assert got.point == want.point
    assert counts == {}


# ---------------------------------------------------------------------------
# one integer row over one denominator


@settings(max_examples=60, deadline=None)
@given(points(), st.integers(-30, 30).filter(bool))
def test_equal_points_from_different_inputs_are_equal(case, scale):
    m, n, k, base, jets, top = case
    chart = jc.JetChartSpec(m, n, k)
    p = jc.JetPoint(chart, base, jets)
    values = [jets.get(label, jets.get((label[0], tuple(label[1])))) for label in chart.labels]
    row = [Q(v) for v in (*base, *values)]
    nums, den = sx.integer_row(row)
    # the row is in lowest terms, over the lcm of the denominators
    assert p.nums == tuple(nums) and p.den == den
    same = [
        jc.JetPoint.from_values(chart, [Q(b) for b in base], [str(Q(v)) for v in values]),
        jc.JetPoint.from_row(chart, [x * scale for x in nums], den * scale),
        jc.JetPoint(chart, base, dict(zip(chart.labels, values))),
    ]
    if k:
        low = p.project(k - 1)
        same.append(low.extend(*sx.integer_row(values[len(low.chart.labels):])))
    for q in same:
        assert q == p and q.nums == p.nums and q.den == p.den
    # project(extend(x)) is the point again
    up = p.extend(*sx.integer_row(list(top.values())))
    assert up.project(k) == p
    assert up.values[len(p.values):] == tuple(Q(v) for v in top.values())


def test_views_read_as_before():
    chart = jc.JetChartSpec(2, 1, 1)
    p = jc.JetPoint(chart, (Q(1, 2), 0), {(1, (0, 0)): 3, (1, (1, 0)): Q(-2, 3),
                                          (1, (0, 1)): Q(5, 4)})
    assert (p.nums, p.den) == ((6, 0, 36, -8, 15), 12)
    assert repr(p) == "JetPoint(m=2, n=1, k=1, base=(Fraction(1, 2), Fraction(0, 1)))"
    assert p.base == (Q(1, 2), Q(0))
    assert p.values == (Q(3), Q(-2, 3), Q(5, 4))
    assert all(type(v) is Q for v in p.base + p.values)
    assert p.jets == {(1, (0, 0)): 3, (1, (1, 0)): Q(-2, 3), (1, (0, 1)): Q(5, 4)}
    assert p[(1, (1, 0))] == Q(-2, 3) and type(p[(1, [0, 1])]) is Q
    assert p.project(0) == jc.JetPoint(jc.JetChartSpec(2, 1, 0), (Q(1, 2), 0), {(1, (0, 0)): 3})
    assert p.project(0).den == 2


@pytest.mark.parametrize("key", [(1, (5, 5)), (2, (0, 0)), (1, (0, 0, 0))],
                         ids=["above_order", "other_component", "other_m"])
def test_a_jet_key_off_the_chart_is_refused(key):
    chart = jc.JetChartSpec(2, 1, 1)
    jets = {label: 0 for label in chart.labels}
    jets[key] = 9
    jets[(1, (0, 2))] = 1
    with pytest.raises(ValueError, match=r"^jet key %s is not a coordinate of "
                       r"JetChartSpec\(m=2, n=1, k=1\)$" % re.escape(str(key))):
        jc.JetPoint(chart, (0, 0), jets)


def test_project_refuses_orders_off_the_chart():
    p = _zero_point(2, 1, 2)
    with pytest.raises(ValueError, match="^cannot project below order 0, got -1$"):
        p.project(-1)
    with pytest.raises(ValueError, match="^cannot project upward$"):
        p.project(3)
    assert p.project(0) == _zero_point(2, 1, 0)


def test_a_row_is_refused_where_it_cannot_be_a_point():
    chart = jc.JetChartSpec(1, 1, 1)
    with pytest.raises(ValueError, match="^2 coordinates for the 3 of JetChartSpec"):
        jc.JetPoint.from_row(chart, [1, 2], 1)
    with pytest.raises(ValueError, match="^zero denominator$"):
        jc.JetPoint.from_row(chart, [1, 2, 3], 0)
    with pytest.raises(ValueError, match="^zero denominator$"):
        _zero_point(1, 1, 0).extend([1], 0)
    # a negative denominator is turned positive
    assert jc.JetPoint.from_row(chart, [1, -2, 4], -2) == jc.JetPoint.from_values(
        chart, [Q(-1, 2)], [1, -2])


def _count_fractions(fn):
    """fn() and the number of Fractions made while it ran, by either of
    the two constructors that `fractions` has had."""
    count = 0
    saved = {name: vars(Q)[name] for name in ("__new__", "_from_coprime_ints") if name in vars(Q)}

    def counted(make):
        def wrapper(*args, **kwargs):
            nonlocal count
            count += 1
            return make(*args, **kwargs)
        return wrapper

    try:
        type.__setattr__(Q, "__new__", staticmethod(counted(Q.__new__)))
        if "_from_coprime_ints" in saved:
            type.__setattr__(Q, "_from_coprime_ints",
                             classmethod(counted(Q._from_coprime_ints.__func__)))
        out = fn()
    finally:
        for name, value in saved.items():
            type.__setattr__(Q, name, value)
    return out, count


def test_count_fractions_sees_arithmetic():
    _, count = _count_fractions(lambda: Q(1, 2) + Q(1, 3))
    assert count >= 1


def test_warm_minkowski_lift_forms_no_fraction():
    # the point is one integer row over one denominator, and the lift
    # reads it, solves and appends to it in integers: with zero free
    # data a warm lift, membership check included, forms no Fraction
    h = ig.make_klein_gordon(ig.MetricSpec.minkowski(4), F1=1, F2=1, K=lambda e: e ** 3)
    first, second = ig.sample_prolonged_points(h, 0, 2, seed="warm")
    assert first.den != second.den
    ig.lift_point(h, first)  # builds the plan, A, E and the check's batch
    got, count = _count_fractions(lambda: ig.lift_point(h, second, policy="zero"))
    assert count == 0
    assert got.point.project(2) == second
    assert jc.on_variety(h, got.point)
