"""The block inverse of a metric against the full-determinant reference.

`MetricSpec` inverts g at construction, one block at a time (`blocks`):
each entry is a cofactor of its block over that block's determinant,
and entries between blocks are zero.  The reference here is the inverse
as it was computed before, every entry a cofactor of g times the one
1/det g, so on a block-diagonal metric each entry carries the other
blocks' determinants too.  Both are the same rational functions, so the
Klein-Gordon operators built on them take the same values, and every
sampler, lift and formal solve that reads those values gives the same
points.  Every comparison is exact.
"""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetforge import formal as fm
from jetforge import integrability as ig
from jetforge import jetcalc as jc
from jetforge import symbols as sy
from jetforge import symexpr as sx


class _FullDetMetric(ig.MetricSpec):
    """The metric with its inverse computed the old way: adjugate of g
    over det g, whatever blocks g has."""

    def __init__(self, m, entries):
        super().__init__(m, entries)
        inv_det = sx.inverse(sx.det(self.entries))
        self._full_inv = [[sx.ZERO] * m for _ in range(m)]
        for r in range(m):
            for c in range(m):
                minor = [
                    [self.entries[rr][cc] for cc in range(m) if cc != c]
                    for rr in range(m)
                    if rr != r
                ]
                sign = -1 if (r + c) % 2 else 1
                self._full_inv[c][r] = sign * sx.det(minor) * inv_det

    def inverse_entry(self, i, j):
        return self._full_inv[i - 1][j - 1]


def _kg_curved2_entries():
    # tests/corpus/kg_curved2.jf
    x1, x2 = sx.base(1), sx.base(2)
    return 2, {(1, 1): sx.ONE - x2 ** 2 * Q(1, 4), (2, 2): sx.as_expr(Q(-1)) - x1 ** 2 * Q(1, 4)}


def _lift_solve_entries():
    # the curved metric of the lift_solve benchmark
    x1, x2 = sx.base(1), sx.base(2)
    return 4, {(1, 1): sx.ONE - x2 ** 2, (2, 2): sx.as_expr(Q(-1)) - x1 ** 2,
               (3, 3): sx.as_expr(Q(-1)), (4, 4): sx.as_expr(Q(-1))}


METRICS = {"kg_curved2": _kg_curved2_entries, "lift_solve": _lift_solve_entries}

# where the first block's determinant 1 - x2^2/4, resp. 1 - x2^2, vanishes
SINGULAR_X2 = {"kg_curved2": Q(2), "lift_solve": Q(1)}


def _pair(name):
    """(block-inverse operator, full-determinant operator) for one metric."""
    m, entries = METRICS[name]()
    cubic = lambda e: e ** 3
    return (ig.make_klein_gordon(ig.MetricSpec(m, entries), F1=1, F2=1, K=cubic),
            ig.make_klein_gordon(_FullDetMetric(m, entries), F1=1, F2=1, K=cubic))


def _random_point(chart, rng, x2=None):
    base = [sx.random_rational(rng, 5) for _ in range(chart.m)]
    if x2 is not None:
        base[1] = x2
    return jc.JetPoint.from_values(chart, base, [sx.random_rational(rng, 5)
                                                 for _ in range(len(chart.slots) - chart.m)])


def _one_block_entries():
    x1, x2, x3 = sx.base(1), sx.base(2), sx.base(3)
    return [
        # tests/corpus/offdiag.jf
        (2, {(1, 1): sx.as_expr(2), (1, 2): x1 * Q(1, 2), (2, 1): x1 * Q(1, 2),
             (2, 2): sx.as_expr(-1)}),
        # the Klein-Gordon metric of the spencer_tables benchmark
        (3, {(1, 1): sx.ONE + x2 ** 2 * Q(1, 4), (2, 2): sx.as_expr(Q(-1)) - x1 ** 2 * Q(1, 4),
             (3, 3): sx.as_expr(Q(-1)) + x1 * x2 * Q(1, 8),
             (1, 2): x3 * Q(1, 3), (2, 1): x3 * Q(1, 3),
             (1, 3): x1 * x2 * Q(1, 5), (3, 1): x1 * x2 * Q(1, 5),
             (2, 3): Q(1, 7) + x2 * Q(1, 6), (3, 2): Q(1, 7) + x2 * Q(1, 6)}),
        # the curved m=2 metric of tests/test_plans.py
        (2, {(1, 1): sx.ONE - x2 ** 2 * Q(1, 4), (2, 2): sx.as_expr(Q(-1)) - x1 ** 2 * Q(1, 4),
             (1, 2): x1 * Q(1, 3), (2, 1): x1 * Q(1, 3)}),
    ]


@pytest.mark.parametrize("m, entries", _one_block_entries(), ids=["offdiag", "spencer_m3", "plans_m2"])
def test_one_block_metric_is_built_as_before_term_for_term(m, entries):
    metric, ref = ig.MetricSpec(m, entries), _FullDetMetric(m, entries)
    assert metric.blocks() == [list(range(m))]
    terms = lambda e: list(e._terms.items())
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            assert terms(metric.inverse_entry(i, j)) == terms(ref.inverse_entry(i, j))
    h = ig.make_klein_gordon(metric, F1=1, F2=1, K=lambda e: e ** 3)
    want = ig.make_klein_gordon(ref, F1=1, F2=1, K=lambda e: e ** 3)
    assert terms(h.components[0]) == terms(want.components[0])


def _values_or_fault(op, p):
    try:
        return op.evaluate_at(p)
    except sx.EvalZeroDivision:
        return "division by zero"


@pytest.mark.parametrize("name", sorted(METRICS))
def test_block_operator_is_smaller_and_takes_the_reference_values(name):
    h, ref = _pair(name)
    assert len(h.components[0]._terms) < len(ref.components[0]._terms)
    rng = random.Random("values:" + name)
    for l in (0, 1):
        ph, pref = jc.prolong_op(h, l), jc.prolong_op(ref, l)
        for _ in range(8):
            p = _random_point(ph.chart(), rng)
            assert _values_or_fault(ph, p) == _values_or_fault(pref, p)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_block_operator_divides_by_zero_where_the_reference_does(name):
    h, ref = _pair(name)
    rng = random.Random("singular:" + name)
    for _ in range(3):
        p = _random_point(h.chart(), rng, x2=SINGULAR_X2[name])
        for op in (h, ref):
            with pytest.raises(sx.EvalZeroDivision):
                op.evaluate_at(p)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_samples_and_lifts_match_the_reference(name):
    h, ref = _pair(name)
    points = sy.sample_variety_points(h, 4, "oracle:" + name)
    assert points == sy.sample_variety_points(ref, 4, "oracle:" + name)
    for idx, b in enumerate(points):
        for level in (0, 1):
            seed = "oracle:%s:%d:%d" % (name, idx, level)
            got = ig.lift_point(h, b, policy="random", seed=seed)
            want = ig.lift_point(ref, b, policy="random", seed=seed)
            assert (got.point, got.free_labels, got.rank) == (want.point, want.free_labels, want.rank)
            b = got.point


@pytest.mark.parametrize("name", sorted(METRICS))
def test_formal_solve_matches_the_reference(name):
    h, ref = _pair(name)
    seed_pt = ig.sample_prolonged_points(h, 0, 1, seed="formal:" + name)[0]
    got = fm.formal_solve(h, seed_pt, 6, policy="random", seed="formal:" + name)
    want = fm.formal_solve(ref, seed_pt, 6, policy="random", seed="formal:" + name)
    assert got.top_jet == want.top_jet
    assert got.free_counts == want.free_counts


@st.composite
def _polys(draw, m, min_terms=0):
    # min_terms to three terms c * x_a^p * x_b^q, total degree at most 2;
    # terms may cancel
    e = sx.ZERO
    for _ in range(draw(st.integers(min_terms, 3))):
        term = sx.as_expr(draw(st.sampled_from([-2, -1, 1, 2])))
        for _ in range(draw(st.integers(0, 2))):
            term = term * sx.base(draw(st.integers(1, m)))
        e = e + term
    return e


@st.composite
def _block_metrics(draw):
    """(m, drawn blocks, entries): a symmetric metric, block diagonal up
    to a permutation, with blocks of size 1-3; some blocks are v v^T,
    which is singular at size 2 and up."""
    m = draw(st.integers(1, 4))
    rest = draw(st.permutations(range(1, m + 1)))
    blocks = []
    while rest:
        size = draw(st.integers(1, min(3, len(rest))))
        blocks.append(sorted(rest[:size]))
        rest = rest[size:]
    entries = {}
    for block in blocks:
        if draw(st.integers(0, 4)) == 0:
            v = [draw(_polys(m)) for _ in block]
            for a, i in enumerate(block):
                for b, j in enumerate(block):
                    entries[(i, j)] = v[a] * v[b]
            continue
        for a, i in enumerate(block):
            for j in block[a:]:
                entries[(i, j)] = entries[(j, i)] = draw(_polys(m, int(i == j)))
    return m, blocks, entries


@settings(max_examples=60, deadline=None)
@given(_block_metrics())
def test_block_inverse_is_the_inverse(drawn):
    m, blocks, entries = drawn
    grid = [[sx.as_expr(entries.get((i, j), 0)) for j in range(1, m + 1)] for i in range(1, m + 1)]
    if sx.is_identically_zero(sx.det(grid)):
        # refused when it is constructed, never a ZeroDivisionError
        with pytest.raises(ValueError, match="metric expression is singular"):
            ig.MetricSpec(m, entries)
        return
    metric = ig.MetricSpec(m, entries)
    ref = _FullDetMetric(m, entries)
    where = {i: tuple(b) for b in blocks for i in b}
    for found in metric.blocks():
        # structural zeros inside a drawn block may split it further
        assert len({where[i + 1] for i in found}) == 1
    for i in range(1, m + 1):
        for k in range(1, m + 1):
            got = metric.inverse_entry(i, k)
            if where[i] != where[k]:
                assert got.is_zero()
            assert sx.is_identically_zero(got - ref.inverse_entry(i, k))
            product = sx.ZERO
            for j in range(1, m + 1):
                product = product + metric.inverse_entry(i, j) * metric.entries[j - 1][k - 1]
            assert sx.is_identically_zero(product - (1 if i == k else 0))


def test_an_identically_zero_entry_only_merges_blocks():
    # g_12 = x1 * (1/x1) - 1 is structurally nonzero and identically 0,
    # and g_21 is left 0: the symmetry check accepts the pair
    x1, x2 = sx.base(1), sx.base(2)
    entries = {(1, 1): 1 + x2 ** 2, (1, 2): x1 * sx.inverse(x1) - 1, (2, 2): -1 - x1 ** 2,
               (3, 3): sx.as_expr(-1)}
    metric = ig.MetricSpec(3, entries)
    assert metric.blocks() == [[0, 1], [2]]
    ref = _FullDetMetric(3, entries)
    for i in range(1, 4):
        for k in range(1, 4):
            assert sx.is_identically_zero(metric.inverse_entry(i, k) - ref.inverse_entry(i, k))


@pytest.mark.parametrize("name", sorted(METRICS))
def test_construction_takes_no_determinant_larger_than_a_block(name, monkeypatch):
    # both metrics have blocks of size 1 only; the full grid is 4 x 4,
    # resp. 2 x 2, and is never expanded
    m, entries = METRICS[name]()
    sizes, det = [], sx.det
    monkeypatch.setattr(sx, "det", lambda grid: sizes.append(len(grid)) or det(grid))
    metric = ig.MetricSpec(m, entries)
    largest = max(len(b) for b in metric.blocks())
    assert largest == 1
    assert sizes and max(sizes) <= largest
    # every inverse entry is read from the table built there
    monkeypatch.setattr(sx, "det", None)
    ig.make_klein_gordon(metric, F1=1, F2=1, K=lambda e: e ** 3)
