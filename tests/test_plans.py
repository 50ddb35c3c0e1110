"""Operator plans against the algorithms they replace.

`prolong_op` builds each level once from the level below and keeps it
on the operator; `lift_system_at` evaluates a lift plan compiled once
per (operator, level); `variety_codim` and condition 2 read their ranks
off the symbol, by closed forms.  The references here recompute
everything per point: a fresh prolongation by iterated total
derivatives from the operator itself (axes in increasing order), then
one `differentiate` and one `evaluate` per entry, and for condition 2
the symbolic route, a substitution and a division-free elimination.
Lift plans read their Jacobian off the operator's symbol
by an index shift, so random polynomial operators (nonlinear in the
top-order jets, or declared above their actual order) check the shift,
and the symbol matrix, against that reference.  Every comparison is
exact.
"""

import collections
import contextlib
import io
import math
import os
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetforge import cli
from jetforge import formal as fm
from jetforge import integrability as ig
from jetforge import jetcalc as jc
from jetforge import spencer as sp
from jetforge import symbols as sy
from jetforge import symexpr as sx
from jetforge.mindex import MultiIndex, enumerate_indices, multinomial
from jetforge.symexpr import JetVar

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def _curved_metric(m):
    # nonconstant near the origin, so the inverse carries quotients by
    # nonconstant determinants; off the diagonal only at m = 2, where
    # the prolonged expressions stay small enough for the reference
    x1, x2 = sx.base(1), sx.base(2)
    entries = {(1, 1): sx.ONE - x2 ** 2 * Q(1, 4), (2, 2): sx.as_expr(Q(-1)) - x1 ** 2 * Q(1, 4)}
    for i in range(3, m + 1):
        entries[(i, i)] = sx.as_expr(Q(-1))
    if m == 2:
        entries[(1, 2)] = entries[(2, 1)] = x1 * Q(1, 3)
    return ig.MetricSpec(m, entries)


def _kg(m):
    return ig.make_klein_gordon(_curved_metric(m), F1=1, F2=1, K=lambda e: e ** 3)


def _corpus_op(name):
    # a fresh operator on every call, with nothing prolonged or compiled
    # yet: `cli.parse_problem_file` shares one per text
    with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
        return cli._parse.__wrapped__(fh.read()).operator


SCALAR_CORPUS = sorted(name for name in os.listdir(CORPUS)
                       if name.endswith(".jf") and _corpus_op(name).n_out == 1)


_REF_PROLONGED = {}


def _ref_prolong(h, l):
    # operators with equal components share one reference; it does not
    # depend on anything kept on h
    key = (h.m, h.components, l)
    if key not in _REF_PROLONGED:
        comps, labels = [], []
        for I in jc.JetChartSpec(h.m, h.n, l).indices:
            for beta in range(1, h.n_out + 1):
                e = h.components[beta - 1]
                for i, times in enumerate(I, start=1):
                    for _ in range(times):
                        e = jc.total_derivative(e, i)
                comps.append(e)
                labels.append((beta, I))
        _REF_PROLONGED[key] = (comps, labels)
    return _REF_PROLONGED[key]


def _ref_lift_system(h, b):
    l = b.chart.k - h.order
    top = h.order + l + 1
    unknowns = [(alpha, T)
                for T in enumerate_indices(h.m, top)
                for alpha in range(1, h.n + 1)]
    assignment = b.assignment()
    for alpha, T in unknowns:
        assignment[JetVar(alpha, T)] = Q(0)
    rows, rhs, row_labels = [], [], []
    for comp, (beta, I) in zip(*_ref_prolong(h, l + 1)):
        if I.degree != l + 1:
            continue
        rows.append([sx.evaluate(sx.differentiate(comp, JetVar(alpha, T)), assignment)
                     for alpha, T in unknowns])
        rhs.append(-sx.evaluate(comp, assignment))
        row_labels.append((beta, I))
    return rows, rhs, row_labels, unknowns


def _random_point(h, k, rng):
    chart = jc.JetChartSpec(h.m, h.n, k)
    base = tuple(Q(rng.randint(-2, 2), 5) for _ in range(h.m))
    jets = {(alpha, I): sx.random_rational(rng, 4) for alpha, I in chart.labels}
    return jc.JetPoint(chart, base, jets)


def _zero_heavy_points(h, k, rng):
    """A random point with its base at the origin, and one with half of
    its jet coordinates set to 0: most terms of a lift row vanish."""
    b = _random_point(h, k, rng)
    origin = jc.JetPoint(b.chart, (Q(0),) * h.m, b.jets)
    b = _random_point(h, k, rng)
    jets = dict(b.jets)
    for label in rng.sample(b.chart.labels, len(b.chart.labels) // 2):
        jets[label] = Q(0)
    return [origin, jc.JetPoint(b.chart, b.base, jets)]


def _check_lift_system(h, b):
    A, R, unknowns, _ = ig.lift_system_at(h, b)
    rows, ref_rhs, row_labels, ref_unknowns = _ref_lift_system(h, b)
    assert [list(r) for r in A.rows] == rows
    nums, den = R
    assert [Q(x, den) for x in nums] == ref_rhs
    assert list(A.row_labels) == row_labels
    assert unknowns == ref_unknowns
    assert list(A.col_labels) == ref_unknowns


def _system():
    # two components in two unknowns, so rows and columns interleave
    # beta and alpha
    x1, x2 = sx.base(1), sx.base(2)
    u, v = (lambda I: sx.jet(1, I)), (lambda I: sx.jet(2, I))
    return jc.DiffOp(2, 2, 1, [u((1, 0)) * v((0, 0)) + x2 * v((0, 1)),
                               u((0, 1)) - x1 * v((1, 0)) ** 2])


CASES = [("kg m=2", lambda: _kg(2)), ("kg m=3", lambda: _kg(3)),
         ("kg m=4", lambda: _kg(4)), ("nonlinear.jf", lambda: _corpus_op("nonlinear.jf")),
         ("system n=2", _system)]


@pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
def test_prolong_op_matches_fresh_prolongation_and_is_kept(name, make):
    h = make()
    # the highest level first: lower levels come from the same build
    levels = {l: jc.prolong_op(h, l) for l in range(3, -1, -1)}
    assert levels[0] is h
    for l, P in levels.items():
        assert jc.prolong_op(h, l) is P
        comps, labels = _ref_prolong(h, l)
        assert list(P.labels) == labels
        assert list(P.components) == comps
        assert P.order == h.order + l


@pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
def test_lift_system_at_matches_per_entry_reference(name, make):
    h = make()
    rng = random.Random("plans:%s" % name)
    # two points at the lower levels: the second one reuses the plan
    for l, count in ((0, 2), (1, 2), (2, 1)):
        for _ in range(count):
            _check_lift_system(h, _random_point(h, h.order + l, rng))
        assert jc.lift_plan(h, l) is jc.lift_plan(h, l)
    # points where most terms vanish, drawn apart from the ones above
    rng = random.Random("plans at zeros:%s" % name)
    for l in (0, 1, 2):
        for b in _zero_heavy_points(h, h.order + l, rng):
            _check_lift_system(h, b)


def _batch_reads(batch):
    """The slots a batch reads, those of its quotient payloads too."""
    out = set(batch.read)
    for _, inner in batch.special:
        out |= _batch_reads(inner)
    return out


@pytest.mark.parametrize("name,make", CASES, ids=[c[0] for c in CASES])
def test_lift_plans_read_only_the_points_own_chart(name, make):
    # the new coordinates are set to zero when a plan is compiled, so
    # its batch never holds them and reads only the point's own chart
    h = make()
    for l in (0, 1, 2):
        plan = jc.lift_plan(h, l)
        below = jc.JetChartSpec(h.m, h.n, h.order + l)
        held = set()
        for a in plan.batch.atoms:
            held |= sx.Expr.variable(a).free_vars()
        assert not [v for v in held if isinstance(v, JetVar) and v.index.degree > below.k]
        assert held <= set(below.atoms)
        assert max(_batch_reads(plan.batch)) < below.dim


@pytest.mark.parametrize("metric", [ig.MetricSpec.minkowski(4), _curved_metric(4)],
                         ids=["minkowski", "curved"])
def test_lift_plan_batch_holds_each_symbol_entry_once_then_the_rows(metric):
    # no zero and no repeat: the distinct symbol values, then one right-hand
    # side per row; Minkowski m = 4 has 4 symbol entries and 4, 10, 20, 35 rows
    h = ig.make_klein_gordon(metric, F1=1, F2=1, K=lambda e: e ** 3)
    for l, want in enumerate((8, 14, 24, 39)):
        plan = jc.lift_plan(h, l)
        assert len(plan.batch.entries) == len(plan.sigma) + len(plan.rhs) == want
        assert len(set(plan.sigma)) == len(plan.sigma)
        assert set(plan.sigma).isdisjoint(plan.rhs)
        assert {p for row in plan.entries for _, p in row} == set(plan.sigma)


def test_lift_raises_the_first_fault_in_row_order():
    # row one, D_1 h_1, has cos(x1) on its right-hand side; row two,
    # D_1 h_2, has the symbol value 1/(x1 - x2), which divides by zero at
    # (1, 1); row one's error comes first, as it does row by row
    x1, x2 = sx.base(1), sx.base(2)
    h = jc.DiffOp(2, 1, 1, [sx.jet(1, (1, 0)) + sx.prim("sin", x1),
                            sx.jet(1, (0, 1)) / (x1 - x2)])
    b = jc.JetPoint.from_values(jc.JetChartSpec(2, 1, 1), (1, 1), [0, 0, 0])
    message = "^exact evaluation of transcendental primitive 'cos'$"
    with pytest.raises(sx.EvaluationError, match=message):
        _ref_lift_system(h, b)
    with pytest.raises(sx.EvaluationError, match=message):
        ig.lift_system_at(h, b)


@st.composite
def _polynomial_ops(draw):
    """Random polynomial operators, possibly nonlinear in the top-order
    jets and possibly declared above their actual order."""
    m, n, n_out = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    k = draw(st.integers(1, 2))
    chart = jc.JetChartSpec(m, n, k)
    atoms = [sx.base(i) for i in range(1, m + 1)]
    atoms += [sx.jet(alpha, I) for alpha, I in chart.labels]
    tops = [sx.jet(alpha, I) for alpha, I in chart.labels if I.degree == k]
    coef = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)])
    components = []
    for _ in range(n_out):
        e = sx.ZERO
        for _ in range(draw(st.integers(1, 3))):
            mono = sx.ONE
            for a in draw(st.lists(st.sampled_from(atoms), max_size=3)):
                mono = mono * a
            e = e + draw(coef) * mono
        if draw(st.booleans()):
            e = e + draw(coef) * draw(st.sampled_from(tops)) * draw(st.sampled_from(tops))
        components.append(e)
    return jc.DiffOp(m, n, k + draw(st.integers(0, 1)), components)


@settings(max_examples=30, deadline=None)
@given(_polynomial_ops(), st.integers(0, 2 ** 32))
def test_shifted_symbol_matches_per_entry_reference_on_random_operators(h, seed):
    rng = random.Random(seed)
    for l in (0, 1):
        b = _random_point(h, h.order + l, rng)
        A, R, unknowns, _ = ig.lift_system_at(h, b)
        rows, ref_rhs, row_labels, ref_unknowns = _ref_lift_system(h, b)
        assert [list(r) for r in A.rows] == rows
        nums, den = R
        assert [Q(x, den) for x in nums] == ref_rhs
        assert list(A.row_labels) == row_labels
        assert unknowns == ref_unknowns
    a = _random_point(h, h.order, rng)
    S = sp.symbol_constraint_matrix(h, a)
    assignment = a.assignment()
    assert list(S.row_labels) == list(range(1, h.n_out + 1))
    for beta, comp in enumerate(h.components, start=1):
        for (J, alpha), got in zip(S.col_labels, S.rows[beta - 1]):
            want = sx.evaluate(sx.differentiate(comp, JetVar(alpha, J)), assignment) / multinomial(J)
            assert got == want, (beta, alpha, J)


def test_lift_system_returns_a_fresh_label_list():
    h = _kg(2)
    b = _random_point(h, 2, random.Random(5))
    _, _, unknowns, _ = ig.lift_system_at(h, b)
    unknowns.clear()
    _, _, again, _ = ig.lift_system_at(h, b)
    assert len(again) == 4


def test_lift_plan_rejects_negative_level():
    with pytest.raises(ValueError):
        jc.lift_plan(_kg(2), -1)


def _ref_codim_ranks(h, l, samples, seed):
    comps, _ = _ref_prolong(h, l)
    coords = jc.JetChartSpec(h.m, h.n, h.order + l).atoms
    out = []
    for p in ig.sample_prolonged_points(h, l, samples, seed):
        assignment = p.assignment()
        rows = [[sx.evaluate(sx.differentiate(c, v), assignment) for v in coords]
                for c in comps]
        out.append(sp.RationalMatrix(rows).rank())
    return out


@pytest.mark.parametrize("name,make,levels", [
    ("kg m=2", lambda: _kg(2), (0, 1, 2)),
    ("kg m=3", lambda: _kg(3), (0, 1)),
] + [(name, lambda name=name: _corpus_op(name), (0, 1, 2)) for name in SCALAR_CORPUS],
    ids=["kg m=2", "kg m=3"] + SCALAR_CORPUS)
def test_variety_codim_ranks_match_per_point_reference(name, make, levels):
    h = make()
    for l in levels:
        rep = ig.variety_codim(h, l, samples=3, seed=7)
        assert rep.observed == _ref_codim_ranks(h, l, 3, 7)
        assert rep.points == 3


def _ref_lifted_ranks(h, l, samples, seed):
    # each sampled point lifted l times with random free data, step j of
    # point idx seeded "seed:idx:j", scored 1 plus each lift step's rank
    out = []
    for idx, b in enumerate(sy.sample_variety_points(h, samples, seed)):
        rank = 1
        for step in range(l):
            res = ig.lift_point(h, b, policy="random", seed="%s:%d:%d" % (seed, idx, step),
                                check=False)
            b = res.point
            rank += res.rank
        out.append(rank)
    return out


@pytest.mark.parametrize("name", SCALAR_CORPUS)
def test_variety_codim_ranks_match_the_lifted_chain_on_the_corpus(name):
    h = _corpus_op(name)
    for l in range(4):
        assert ig.variety_codim(h, l, samples=3, seed=5).observed == _ref_lifted_ranks(h, l, 3, 5)


@settings(max_examples=40, deadline=None)
@given(_polynomial_ops().filter(lambda h: h.n_out == 1), st.integers(0, 2 ** 32))
def test_variety_codim_ranks_match_the_lifted_chain_on_random_operators(h, seed):
    for l in range(4):
        try:
            want = _ref_lifted_ranks(h, l, 2, seed)
        except sy.SamplerError as err:
            with pytest.raises(sy.SamplerError) as info:
                ig.variety_codim(h, l, samples=2, seed=seed)
            assert str(info.value) == str(err)
            return
        assert ig.variety_codim(h, l, samples=2, seed=seed).observed == want


def test_variety_codim_lifts_nothing_and_seeds_only_the_sampler(monkeypatch):
    seeds = []

    class SeedRecordingRandom(random.Random):
        def __init__(self, seed=None):
            seeds.append(seed)
            super().__init__(seed)

    def no_lift(*args, **kwargs):
        raise AssertionError("variety_codim lifted a point")

    monkeypatch.setattr(random, "Random", SeedRecordingRandom)
    monkeypatch.setattr(ig, "lift_point", no_lift)
    h = _corpus_op("kg_curved2.jf")
    rep = ig.variety_codim(h, 3, samples=4, seed="codim:1")
    assert rep.all_match and rep.points == 4
    assert seeds == ["codim:1"]


def test_lift_point_check_still_evaluates_the_residual():
    h = _kg(2)
    b = ig.sample_prolonged_points(h, 1, 1, seed=3)[0]
    ig.lift_point(h, b)
    # D_1 h carries g^{11} u_(3,0) with g^{11} nonzero, so this leaves
    # the level-1 variety while h itself still vanishes
    jets = dict(b.jets)
    jets[(1, MultiIndex((3, 0)))] += 1
    off = jc.JetPoint(b.chart, b.base, jets)
    assert h.evaluate_at(off) == (0,)
    with pytest.raises(ValueError, match="prolonged equations"):
        ig.lift_point(h, off)


def test_prolongation_symbol_and_jacobian_take_one_walk_per_expression(monkeypatch):
    # every first partial of an expression comes from one `partials`
    # walk, so a cold prolongation, symbol table and codimension check
    # never differentiate by one variable at a time
    calls = []
    differentiate = sx.differentiate

    def counting(e, v):
        calls.append(v)
        return differentiate(e, v)

    monkeypatch.setattr(sx, "differentiate", counting)
    monkeypatch.setattr(jc, "differentiate", counting)
    h = _corpus_op("kg_curved2.jf")
    jc.prolong_op(h, 3)
    jc.symbol_table(h)
    ig.variety_codim(h, 1, samples=2)
    assert calls == []


def _cli_pass(seed):
    for command in cli.COMMANDS:
        for name in sorted(f for f in os.listdir(CORPUS) if f.endswith(".jf")):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, os.path.join(CORPUS, name), "--seed", str(seed),
                                 "--json", "-"])
            assert code == 0, (command, name)


def test_warm_cli_calls_parse_build_and_compile_nothing(monkeypatch):
    # cli.main parses each text once per process and keeps its operator,
    # so a second pass over the corpus at another seed parses no
    # expression, builds no operator, prolongs no level and compiles no
    # lift plan: none of the plans depends on the seed
    counts = collections.Counter()

    def count(owner, name):
        orig = getattr(owner, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    targets = ((sx, "parse_expr_flagged"), (ig, "make_klein_gordon"), (jc, "_prolong_once"),
               (jc.LiftPlan, "__init__"))
    for owner, name in targets:
        count(owner, name)
    cli._parse.cache_clear()
    _cli_pass(0)
    # the counters see the cold pass
    assert all(counts[name] for _, name in targets), counts
    counts.clear()
    _cli_pass(5)
    assert counts == {}


# ---------------------------------------------------------------------------
# lifts from the symbol: one elimination of [A | I] per distinct A


def _ref_lift(h, b, policy="zero", free_data=None, seed=None):
    """The lift by one elimination of [A | R] at this point, on the
    per-entry reference system: the solution with zero free values plus
    the kernel basis vectors times the free values, not `solve`."""
    rows, rhs, row_labels, unknowns = _ref_lift_system(h, b)
    A = sp.RationalMatrix(rows, row_labels=row_labels, col_labels=unknowns)
    R = sp.RationalMatrix([[v] for v in rhs], row_labels=row_labels, col_labels=range(1))
    E = sp.Echelon(A, R)
    if not E.consistent:
        raise ig.LiftObstructionError(
            "no lift at this point: the next-order conditions are inconsistent")
    free = [unknowns[f] for f in E.free]
    values = None
    if policy == "random":
        rng = random.Random(seed)
        draws = {lab: sx.random_rational(rng, 4) for lab in unknowns}
        values = {lab: draws[lab] for lab in free}
    elif policy == "explicit":
        values = {lab: free_data[lab] for lab in free if lab in free_data}
    x = [r[0] for r in E.solution().rows]
    K = E.kernel_basis()
    for k, lab in enumerate(K.col_labels):
        v = (values or {}).get(lab, 0)
        x = [a + v * c for a, c in zip(x, (r[k] for r in K.rows))]
    up = jc.JetChartSpec(b.chart.m, b.chart.n, b.chart.k + 1)
    return ig.LiftResult(point=jc.JetPoint.from_values(up, b.base, [*b.values, *x]),
                         free_labels=free, rank=E.rank)


def _check_lift(h, b, **kwargs):
    """lift_point equals the per-point reference: the same point, free
    labels and rank, or the same obstruction message."""
    try:
        want = _ref_lift(h, b, **kwargs)
    except ig.LiftObstructionError as err:
        with pytest.raises(ig.LiftObstructionError) as got:
            ig.lift_point(h, b, check=False, **kwargs)
        assert str(got.value) == str(err)
        return None
    got = ig.lift_point(h, b, check=False, **kwargs)
    assert got.point == want.point
    assert got.free_labels == want.free_labels
    assert got.rank == want.rank
    return got


def _free_data(h, k, rng):
    # a value for every order-k label, pivot columns included, which
    # an explicit lift ignores
    chart = jc.JetChartSpec(h.m, h.n, k)
    return {(alpha, I): sx.random_rational(rng, 4) for alpha, I in chart.labels if I.degree == k}


def _same_base(b, rng):
    """A point over b's base point with fresh jet values."""
    return jc.JetPoint(b.chart, b.base, {label: sx.random_rational(rng, 4) for label in b.chart.labels})


LIFT_CASES = CASES[:2] + CASES[3:] + [
    ("wave m=3", lambda: jc.DiffOp(3, 1, 2, [sx.jet(1, (2, 0, 0)) - sx.jet(1, (0, 2, 0))
                                             - sx.jet(1, (0, 0, 2))]))]


@pytest.mark.parametrize("policy", ["zero", "random", "explicit"])
@pytest.mark.parametrize("name,make", LIFT_CASES, ids=[c[0] for c in LIFT_CASES])
def test_lift_point_matches_one_elimination_per_point(name, make, policy):
    h = make()
    rng = random.Random("lift:%s:%s" % (name, policy))
    for l in (0, 1):
        k = h.order + l
        kwargs = {"policy": policy}
        # a run of points over one base point, then a new base point
        # (a new sigma(b) wherever the symbol depends on the base), and
        # back to the first base point
        first = _random_point(h, k, rng)
        points = [first, _same_base(first, rng), _same_base(first, rng),
                  _random_point(h, k, rng), _same_base(first, rng)]
        for i, b in enumerate(points):
            if policy == "random":
                kwargs["seed"] = "%s:%d" % (name, i)
            elif policy == "explicit":
                kwargs["free_data"] = _free_data(h, k + 1, rng)
            _check_lift(h, b, **kwargs)


def _count_echelons(monkeypatch):
    """A list that gets the arguments of every `Echelon` built from now on."""
    made = []
    init = sp.Echelon.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sp.Echelon, "__init__", counting_init)
    return made


def test_lift_reuses_the_matrix_and_its_elimination_while_the_symbol_repeats(monkeypatch):
    # on curved Klein-Gordon the symbol is g^{ij}(x): every point over
    # one base point has the same A, a new base point a new one
    h = _kg(2)
    rng = random.Random("reuse")
    b = _random_point(h, 2, rng)
    A, _, _, E = ig.lift_system_at(h, b)
    _check_lift(h, b)
    made = _count_echelons(monkeypatch)
    for _ in range(3):
        c = _same_base(b, rng)
        got = ig.lift_system_at(h, c)
        assert got[0] is A and got[3] is E
        ig.lift_point(h, c, check=False, policy="random", seed=1)
    assert not made
    # a new base point changes sigma(b): a new A, eliminated once
    c = jc.JetPoint(b.chart, (b.base[0] + 1, b.base[1]), b.jets)
    A2, _, _, E2 = ig.lift_system_at(h, c)
    assert A2 is not A and E2 is not E and len(made) == 1
    monkeypatch.undo()
    _check_lift(h, c)
    assert ig.lift_system_at(h, c)[3] is E2


def _forbid(monkeypatch, owner, name):
    def forbidden(*args, **kwargs):
        raise AssertionError("%s called" % name)

    monkeypatch.setattr(owner, name, forbidden)


def test_conditions_2_and_3_eliminate_a_constant_symbol_once(monkeypatch):
    # conditions 2 and 3 read one sample of the variety and one lift
    # system per point: wave2.jf has a constant symbol, so every point
    # has the same lift matrix and one elimination serves them all; the
    # curved Klein-Gordon symbols change with the base point, so each
    # point's matrix is eliminated once
    for name, echelons in [("wave2.jf", 1), ("kg_curved2.jf", 8), ("offdiag.jf", 8)]:
        h = _corpus_op(name)
        sampled, systems = [], []
        sample, lift_system_at = sy.sample_variety_points, ig.lift_system_at
        monkeypatch.setattr(sy, "sample_variety_points",
                            lambda *args: sampled.append(args) or sample(*args))
        monkeypatch.setattr(ig, "lift_system_at",
                            lambda h, p: systems.append(p) or lift_system_at(h, p))
        for owner, attr in [(ig, "lift_point"), (sp.Echelon, "solve"), (jc.JetPoint, "extend")]:
            _forbid(monkeypatch, owner, attr)
        made = _count_echelons(monkeypatch)
        report = ig.check_conditions(h, samples=8)
        assert report.passed, name
        assert len(report.condition2.data["profile"].sampled_ranks) == 8
        assert len(report.condition3.data["free_counts"]) == 8
        assert [args[1:] for args in sampled] == [(8, 1)]
        assert len(systems) == 8
        assert len(made) == echelons, name
        monkeypatch.undo()


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_condition_3_counts_the_free_columns_of_each_lift(seed):
    # the free counts that condition 3 reads off the eliminations of
    # condition 2 are those of full lifts at the same points
    for name in SCALAR_CORPUS:
        h = _corpus_op(name)
        if h.n != 1:
            continue
        report = ig.check_conditions(h, samples=8, seed=seed)
        want = [ig.lift_point(h, p, check=False).free_count
                for p in sy.sample_variety_points(h, 8, seed + 1)]
        assert report.condition3.data["free_counts"] == want, name


def test_condition_3_reports_the_first_obstructed_point(monkeypatch):
    h = _corpus_op("kg_curved2.jf")
    calls = []
    consistent_with = sp.Echelon.consistent_with

    def third_fails(self, y):
        calls.append(y)
        return len(calls) != 3 and consistent_with(self, y)

    monkeypatch.setattr(sp.Echelon, "consistent_with", third_fails)
    report = ig.check_conditions(h, samples=8, seed=0)
    c3 = report.condition3
    assert not c3.passed and not c3.certified
    assert c3.detail == ("lift obstructed at a sampled point: no lift at this point: "
                         "the next-order conditions are inconsistent")
    third = sy.sample_variety_points(h, 8, 1)[2]
    witness = c3.data["witness"]
    assert (witness.base, witness.values) == (third.base, third.values)
    # condition 2 still ranks every point
    assert report.condition2.passed
    assert len(report.condition2.data["profile"].sampled_ranks) == 8
    assert report.verdict == "not established: lift surjectivity failed"


@pytest.mark.parametrize("error", [sx.EvaluationError("no value assigned to a"),
                                   sy.SamplerError("no top-order variable")])
def test_a_failure_while_building_the_lift_systems_fails_conditions_2_and_3(monkeypatch, error):
    # an evaluation or sampler error at the second point ends both
    # conditions with condition 2's note, not the check with an error
    h = _corpus_op("kg_curved2.jf")
    calls = []
    lift_system_at = ig.lift_system_at

    def second_fails(h, p):
        calls.append(p)
        if len(calls) == 2:
            raise error
        return lift_system_at(h, p)

    monkeypatch.setattr(ig, "lift_system_at", second_fails)
    for mode in ("exact", "float"):
        calls.clear()
        report = ig.check_conditions(h, samples=8, seed=0, mode=mode)
        c2, c3 = report.condition2, report.condition3
        assert c2.detail == c3.detail == "sampling failed: %s" % error
        assert not c2.passed and not c3.passed
        assert c2.data["profile"].sampled_ranks == []
        assert c3.data == {}
        assert report.condition1.passed


def test_lift_point_builds_its_system_through_the_module_attribute(monkeypatch):
    # the benchmark's tracer counts `integrability.lift_system_at` by
    # rebinding the module attribute, so each lift must call it there
    calls = []
    lift_system_at = ig.lift_system_at

    def counting(h, b):
        calls.append(b)
        return lift_system_at(h, b)

    monkeypatch.setattr(ig, "lift_system_at", counting)
    h = _kg(2)
    b = ig.sample_prolonged_points(h, 0, 1, seed=4)[0]
    for step in range(3):
        b = ig.lift_point(h, b, policy="random", seed=step).point
        assert len(calls) == step + 1


def _vanishing_symbol_op():
    # x1*u_(2,0) + x1*u_(0,2) - u: sigma(b) = 0 on the line x1 = 0
    x1 = sx.base(1)
    return jc.DiffOp(2, 1, 2, [x1 * sx.jet(1, (2, 0)) + x1 * sx.jet(1, (0, 2))
                               - sx.jet(1, (0, 0))])


@pytest.mark.parametrize("policy", ["zero", "random"])
def test_lift_where_the_symbol_vanishes(policy):
    h = _vanishing_symbol_op()
    rng = random.Random("vanishing symbol")
    chart = jc.JetChartSpec(2, 1, 2)
    kwargs = {"policy": policy, "seed": 3}
    # A = 0 at x1 = 0: the rows are D_1 h = u_(2,0) + u_(0,2) - u_(1,0)
    # and D_2 h = -u_(0,1) there, so the lift is obstructed unless both
    # vanish, and then every new coordinate is free
    off = _random_point(h, 2, rng)
    on = jc.JetPoint(chart, (Q(0), Q(1, 3)), off.jets)
    assert not any(ig.lift_system_at(h, on)[0].nums)
    jets = dict(off.jets)
    jets[(1, (0, 1))] = Q(0)
    jets[(1, (1, 0))] = jets[(1, (2, 0))] + jets[(1, (0, 2))]
    solvable = jc.JetPoint(chart, (Q(0), Q(2)), jets)
    # nonzero sigma, zero sigma obstructed, zero sigma solvable, and back
    assert _check_lift(h, off, **kwargs).rank == 2
    with pytest.raises(ig.LiftObstructionError, match="inconsistent"):
        ig.lift_point(h, on, check=False, **kwargs)
    _check_lift(h, on, **kwargs)
    res = _check_lift(h, solvable, **kwargs)
    assert res.rank == 0 and res.free_count == 4
    assert _check_lift(h, off, **kwargs).rank == 2


def test_formal_solve_names_the_obstructed_order():
    # on x1 = 0 the seed is on the variety when u = 0, and the order-3
    # lift needs u_(2,0) + u_(0,2) - u_(1,0) = 0, which fails here
    h = _vanishing_symbol_op()
    chart = jc.JetChartSpec(2, 1, 2)
    seed = jc.JetPoint(chart, (Q(0), Q(1, 3)), {
        (1, (0, 0)): 0, (1, (1, 0)): 1, (1, (0, 1)): 0,
        (1, (2, 0)): 2, (1, (1, 1)): 5, (1, (0, 2)): 3})
    assert jc.on_variety(h, seed)
    with pytest.raises(ig.LiftObstructionError) as err:
        fm.formal_solve(h, seed, 5)
    assert str(err.value) == ("obstruction at order 3: no lift at this point: "
                              "the next-order conditions are inconsistent")


@pytest.mark.parametrize("name", SCALAR_CORPUS)
def test_lift_matrix_has_full_row_rank_where_the_symbol_is_nonzero(name):
    # for one scalar equation, A at level l is multiplication by sigma(xi)
    # from Sym^(l+1) to Sym^(k+l+1), injective wherever sigma(b) != 0
    h = _corpus_op(name)
    symbol = list(jc.symbol_table(h).values())
    checked = 0
    for l in (0, 1, 2):
        for b in ig.sample_prolonged_points(h, l, 3, seed="rank:%s" % name):
            assignment = b.assignment()
            if all(sx.evaluate(e, assignment) == 0 for e in symbol):
                continue
            A = ig.lift_system_at(h, b)[0]
            assert A.nrows == math.comb(h.m + l, l + 1)
            assert sp.Echelon(A).rank == A.nrows, (name, l)
            checked += 1
    assert checked == 9


# ---------------------------------------------------------------------------
# condition 2 by its closed form: the prolonged symbol has rank m


def _ref_generic_rank(h):
    """The generic rank of the prolonged symbol on the variety by the
    symbolic route: the rows D_i h of the shifted symbol, entry (i, T)
    sigma_{T-e_i} over |T| = k+1, with the solved top-order variable
    substituted, eliminated division-free (`sp.generic_rank_exprs`)."""
    v, c = sy._solvable_top_var(h)
    sol = -(h.components[0] - c * sx.Expr.variable(v)) / c
    table = jc.symbol_table(h)
    cols = [(alpha, T) for T in enumerate_indices(h.m, h.order + 1)
            for alpha in range(1, h.n + 1)]
    return sp.generic_rank_exprs([
        [sx.substitute(jc.shifted_symbol(table, alpha, 1, T, MultiIndex.unit(h.m, i)), {v: sol})
         for alpha, T in cols]
        for i in range(1, h.m + 1)])


@pytest.mark.parametrize("name", SCALAR_CORPUS)
def test_prolonged_symbol_generic_rank_is_m_on_the_corpus(name):
    h = _corpus_op(name)
    rep = sy.rank_profile(h, samples=2, seed=1)
    assert rep.generic_rank == _ref_generic_rank(h) == h.m
    assert rep.certified


@st.composite
def _scalar_ops(draw):
    """Random scalar polynomial operators c v + rest with a top-order
    variable v and a nonzero coefficient c free of v, so the variety
    sampler can solve for some top-order variable; c and rest may carry
    a quotient, and rest may be nonlinear in the other top-order jets."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    chart = jc.JetChartSpec(m, 1, k)
    lower = [sx.base(i) for i in range(1, m + 1)]
    lower += [sx.jet(1, I) for _, I in chart.labels if I.degree < k]
    tops = [sx.jet(1, I) for _, I in chart.labels if I.degree == k]
    v = draw(st.sampled_from(tops))
    others = [t for t in tops if t != v]
    coef = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)])

    def poly(atoms):
        e = sx.ZERO
        for _ in range(draw(st.integers(0, 2))):
            mono = sx.ONE
            for a in draw(st.lists(st.sampled_from(atoms), max_size=3)):
                mono = mono * a
            e = e + draw(coef) * mono
        return e

    def maybe_quotient(e):
        if draw(st.booleans()):
            return e / (1 + draw(st.sampled_from(lower)) ** 2)
        return e

    c = draw(coef) + poly(lower)
    if c.is_zero():
        c = sx.ONE
    rest = maybe_quotient(poly(lower + others))
    if others and draw(st.booleans()):
        rest = rest + draw(coef) * draw(st.sampled_from(others)) * draw(st.sampled_from(others))
    return jc.DiffOp(m, 1, k, [maybe_quotient(c) * v + rest])


@settings(max_examples=40, deadline=None)
@given(_scalar_ops())
def test_prolonged_symbol_generic_rank_is_m_on_random_operators(h):
    assert _ref_generic_rank(h) == h.m
    assert sy.rank_profile(h, samples=2, seed=3).generic_rank == h.m


def _check_sampled_ranks_are_the_lift_ranks(h, samples, seed):
    # condition 2 ranks the prolonged symbol, which is the matrix of the
    # one-step lift at each variety point: rank m, as sigma != 0 there
    ranks = sy.rank_profile(h, samples, seed).sampled_ranks
    points = sy.sample_variety_points(h, samples, seed)
    assert ranks == [ig.lift_point(h, p, check=False).rank for p in points] == [h.m] * samples


@pytest.mark.parametrize("name", SCALAR_CORPUS)
def test_sampled_symbol_ranks_are_the_lift_ranks_on_the_corpus(name):
    _check_sampled_ranks_are_the_lift_ranks(_corpus_op(name), 3, 7)


@settings(max_examples=40, deadline=None)
@given(_scalar_ops(), st.integers(0, 2 ** 16))
def test_sampled_symbol_ranks_are_the_lift_ranks_on_random_operators(h, seed):
    _check_sampled_ranks_are_the_lift_ranks(h, 2, seed)


# ---------------------------------------------------------------------------
# the variety sampler plan


def _ref_sample_variety_points(h, count, seed):
    """The sampler as it was before its plan was kept on the operator:
    everything rebuilt per call, each coordinate drawn as a Fraction of
    two randints, and each value from `sx.evaluate`."""
    v, c = sy._solvable_top_var(h)
    rest = h.components[0] - c * sx.Expr.variable(v)
    rng = random.Random(seed)
    chart = h.chart()
    solved = chart.slots[v]
    slots = {a: pos for a, pos in chart.slots.items() if pos != solved}
    points = []
    tries = 0
    while len(points) < count:
        tries += 1
        if tries > 200 * count:
            raise sy.SamplerError("variety sampling kept hitting vanishing coefficients")
        coords = [Q(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(chart.dim - 1)]
        coords.insert(solved, None)
        point = {a: coords[pos] for a, pos in slots.items()}
        try:
            cval = sx.evaluate(c, point)
            if cval == 0:
                continue
            rval = sx.evaluate(rest, point)
        except sx.EvalZeroDivision:
            continue
        except sx.EvaluationError:
            raise sy.SamplerError("exact sampling needs polynomial or rational data")
        coords[solved] = -rval / cval
        points.append(jc.JetPoint.from_values(chart, coords[:h.m], coords[h.m:]))
    return points


@pytest.mark.parametrize("name", SCALAR_CORPUS)
def test_variety_points_match_the_per_call_sampler_on_the_corpus(name):
    h = _corpus_op(name)
    for seed in (0, 1, 5):
        assert sy.sample_variety_points(h, 4, seed) == _ref_sample_variety_points(h, 4, seed)


def test_the_sampler_plan_is_built_once_per_operator():
    h = _corpus_op("kg_curved2.jf")
    first = sy.sample_variety_points(h, 3, 0)
    plan = sy.sampler_plan(h)
    assert isinstance(plan, sy.SamplerPlan)
    assert sy.sample_variety_points(h, 3, 0) == first
    sy.rank_profile(h, samples=2, seed=1)
    assert sy.sampler_plan(h) is plan


def _vanishing_everywhere_sampled():
    # c vanishes at every rational the sampler draws for x1, numerator
    # and denominator bounded by 5
    c = sx.ONE
    for s in sorted({Q(n, d) for n in range(-5, 6) for d in range(1, 6)}):
        c = c * (sx.base(1) - s)
    return jc.DiffOp(1, 1, 1, [c * sx.jet(1, (1,)) + sx.jet(1, (0,))])


@pytest.mark.parametrize("h,message", [
    (jc.DiffOp(2, 1, 1, [sx.jet(1, (1, 0)), sx.jet(1, (0, 1))]),
     "variety sampler supports scalar operators only"),
    (jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) ** 2 + sx.jet(1, (0, 2)) ** 2]),
     "no top-order variable with an affine nonzero coefficient"),
    (_vanishing_everywhere_sampled(), "variety sampling kept hitting vanishing coefficients"),
    (jc.DiffOp(1, 1, 1, [sx.prim("sin", sx.base(1)) * sx.jet(1, (1,)) + sx.jet(1, (0,))]),
     "exact sampling needs polynomial or rational data"),
], ids=["non-scalar", "no-affine-variable", "vanishing", "primitive"])
def test_sampler_errors_keep_their_messages_on_every_call(h, message):
    for seed in (0, 0, 1):
        with pytest.raises(sy.SamplerError, match="^%s$" % message):
            sy.sample_variety_points(h, 2, seed)
    with pytest.raises(sy.SamplerError, match="^%s$" % message):
        _ref_sample_variety_points(h, 2, 0)


@pytest.mark.parametrize("h", [
    jc.DiffOp(2, 1, 1, [sx.jet(1, (1, 0)), sx.jet(1, (0, 1))]),
    jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) ** 2 + sx.jet(1, (0, 2)) ** 2]),
], ids=["non-scalar", "no-affine-variable"])
def test_a_failed_sampler_plan_is_not_kept(h):
    for _ in range(2):
        with pytest.raises(sy.SamplerError):
            sy.sampler_plan(h)
        assert not any(isinstance(v, sy.SamplerPlan) for v in h._kept.values())
    # a scalar operator's symbol table is built, and kept, before its
    # sampler plan fails; a non-scalar one fails before reading it
    values = list(h._kept.values())
    table = jc.symbol_table(h)
    assert any(v is table for v in values) == (h.n_out == 1)
