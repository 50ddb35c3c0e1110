"""What jetforge keeps between calls.

Each operator keeps what it derives in one store, filled only by
`jetcalc.kept`: a second call finds the value kept by the first, and a
build that raises keeps nothing; the batches kept there keep the last
quotient values they computed.  Apart from those stores, what the
package derives and keeps is in its module-level `functools` caches, so
clearing them and building fresh operators makes a run cold again.
"""

import contextlib
import functools
import importlib
import io
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

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
MODULES = ("mindex", "symexpr", "jetcalc", "spencer", "symbols",
           "integrability", "formal", "pfd", "cli")


def _operator():
    # scalar, order 2, nonlinear below the top order; u_xx is the
    # sampler's solved variable
    u = functools.partial(sx.jet, 1)
    return jc.DiffOp(2, 1, 2, [u((2, 0)) - sx.base(1) * u((0, 2)) + u((0, 0)) * u((1, 0))])


def _point(h, seed):
    chart = jc.JetChartSpec(h.m, h.n, h.order)
    rng = random.Random(seed)
    return jc.JetPoint.from_values(chart, [Q(rng.randint(1, 9), 7) for _ in range(h.m)],
                                   [Q(rng.randint(-9, 9), 5) for _ in chart.labels])


# each kind a store holds, and a call that reads it
KINDS = {
    "symbol table": lambda h, a: jc.symbol_table(h),
    "prolongation level": lambda h, a: jc.prolong_op(h, 2),
    "lift plan": lambda h, a: jc.lift_plan(h, 1),
    "sampler plan": lambda h, a: sy.sampler_plan(h),
    "component batch": lambda h, a: h.evaluate_at(a),
    "symbol batch": lambda h, a: sp.symbol_constraint_matrix(h, a),
}


@pytest.fixture
def batch_compiles(monkeypatch):
    compiles = []
    init = sx.Batch.__init__

    def counting(self, *args, **kwargs):
        compiles.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sx.Batch, "__init__", counting)
    return compiles


@pytest.mark.parametrize("kind", KINDS)
def test_a_second_call_reads_what_the_first_kept(kind, batch_compiles):
    h, read = _operator(), KINDS[kind]
    a = _point(h, kind)
    first = read(h, a)
    added = dict(h._kept)
    assert added
    if kind.endswith("batch"):
        # the call returns values; what it keeps is the compiled batch
        assert any(value is batch_compiles[-1] for value in added.values())
    else:
        assert any(value is first for value in added.values())
    del batch_compiles[:]
    second = read(h, a)
    assert not batch_compiles
    assert h._kept.keys() == added.keys()
    assert all(h._kept[key] is value for key, value in added.items())
    if kind.endswith("batch"):
        assert second == first
    else:
        assert second is first


def test_a_failed_sampler_plan_keeps_nothing_and_fails_again():
    h = jc.DiffOp(2, 1, 1, [sx.jet(1, (1, 0)), sx.jet(1, (0, 1))])
    for _ in range(2):
        with pytest.raises(sy.SamplerError, match="^variety sampler supports scalar operators only$"):
            sy.sampler_plan(h)
        assert not h._kept


def test_a_failed_prolongation_keeps_nothing_and_fails_again():
    try:
        sx.register_primitive("kept_norule")
        # D_1 differentiates the primitive's argument u, which has no rule
        h = jc.DiffOp(1, 1, 1, [sx.prim("kept_norule", sx.jet(1, (0,))) * sx.jet(1, (1,))])
        for _ in range(2):
            with pytest.raises(sx.DifferentiationError, match="no registered derivative rule"):
                jc.prolong_op(h, 2)
            assert not h._kept
        # so the next call builds again, here under a rule given since
        sx.register_primitive("kept_norule", derivative=lambda a: 2 * a)
        assert jc.prolong_op(h, 2).order == 3
    finally:
        del sx._REGISTRY["kept_norule"]


def _process_caches():
    """Every module-level functools cache of the package, found by
    scanning the modules' namespaces."""
    found = {}
    for name in MODULES:
        module = importlib.import_module("jetforge." + name)
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)) \
                    and getattr(value, "__module__", None) == module.__name__:
                found["%s.%s" % (name, attr)] = value
    return found


def _counted_mix(monkeypatch):
    """The builds of one pass of a small mix, each kind counted."""
    counts = dict.fromkeys(("prolongation levels", "lift plans", "sampler plans",
                            "batch compiles", "compound values"), 0)

    def counting(kind, f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return f(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as mp:
        mp.setattr(jc, "_prolong_once", counting("prolongation levels", jc._prolong_once))
        mp.setattr(jc.LiftPlan, "__init__", counting("lift plans", jc.LiftPlan.__init__))
        mp.setattr(sy.SamplerPlan, "__init__", counting("sampler plans", sy.SamplerPlan.__init__))
        mp.setattr(sx.Batch, "__init__", counting("batch compiles", sx.Batch.__init__))
        # a compound value is computed only where its batch's memo misses
        mp.setattr(sx, "_exact_compound", counting("compound values", sx._exact_compound))
        with contextlib.redirect_stdout(io.StringIO()):
            for name in ("kg_curved2.jf", "wave2.jf"):
                for command in ("integrability", "solve"):
                    assert cli.main([command, os.path.join(CORPUS, name), "--json", "-"]) == 0
        h = ig.make_klein_gordon(ig.MetricSpec.minkowski(3), F1=1)
        ig.lift_point(h, ig.sample_prolonged_points(h, 0, 1, "kept")[0])
    return counts


def test_clearing_the_process_caches_makes_a_run_cold(monkeypatch):
    caches = _process_caches()
    assert {"jetcalc._chart", "cli._parse", "spencer._partials"} <= set(caches)
    passes = []
    for _ in range(2):
        for cache in caches.values():
            cache.cache_clear()
        passes.append(_counted_mix(monkeypatch))
    assert all(passes[0].values()), passes[0]
    assert passes[0] == passes[1]


def test_fresh_operators_start_with_empty_memos(monkeypatch):
    # the memos live on batches kept on an operator, so a fresh operator
    # computes every compound value of its first lift again
    computed = []
    exact = sx._exact_compound

    def counting(a, inner):
        computed.append(a)
        return exact(a, inner)

    monkeypatch.setattr(sx, "_exact_compound", counting)

    def lift(h):
        del computed[:]
        ig.lift_point(h, b)
        return len(computed)

    metric = ig.MetricSpec.diagonal([1 - sx.base(2) ** 2 / 4, -1 - sx.base(1) ** 2 / 4])
    h = ig.make_klein_gordon(metric, F1=1)
    b = ig.sample_prolonged_points(h, 0, 1, "memo")[0]
    first = lift(h)
    assert first and lift(h) == 0
    fresh = ig.make_klein_gordon(metric, F1=1)
    assert not fresh._kept
    assert lift(fresh) == first


def test_a_cleared_chart_cache_keeps_one_batch_per_chart():
    # charts were compared by identity: a point made before the clear
    # was unequal to its copy made after, and h kept a second batch
    h = _operator()
    a = _point(h, "clear")
    values = h.evaluate_at(a), sp.symbol_constraint_matrix(h, a).rows
    kept = len(h._kept)
    jc._chart.cache_clear()
    b = _point(h, "clear")
    assert b.chart is not a.chart and b == a
    assert (h.evaluate_at(b), sp.symbol_constraint_matrix(h, b).rows) == values
    assert len(h._kept) == kept
