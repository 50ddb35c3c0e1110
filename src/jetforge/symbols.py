"""Operator symbols, variety sampling, and rank diagnostics.

The symbol of an order-k operator collects the partials of each
component by the top-order jet variables; as a functional on the
symmetric power it is normalized so that a decomposable power v^(x)k
pairs to the symbol polynomial evaluated at v.  For one equation the
prolonged symbol at a point of the equation variety is the matrix of
the one-step lift there (`integrability.lift_system_at`), multiplication
by sigma(xi) from Sym^1 to Sym^(k+1); `rank_profile` reads condition 2,
its constant rank, off that matrix, and condition 3, whether the lift
solves, off the same system at the same points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import symexpr as sx
from . import jetcalc as jc
from .symexpr import Expr, JetVar, differentiate


def symbol_of(h):
    """The operator symbol, `jc.symbol_table(h)`: the read-only mapping
    {(alpha, beta, J): dh_beta/du^alpha_J} over |J| = h.order, nonzero
    entries only, kept on h."""
    return jc.symbol_table(h)


def symbol_polynomial(S, beta, alpha=1):
    """The symbol polynomial sum s_J xi^J in covector variables, with
    coefficients on the jet chart: the entries of S at (alpha, beta)."""
    out = sx.ZERO
    for (a, b, J), c in S.items():
        if (a, b) != (alpha, beta):
            continue
        mono = sx.ONE
        for i, e in enumerate(J, start=1):
            mono = mono * sx.covector(i) ** e
        out = out + c * mono
    return out


def symbol_value(S, beta, a, xi, alpha=1):
    """S_beta(xi; a) = sum s_J(a) xi^J, `symbol_polynomial` evaluated at
    the jet point a and the covector xi, which has an entry per axis."""
    if len(xi) != a.chart.m:
        raise ValueError("covector has %d entries, need %d" % (len(xi), a.chart.m))
    values = a.assignment()
    values.update((sx.CovectorVar(i), x) for i, x in enumerate(xi, start=1))
    return sx.evaluate(symbol_polynomial(S, beta, alpha), values)


@dataclass
class DiagramReport:
    passed: bool
    samples: int
    witness: tuple | None = None

    def __str__(self):
        if self.passed:
            return "symbol diagram commutes on %d samples" % self.samples
        return "symbol diagram FAILS at sample %r" % (self.witness,)


def check_linear_symbol_diagram(h, points, covectors):
    """Compare the jet-space symbol with the classical-coefficient symbol
    at sampled (point, covector) pairs; both must agree exactly.  The
    i-th covector goes with the i-th point, so the lists must be as long."""
    # the classical coefficients of order k, nonzero by construction;
    # bundle_to_classical refuses an operator that is not linear
    s_cls = {(alpha, beta, I): c for (alpha, beta, I), c in jc.bundle_to_classical(h).items()
             if I.degree == h.order}
    if len(points) != len(covectors):
        raise ValueError("%d points but %d covectors" % (len(points), len(covectors)))
    s_jet = symbol_of(h)
    count = 0
    for a, xi in zip(points, covectors):
        for beta in range(1, h.n_out + 1):
            for alpha in range(1, h.n + 1):
                lhs = symbol_value(s_jet, beta, a, xi, alpha=alpha)
                rhs = symbol_value(s_cls, beta, a, xi, alpha=alpha)
                if lhs != rhs:
                    return DiagramReport(False, count, witness=(a, tuple(xi), beta, alpha, lhs, rhs))
        count += 1
    return DiagramReport(True, count)


# ---------------------------------------------------------------------------
# variety sampling and rank profiles


class SamplerError(RuntimeError):
    pass


def _solvable_top_var(h):
    """First top-order jet variable (graded-lex, alpha inner) in which
    every component is affine and some component has a structurally
    nonzero coefficient; scalar use picks the equation to solve."""
    if h.n_out != 1:
        raise SamplerError("variety sampler supports scalar operators only")
    for (alpha, _, J), c in jc.symbol_table(h).items():
        v = JetVar(alpha, J)
        if differentiate(c, v).is_zero():
            return v, c
    raise SamplerError("no top-order variable with an affine nonzero coefficient")


class SamplerPlan:
    """What sampling the variety of a scalar operator h reads of h alone,
    built once (`sampler_plan`): the slot `solved` on the chart of h of
    the solved top-order variable v (`_solvable_top_var`), and the
    batches `coef` of its coefficient c and `rest` of h_1 - c v,
    compiled against the chart's slots without `solved`."""

    __slots__ = ("chart", "solved", "coef", "rest")

    def __init__(self, h):
        v, c = _solvable_top_var(h)
        self.chart = h.chart()
        self.solved = self.chart.slots[v]
        slots = {a: pos for a, pos in self.chart.slots.items() if pos != self.solved}
        self.coef = sx.Batch([c], slots)
        self.rest = sx.Batch([h.components[0] - c * Expr.variable(v)], slots)


def sampler_plan(h):
    """The sampler plan of h, kept on h by `jc.kept`.  A build that
    fails keeps nothing, so every call raises its SamplerError."""
    return jc.kept(h, "sampler", SamplerPlan, h)


def sample_variety_points(h, count, seed):
    """Random exact points of the zero set of a scalar operator.

    All coordinates except one solvable top-order variable are drawn as
    random rationals with numerator and denominator bounded by 5
    (`sx.random_rational`, in chart order, base first); that variable
    is solved for exactly.  What depends on h alone, the variable and
    the batches of its coefficient and the rest, is the operator's
    `sampler_plan`.  Draws where the solve coefficient vanishes are
    rejected; after 200 draws per requested point the sampler gives up.
    Refuses count < 1.
    """
    if count < 1:
        raise ValueError("count must be at least 1, got %d" % count)
    plan = sampler_plan(h)
    rng = random.Random(seed)
    chart, solved = plan.chart, plan.solved
    points = []
    tries = 0
    while len(points) < count:
        tries += 1
        if tries > 200 * count:
            raise SamplerError("variety sampling kept hitting vanishing coefficients")
        coords = [sx.random_rational(rng, 5) for _ in range(chart.dim - 1)]
        coords.insert(solved, None)
        try:
            cval = plan.coef.at(coords)[0]
            if cval == 0:
                continue
            rval = plan.rest.at(coords)[0]
        except sx.EvalZeroDivision:
            continue
        except sx.EvaluationError:
            raise SamplerError("exact sampling needs polynomial or rational data")
        coords[solved] = -rval / cval
        points.append(jc.JetPoint.from_values(chart, coords[:h.m], coords[h.m:]))
    return points


@dataclass
class RankReport:
    mode: str
    generic_rank: int | None = None
    sampled_ranks: list = field(default_factory=list)
    certified: bool = False
    notes: list = field(default_factory=list)
    # condition 3 at the sampled points: each lift's free-column count,
    # None where it is obstructed; None when not every system was built
    points: list = field(default_factory=list)
    free_counts: list | None = None

    @property
    def min_rank(self):
        return min(self.sampled_ranks) if self.sampled_ranks else None

    @property
    def max_rank(self):
        return max(self.sampled_ranks) if self.sampled_ranks else None

    @property
    def constant_on_samples(self):
        return bool(self.sampled_ranks) and self.min_rank == self.max_rank

    def summary(self):
        if self.certified:
            return "constant rank %d (certified: exact generic rank equals all %d sampled ranks)" % (
                self.generic_rank, len(self.sampled_ranks))
        if self.constant_on_samples:
            return "rank %d on %d samples (sampled evidence only)" % (self.min_rank, len(self.sampled_ranks))
        if not self.sampled_ranks:
            # the profile's note says why no point was ranked
            return next((n for n in self.notes if n.startswith("sampling failed: ")),
                        "no point was ranked")
        return "rank varies over samples: min %s max %s" % (self.min_rank, self.max_rank)


# singular values at or below this count as zero in float mode
FLOAT_RANK_TOL = 1e-9


def rank_profile(h, samples=20, seed=0, mode="exact"):
    """Rank statistics of the prolonged symbol over the zero variety of
    the scalar operator h.

    For one equation the prolonged symbol at a point p of the variety
    is the matrix A of the one-step lift at p, `lift_system_at(h, p)[0]`:
    entry (i, T) is sigma_{T-e_i}, so A is multiplication by sigma(xi)
    from Sym^1 to Sym^(k+1) and has rank m wherever sigma != 0.  On the
    variety sigma is not identically 0: its entry c at the solved
    top-order variable of the operator's `sampler_plan` is nonzero and
    free of that variable.  So the exact generic rank is the closed form
    m, given where that plan builds and the symbol holds no primitive;
    the notes say which gate failed.  The sampled ranks are those of A at
    variety points, exact ones read off the elimination E that
    `lift_system_at` returns with A, float ones by singular values of
    A's entries rounded to floats; the report is certified only when the
    generic rank equals them all.  The same pass decides condition 3:
    the lift at p solves when E is consistent with the right-hand side R,
    with len(E.free) free columns.  A sampler or evaluation failure, a
    float overflow included, is a note, not an error; samples < 1 is
    refused.
    """
    # integrability imports this module
    from .integrability import lift_system_at

    if mode not in ("exact", "float"):
        raise ValueError("mode must be exact or float")
    if samples < 1:
        raise ValueError("samples must be at least 1, got %d" % samples)
    report = RankReport(mode=mode)
    exact = mode == "exact"

    if exact:
        exact_ok = not any(c.has_primitive() for c in symbol_of(h).values())
        try:
            sampler_plan(h)
            report.notes.append("restricted to a rational chart of the constraint variety")
        except SamplerError as err:
            report.notes.append("variety restriction unavailable: %s" % err)
            exact_ok = False
        if exact_ok:
            report.generic_rank = h.m
        else:
            report.notes.append("generic rank skipped (non-polynomial entries)")

    try:
        points = sample_variety_points(h, samples, seed)
        systems = [lift_system_at(h, p) for p in points]
        # every lift is decided before a float rank can overflow
        report.points = points
        report.free_counts = [len(E.free) if E.consistent_with(R) else None
                              for _, R, _, E in systems]
        if not exact:
            import numpy as np
        report.sampled_ranks = [
            E.rank if exact
            else int(np.linalg.matrix_rank(np.array(A.rows, dtype=float), tol=FLOAT_RANK_TOL))
            for A, _, _, E in systems]
    except (SamplerError, sx.EvaluationError, OverflowError) as err:
        report.notes.append("sampling failed: %s" % err)
    if not exact:
        report.notes.append("float mode: singular-value rank, tol=%g" % FLOAT_RANK_TOL)

    report.certified = (
        report.generic_rank is not None
        and bool(report.sampled_ranks)
        and all(r == report.generic_rank for r in report.sampled_ranks)
    )
    return report
