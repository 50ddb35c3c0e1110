"""Formal solutions of scalar operators, built order by order.

A formal solution truncated at order N is one jet point on the order-N
equation variety, its top jet.  Starting from a seed jet point on the
variety, each call to the lift solver appends one more order of
derivative data, consuming free parameters equal to the dimension of
the prolonged symbol kernel at that level.  The Taylor coefficients
c_I = u_I / I! and the polynomial section (Borel realization) are read
off the top jet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .mindex import factorial
from . import jetcalc as jc
from . import integrability as ig
from . import pfd
from . import symbols as sy


@dataclass
class ResidualReport:
    order: int
    passed: bool
    mode: str
    values: list
    max_abs: float | None = None

    def summary(self):
        if self.passed:
            return "all prolonged components through outer order %d vanish at the base point" % self.order
        if self.mode == "exact":
            return "nonzero residual at outer order <= %d" % self.order
        return "max |residual| = %g at outer order <= %d" % (self.max_abs, self.order)


@dataclass
class FormalSolution:
    """A truncated thread of the infinitely prolonged equation: its
    order-N point `top_jet` and the free parameters used per level."""

    operator: jc.DiffOp
    top_jet: jc.JetPoint
    free_counts: list = field(default_factory=list)

    @property
    def base(self):
        return self.top_jet.base

    @property
    def order(self):
        return self.top_jet.chart.k

    def coefficients(self):
        """Graded-lex list of (I, numerator, denominator) triples of the
        Taylor coefficients c_I = u_I / I!, |I| <= order."""
        out = []
        # one fiber component, so the values line up with the indices
        for I, v in zip(self.top_jet.chart.indices, self.top_jet.values):
            c = v / factorial(I)
            out.append((tuple(I), c.numerator, c.denominator))
        return out

    def section(self):
        """The polynomial section with this top jet at the base point."""
        return pfd.borel_realize(self.operator.m, 1, self.top_jet.jets, self.base, self.order)


def formal_solve(h, seed_point, N, policy="zero", free_table=None, seed=None):
    """Order-by-order formal solution from a seed jet point.

    Lifts the seed until its order reaches N; the free parameters
    consumed at each level are recorded.  `policy` and `free_table`
    follow lift_point: zeros by default, seeded random draws, or an
    explicit table keyed by (alpha, index) covering any level.
    Raises LiftObstructionError with the failing order on obstruction.
    """
    if h.n_out != 1 or h.n != 1:
        raise ValueError("formal solving handles scalar operators")
    b = seed_point
    jc.point_level(h, b)  # refuses another bundle and a seed below h's order
    if not jc.on_variety(h, b):
        raise ValueError("seed does not satisfy the prolonged equations")
    if b.chart.k > N:
        # the seed already holds jets above the order asked for
        raise ValueError("truncation order N = %d is below the seed's order %d"
                         % (N, b.chart.k))
    free_counts = []
    while b.chart.k < N:
        level_seed = None
        if policy == "random":
            level_seed = "%s:%d" % (seed, b.chart.k + 1)
        try:
            res = ig.lift_point(
                h, b, policy=policy, free_data=free_table, seed=level_seed, check=False,
            )
        except ig.LiftObstructionError as err:
            raise ig.LiftObstructionError(
                "obstruction at order %d: %s" % (b.chart.k + 1, err)
            )
        free_counts.append(res.free_count)
        b = res.point
    return FormalSolution(operator=h, top_jet=b, free_counts=free_counts)


def verify_residual(sol, r, mode="exact"):
    """Evaluate all prolonged components of outer order <= r on the top
    jet at the base point.  Exact mode passes when every value is 0,
    float mode when every |value| is below `sy.FLOAT_RANK_TOL`, the
    tolerance float-mode reports are labelled with."""
    if mode not in ("exact", "float"):
        raise ValueError("mode must be exact or float")
    h = sol.operator
    if r > sol.order - h.order:
        raise ValueError("not enough series orders for residual depth %d" % r)
    prolonged = jc.prolong_op(h, r)
    point = sol.top_jet.project(h.order + r)
    values = list(prolonged.evaluate_at(point, exact=(mode == "exact")))
    if mode == "exact":
        passed = all(v == 0 for v in values)
        report = ResidualReport(order=r, passed=passed, mode=mode, values=values)
    else:
        mx = max(abs(float(v)) for v in values) if values else 0.0
        passed = mx < sy.FLOAT_RANK_TOL
        report = ResidualReport(order=r, passed=passed, mode=mode, values=values, max_abs=mx)
    return report
