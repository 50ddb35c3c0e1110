"""Truncated multivariate power series and formal solutions.

A truncated series stores Taylor coefficients c_I = u_I / I! around a
base point, completely covering all |I| <= N.  Formal solutions of a
scalar operator are built order by order: starting from a seed jet
point on the equation variety, each call to the lift solver appends one
more order of derivative data, consuming free parameters equal to the
dimension of the prolonged symbol kernel at that level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .mindex import MultiIndex, GradedIndexRange, enumerate_indices, factorial
from . import symexpr as sx
from . import jetcalc as jc
from . import integrability as ig
from .symexpr import Expr, BaseVar


class TruncSeries:
    """Exact truncated power series around a base point.

    Example:
        >>> s = TruncSeries.from_polynomial(sx.base(1) ** 2, 1, 3, (0,))
        >>> s.coefficient((2,))
        Fraction(1, 1)
    """

    __slots__ = ("m", "order", "base", "coeffs")

    def __init__(self, m, order, base, coeffs=None):
        if len(base) != m:
            raise ValueError("base point has wrong dimension")
        self.m = m
        self.order = order
        self.base = tuple(Fraction(b) for b in base)
        table = {I: Fraction(0) for I in enumerate_indices(GradedIndexRange(m, 0, order))}
        for I, c in (coeffs or {}).items():
            I = MultiIndex(I)
            if I.degree > order:
                raise ValueError("coefficient beyond truncation order: %s" % (I,))
            table[I] = Fraction(c)
        self.coeffs = table

    @classmethod
    def constant(cls, value, m, order, base):
        return cls(m, order, base, {MultiIndex.zero(m): Fraction(value)})

    @classmethod
    def from_jet_values(cls, m, order, base, jets):
        """Taylor data from derivative values: c_I = u_I / I!."""
        coeffs = {}
        for I, v in jets.items():
            I = MultiIndex(I)
            coeffs[I] = Fraction(v) / factorial(I)
        return cls(m, order, base, coeffs)

    @classmethod
    def from_polynomial(cls, e, m, order, base):
        """Taylor coefficients of a base-variable polynomial at the point."""
        e = sx.as_expr(e)
        assignment = {BaseVar(i + 1): b for i, b in enumerate(base)}
        coeffs = {}
        for I in enumerate_indices(GradedIndexRange(m, 0, order)):
            d = e
            for i, exp in enumerate(I, start=1):
                for _ in range(exp):
                    d = sx.differentiate(d, BaseVar(i))
            coeffs[I] = sx.evaluate(d, assignment, exact=True) / factorial(I)
        return cls(m, order, base, coeffs)

    def coefficient(self, I):
        return self.coeffs[MultiIndex(I)]

    def _check_compatible(self, other):
        if self.m != other.m or self.base != other.base:
            raise ValueError("mismatched variables or base points")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(other, self.m, self.order, self.base)
        self._check_compatible(other)
        order = min(self.order, other.order)
        out = {}
        for I in enumerate_indices(GradedIndexRange(self.m, 0, order)):
            out[I] = self.coeffs[I] + other.coeffs[I]
        return TruncSeries(self.m, order, self.base, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.m, self.order, self.base, {I: -c for I, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(other, self.m, self.order, self.base)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncSeries(
                self.m, self.order, self.base,
                {I: c * Fraction(other) for I, c in self.coeffs.items()},
            )
        self._check_compatible(other)
        order = min(self.order, other.order)
        out = {I: Fraction(0) for I in enumerate_indices(GradedIndexRange(self.m, 0, order))}
        for I, a in self.coeffs.items():
            if a == 0:
                continue
            for J, b in other.coeffs.items():
                if b == 0:
                    continue
                deg = I.degree + J.degree
                if deg > order:
                    continue
                out[I.add(J)] += a * b
        return TruncSeries(self.m, order, self.base, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("series powers must be nonnegative")
        result = TruncSeries.constant(1, self.m, self.order, self.base)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.m == other.m
            and self.order == other.order
            and self.base == other.base
            and self.coeffs == other.coeffs
        )

    def truncation_polynomial(self):
        """The polynomial sum of c_I (x - p)^I as an expression."""
        out = sx.ZERO
        for I in enumerate_indices(GradedIndexRange(self.m, 0, self.order)):
            c = self.coeffs[I]
            if c == 0:
                continue
            mono = Expr.const(c)
            for i, exp in enumerate(I, start=1):
                mono = mono * (sx.base(i) - self.base[i - 1]) ** exp
            out = out + mono
        return out

    def serialize(self):
        """Graded-lex list of (index, numerator, denominator) triples."""
        out = []
        for I in enumerate_indices(GradedIndexRange(self.m, 0, self.order)):
            c = self.coeffs[I]
            out.append((tuple(I), c.numerator, c.denominator))
        return out

    def __repr__(self):
        return "TruncSeries(m=%d, order=%d, base=%s)" % (self.m, self.order, self.base)


# ---------------------------------------------------------------------------
# formal solutions


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
    """A truncated thread of the infinitely prolonged equation."""

    operator: jc.DiffOp
    base: tuple
    series: tuple
    top_jet: jc.JetPoint
    free_counts: list = field(default_factory=list)
    verified_order: int | None = None

    @property
    def order(self):
        return self.top_jet.chart.k

    def jet_point(self, order):
        return self.top_jet.project(order)

    def section(self):
        return jc.SectionPoly(self.operator.m, [s.truncation_polynomial() for s in self.series])


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
    l0 = b.chart.k - h.order
    if l0 < 0:
        raise ValueError("seed order below operator order")
    vals = jc.prolong_op(h, l0).evaluate_at(b)
    if any(v != 0 for v in vals):
        raise ValueError("seed does not satisfy the prolonged equations")
    free_counts = []
    while b.chart.k < N:
        level_policy = policy
        level_free = None
        if policy == "explicit":
            top = b.chart.k + 1
            level_free = {
                key: val
                for key, val in (free_table or {}).items()
                if MultiIndex(key[1]).degree == top
            }
        level_seed = None
        if policy == "random":
            level_seed = "%s:%d" % (seed, b.chart.k + 1)
        try:
            res = ig.lift_point(
                h, b, policy=level_policy, free_data=level_free, seed=level_seed, check=False,
            )
        except ig.LiftObstructionError as err:
            raise ig.LiftObstructionError(
                "obstruction at order %d: %s" % (b.chart.k + 1, err)
            )
        free_counts.append(res.free_count)
        b = res.point
    series = []
    for alpha in range(1, h.n + 1):
        jets = {I: b[(alpha, I)] for I in b.chart.jet_indices()}
        series.append(TruncSeries.from_jet_values(h.m, N, b.base, jets))
    return FormalSolution(
        operator=h, base=b.base, series=tuple(series), top_jet=b, free_counts=free_counts,
    )


def verify_residual(sol, r, mode="exact"):
    """Evaluate all prolonged components of outer order <= r on the jets
    of the series at the base point."""
    h = sol.operator
    if r > sol.order - h.order:
        raise ValueError("not enough series orders for residual depth %d" % r)
    prolonged = jc.prolong_op(h, r)
    point = sol.jet_point(h.order + r)
    values = list(prolonged.evaluate_at(point, exact=(mode == "exact")))
    if mode == "exact":
        passed = all(v == 0 for v in values)
        report = ResidualReport(order=r, passed=passed, mode=mode, values=values)
    else:
        mx = max(abs(float(v)) for v in values) if values else 0.0
        passed = mx < 1e-9
        report = ResidualReport(order=r, passed=passed, mode=mode, values=values, max_abs=mx)
    if report.passed and (sol.verified_order is None or r > sol.verified_order):
        sol.verified_order = r
    return report
