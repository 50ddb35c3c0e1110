"""Formal-integrability checking for scalar operators.

The three conditions checked are, in the order reported: nonvanishing
of the operator symbol, constant rank of the prolonged symbol over the
equation variety, and surjectivity of the one-step lift between
prolonged varieties.  The lift itself is the affine-linear solve for
the next order of jet coordinates; its closed form for wave-type
operators in normal coordinates is pinned by golden tests.  For one
equation its matrix is the prolonged symbol, so conditions 2 and 3 read
one matrix: condition 2 its rank (`symbols.rank_profile`), condition 3
whether the lift solves.

Exactness policy: certification claims are made only for polynomial or
rational data, where identities are decided structurally and the ranks
that the symbol fixes have closed forms: where sigma != 0 the lift
matrix, the prolonged symbol, has rank m and each block of the
prolonged Jacobian full row rank (`symbols.rank_profile`,
`variety_codim`).  Condition 1 of a Klein-Gordon operator is certified
by its construction: its symbol is the inverse metric, and a
`MetricSpec` is nonsingular from construction, which builds the inverse
and refuses a metric whose determinant is identically zero, so nothing
is re-proved.  Everything else is reported as sampled evidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd

from .mindex import MultiIndex
from . import symexpr as sx
from . import jetcalc as jc
from . import spencer as sp
from . import symbols as sy
from .symexpr import BaseVar


# ---------------------------------------------------------------------------
# metrics


class MetricSpec:
    """A nonsingular pseudo-Riemannian metric on the base chart, with its
    exact inverse.

    Entries are expressions in the base variables x1..xm, given as a
    dict keyed by 1-based index pairs.  The inverse is built at
    construction, one block at a time (`blocks`): each block's adjugate
    over that block's determinant, and zero between blocks.  det g is
    the product of the block determinants, so a metric whose determinant
    is identically zero is refused there.  The inverse entries are exact rational expressions
    wherever the determinant does not vanish, and each carries only its
    own block's determinant.
    """

    def __init__(self, m, entries):
        self.m = m
        grid = [[sx.ZERO] * m for _ in range(m)]
        for (i, j), e in entries.items():
            if not (1 <= i <= m and 1 <= j <= m):
                raise ValueError("metric index g[%s][%s] is outside 1..%d" % (i, j, m))
            e = grid[i - 1][j - 1] = sx.as_expr(e)
            for v in e.free_vars():
                if not isinstance(v, BaseVar):
                    raise ValueError("metric entries must be base-only expressions")
                if v.i > m:
                    raise ValueError("metric entry g[%d][%d] uses x%d, which is not a base "
                                     "variable x1..x%d of the metric" % (i, j, v.i, m))
        for i in range(m):
            for j in range(m):
                if not sx.is_identically_zero(grid[i][j] - grid[j][i]):
                    raise ValueError("metric must be symmetric")
        self.entries = grid
        inv = self._inv = [[sx.ZERO] * m for _ in range(m)]
        for block in self.blocks():
            n = len(block)
            g = [[grid[r][c] for c in block] for r in block]
            det = sx.det(g)
            if sx.is_identically_zero(det):
                raise ValueError("metric expression is singular")
            # the one 1/det that every entry of the block is a cofactor times
            inv_det = sx.inverse(det)
            for r in range(n):
                for c in range(n):
                    minor = [
                        [g[rr][cc] for cc in range(n) if cc != c]
                        for rr in range(n)
                        if rr != r
                    ]
                    sign = -1 if (r + c) % 2 else 1
                    # adjugate transposes, but cofactor matrices of
                    # symmetric matrices are symmetric
                    inv[block[c]][block[r]] = sign * sx.det(minor) * inv_det

    def blocks(self):
        """The index blocks of the metric, 0-based and in index order: the
        connected components of its structural nonzero pattern, so g is
        block diagonal up to a permutation of the indices."""
        linked = lambda r, c: not (self.entries[r][c].is_zero() and self.entries[c][r].is_zero())
        blocks = []
        for i in range(self.m):
            touching = [b for b in blocks if any(linked(i, j) for j in b)]
            blocks = [b for b in blocks if b not in touching]
            blocks.append(sorted([i] + [j for b in touching for j in b]))
        return sorted(blocks)

    def inverse_entry(self, i, j):
        return self._inv[i - 1][j - 1]

    def brackets(self):
        """The nonzero brackets d_i g_jl + d_j g_il - d_l g_ij, which are
        symmetric in i, j: {(i, j): [(l, bracket), ...]} for i <= j, in l
        order, with 0-based indices."""
        m = self.m
        base = [BaseVar(l) for l in range(1, m + 1)]
        dg = [
            [list(sx.partials(self.entries[a][b], base).values()) for b in range(m)]
            for a in range(m)
        ]
        brackets = {}
        for ii in range(m):
            for jj in range(ii, m):
                brackets[(ii, jj)] = [
                    (ll, b) for ll in range(m)
                    if not (b := dg[jj][ll][ii] + dg[ii][ll][jj] - dg[ii][jj][ll]).is_zero()
                ]
        return brackets

    @classmethod
    def diagonal(cls, values):
        m = len(values)
        return cls(m, {(i + 1, i + 1): values[i] for i in range(m)})

    @classmethod
    def minkowski(cls, m):
        return cls.diagonal([1] + [-1] * (m - 1))


# ---------------------------------------------------------------------------
# the wave-type operator family


class KleinGordonOp(jc.DiffOp):
    """Scalar order-2 operator built from a metric alone:
    sum_ij g^{ij} u_{1_i + 1_j} - sum_ijk g^{ij} Gamma^k_{ij} u_{1_k}
    + F1 u + F2 K(u), for K a callable Expr -> Expr.  The potential
    terms may not hold derivatives of u, so the top order is g^{ij}.
    """

    __slots__ = ("metric",)

    def __init__(self, metric, F1=0, F2=0, K=None):
        m = metric.m
        F1 = sx.as_expr(F1)
        F2 = sx.as_expr(F2)
        u0 = sx.jet(1, MultiIndex.zero(m))
        h = sx.ZERO
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                gij = metric.inverse_entry(i, j)
                if gij.is_zero():
                    continue
                I = MultiIndex.unit(m, i).add(MultiIndex.unit(m, j))
                h = h + gij * sx.jet(1, I)
        # sum_ij g^{ij} Gamma^k_{ij} = 1/2 sum_l g^{kl} w_l with
        # w_l = sum_ij g^{ij} (d_i g_jl + d_j g_il - d_l g_ij): m
        # contractions instead of m^3 products g^{ij} Gamma^k_{ij}
        w = [sx.ZERO] * m
        for (i, j), nonzero in metric.brackets().items():
            gij = metric.inverse_entry(i + 1, j + 1)
            if gij.is_zero():
                continue
            if i != j:
                # the bracket is symmetric in i, j: the (j, i) term too
                gij = 2 * gij
            for l, b in nonzero:
                w[l] = w[l] + gij * b
        for k in range(1, m + 1):
            total = sx.ZERO
            for l in range(m):
                if not w[l].is_zero():
                    total = total + metric.inverse_entry(k, l + 1) * w[l]
            if not total.is_zero():
                h = h - Fraction(1, 2) * total * sx.jet(1, MultiIndex.unit(m, k))
        potential = F1 * u0
        if not F2.is_zero():
            if K is None:
                raise ValueError("F2 is nonzero but no K was given")
            potential = potential + F2 * sx.as_expr(K(u0))
        if potential.max_jet_degree() > 0:
            raise ValueError("F1, F2 and K(u) may not hold derivatives of u")
        h = h + potential
        super().__init__(m, 1, 2, [h])
        self.metric = metric


def make_klein_gordon(metric, F1=0, F2=0, K=None):
    """The `KleinGordonOp` of the metric and potential terms."""
    return KleinGordonOp(metric, F1, F2, K)


# ---------------------------------------------------------------------------
# point lifting


class LiftObstructionError(RuntimeError):
    """The affine lift system is inconsistent at the given point: the
    next-order derivative conditions cannot all be met."""


OBSTRUCTED = "no lift at this point: the next-order conditions are inconsistent"


@dataclass
class LiftResult:
    point: jc.JetPoint
    free_labels: list
    rank: int

    @property
    def free_count(self):
        return len(self.free_labels)


def lift_system_at(h, b):
    """The affine system for one more order of jet coordinates at b.

    Rows are the components of prolong_op(h, l+1) of outer degree
    exactly l+1 (l = `jc.point_level(h, b)`); columns are the order-(k+l+1)
    coordinates in graded-lex order.  Returns (A, R, column labels, E):
    R the right-hand-side values, one per row, as the pair (nums, den),
    the integers nums over one positive denominator den, and E the
    `Echelon` of [A | I], which decides and solves A x = y for every y
    in that form.  The rows and their Jacobian come from h's lift plan,
    compiled on b's own chart with the new coordinates at zero (R is
    minus the rows there); only their values at b are computed here,
    read from b's integer row as integers over one denominator
    (`sx.Batch`), so no Fraction is formed.  A is the shifted symbol, so
    it is built from the symbol values sigma(b) alone, at the plan's
    structurally nonzero entries, each row brought to lowest terms
    (`RationalMatrix.from_int_rows`); E is made with it.  This is the
    one writer of the plan's `last`: while sigma(b), keyed as integers
    over one denominator in lowest terms, equals that of the plan's last
    point, A and E are that point's objects.
    """
    plan = jc.lift_plan(h, jc.point_level(h, b))
    values, den = plan.batch.at(b.nums, b.den)
    sigma = [values[p] for p in plan.sigma]
    g = gcd(den, *sigma)
    key = (sigma, den) if g == 1 else ([x // g for x in sigma], den // g)
    if plan.last is None or plan.last[0] != key:
        nums = [{j: values[p] for j, p in row} for row in plan.entries]
        A = sp.RationalMatrix.from_int_rows(nums, [den] * len(nums), plan.unknowns,
                                            row_labels=plan.row_labels)
        plan.last = (key, A, sp.Echelon(A, sp.RationalMatrix.identity(A.nrows)))
    _, A, E = plan.last
    return A, (tuple([-values[p] for p in plan.rhs]), den), list(plan.unknowns), E


def lift_point(h, b, free_data=None, policy="zero", seed=None, check=True):
    """One-step lift: extend a point of ker(h)^(l) to one of ker(h)^(l+1).

    The new top-order coordinates solve the affine system of next-order
    prolonged components evaluated at b (`lift_system_at`), A x = R.
    Free coordinates (the kernel of A, graded-lex order) are zero by
    default; policy "random" draws them from a seeded rational sampler,
    policy "explicit" reads them from free_data keyed by (alpha, index).
    Raises LiftObstructionError when the system is inconsistent.

    The solve reads the elimination E of [A | I] that `lift_system_at`
    returns with A, against R (`Echelon.solve`): A and E repeat wherever
    the symbol values do, as at every point of a constant-coefficient
    operator or over one base point of a Klein-Gordon operator.  The
    quotient values that the membership check and the lift plan's batch
    compute, such as g^{ij}(x), repeat wherever the values they read do
    (`sx.Batch`).  The free columns are those of the reduced row
    echelon form of A alone, and the solution is unique given the free
    values; it is the new jets of the lifted point, in label order,
    appended to b's integer row (`JetPoint.extend`).  With no free data
    drawn or given, a lift forms no Fraction.
    """
    if check and not jc.on_variety(h, b):
        raise ValueError("point does not satisfy the prolonged equations")
    _, R, unknowns, E = lift_system_at(h, b)
    free = E.free
    free_values = None
    if policy == "random":
        rng = random.Random(seed)
        # draw for every column in order, then keep the free ones, so the
        # draw sequence does not depend on the pivot pattern
        draws = {lab: sx.random_rational(rng, 4) for lab in unknowns}
        free_values = {unknowns[f]: draws[unknowns[f]] for f in free}
    elif policy == "explicit":
        # values for determined (pivot) columns are ignored: the explicit
        # table is Cauchy-style data for the kernel coordinates only
        table = {
            (alpha, MultiIndex(T)): val for (alpha, T), val in (free_data or {}).items()
        }
        free_values = {
            unknowns[f]: table[unknowns[f]] for f in free if unknowns[f] in table
        }
    elif policy != "zero":
        raise ValueError("unknown free-data policy %r" % policy)
    try:
        (x, den), free = E.solve(R, free_values)
    except ValueError:
        # the free values are keyed by E's own free columns, so the one
        # error left is an inconsistent R
        raise LiftObstructionError(OBSTRUCTED) from None
    return LiftResult(point=b.extend(x, den), free_labels=[unknowns[f] for f in free],
                      rank=E.rank)


def sample_prolonged_points(h, l, count, seed):
    """Points of ker(h)^(l): each point b of
    `sy.sample_variety_points(h, count, seed)` lifted l times by
    `lift_point`, step j of point idx with random free data seeded
    "seed:idx:j".  Refuses l < 0, and the sampler refuses count < 1."""
    if l < 0:
        raise ValueError("level l must be at least 0, got %d" % l)
    points = []
    for idx, b in enumerate(sy.sample_variety_points(h, count, seed)):
        for step in range(l):
            b = lift_point(h, b, policy="random", seed="%s:%d:%d" % (seed, idx, step),
                           check=False).point
        points.append(b)
    return points


# ---------------------------------------------------------------------------
# the three-condition checker


@dataclass
class ConditionReport:
    name: str
    passed: bool
    certified: bool
    detail: str
    data: dict = field(default_factory=dict)


@dataclass
class IntegrabilityReport:
    condition1: ConditionReport
    condition2: ConditionReport
    condition3: ConditionReport
    verdict: str

    @property
    def passed(self):
        return self.condition1.passed and self.condition2.passed and self.condition3.passed

    def lines(self):
        out = []
        for c in (self.condition1, self.condition2, self.condition3):
            tag = "PASS" if c.passed else "FAIL"
            cert = "certified" if c.certified else "sampled evidence"
            out.append("[%s] %s (%s): %s" % (tag, c.name, cert, c.detail))
        out.append("verdict: %s" % self.verdict)
        return out


def _check_symbol_nonvanishing(h, samples, seed):
    s = sy.symbol_of(h)
    if not s:
        return ConditionReport(
            "symbol nonvanishing", False, True,
            "every top-order coefficient is the zero expression",
        )
    # the checker is scalar, so the table lists the coefficients by J graded-lex
    coeffs = list(s.values())
    for c in coeffs:
        if c.is_constant() and c.constant_value() != 0:
            return ConditionReport(
                "symbol nonvanishing", True, True,
                "a top-order coefficient is the nonzero constant %s" % c,
            )
    if isinstance(h, KleinGordonOp):
        # certified by construction: `KleinGordonOp` reads the top
        # order off g^{ij}, and a `MetricSpec` is nonsingular from its
        # construction, which refuses an identically zero determinant
        return ConditionReport(
            "symbol nonvanishing", True, True,
            "top-order coefficients form the exact inverse metric; an invertible "
            "matrix has no zero row, so the symbol cannot vanish where the metric "
            "is nondegenerate",
        )
    # sampled fallback: all coefficients zero at some point would fail;
    # a point where a coefficient's denominator vanishes is skipped
    rng = random.Random(seed)
    allvars = sorted({v for c in coeffs for v in c.free_vars()}, key=lambda v: v.key)
    slots = {v: pos for pos, v in enumerate(allvars)}
    batch = sx.Batch(coeffs, slots)
    skipped = 0
    for _ in range(samples):
        values = [sx.random_rational(rng, 5) for _ in allvars]
        try:
            vals, _ = batch.at(*sx.integer_row(values))
        except sx.EvalZeroDivision:
            skipped += 1
            continue
        except sx.EvaluationError:
            return ConditionReport(
                "symbol nonvanishing", True, False,
                "non-rational coefficients: nonvanishing not sampled exactly",
            )
        if not any(vals):
            return ConditionReport(
                "symbol nonvanishing", False, False,
                "all top-order coefficients vanish at a sampled point",
                {"witness": {v: values[pos] for v, pos in slots.items()}},
            )
    evaluated = samples - skipped
    if not evaluated:
        return ConditionReport(
            "symbol nonvanishing", False, False,
            "no point evaluated: a denominator vanishes at each of the %d sampled points"
            % samples,
        )
    detail = "nonzero at all %d sampled points" % evaluated
    if skipped:
        detail += " evaluated; %d skipped where a denominator vanishes" % skipped
    return ConditionReport("symbol nonvanishing", True, False, detail)


def check_conditions(h, samples=20, seed=0, mode="exact"):
    """Run the three-part formal-integrability check on a scalar operator;
    conditions 2 and 3 read one `sy.rank_profile`, sampled at seed + 1.
    Refuses samples < 1, which would pass with no evidence."""
    if h.n != 1 or h.n_out != 1:
        raise ValueError("the checker handles scalar operators (n = 1, one component)")
    if samples < 1:
        raise ValueError("samples must be at least 1, got %d" % samples)

    c1 = _check_symbol_nonvanishing(h, samples, seed)

    profile = sy.rank_profile(h, samples=samples, seed=seed + 1, mode=mode)
    c2 = ConditionReport(
        "prolonged symbol constant rank",
        profile.constant_on_samples or profile.certified,
        profile.certified,
        profile.summary(),
        {"profile": profile},
    )

    counts = profile.free_counts
    if counts is None:
        c3 = ConditionReport("lift surjectivity", False, False, c2.detail)
    elif None in counts:
        c3 = ConditionReport(
            "lift surjectivity", False, False,
            "lift obstructed at a sampled point: %s" % OBSTRUCTED,
            {"witness": profile.points[counts.index(None)]},
        )
    else:
        c3 = ConditionReport(
            "lift surjectivity", True, False,
            "one-step lift solvable at all %d sampled points (free parameters: %s)"
            % (len(counts), sorted(set(counts))),
            {"free_counts": counts},
        )

    if c1.passed and c2.passed and c3.passed:
        tags = ["%s (%s)" % (c.name, "certified" if c.certified else "sampled evidence")
                for c in (c1, c2, c3)]
        verdict = "all conditions satisfied: %s" % ", ".join(tags)
    else:
        failed = [c.name for c in (c1, c2, c3) if not c.passed]
        verdict = "not established: %s failed" % ", ".join(failed)
    return IntegrabilityReport(c1, c2, c3, verdict)


# ---------------------------------------------------------------------------
# variety codimension diagnostics


@dataclass
class CodimReport:
    level: int
    expected: int
    observed: list
    points: int

    @property
    def all_match(self):
        return all(c == self.expected for c in self.observed)

    def summary(self):
        if self.all_match:
            return "codimension %d = number of defining equations at all %d samples" % (
                self.expected, self.points)
        return "codimension varies: observed %s, expected %d" % (
            sorted(set(self.observed)), self.expected)


def variety_codim(h, l, samples=10, seed=0):
    """Jacobian rank of the prolonged system at sampled variety points.

    The expected codimension of the order-(k+l) equation variety is the
    number of defining equations, comb(m + l, l) for a scalar operator:
    one D_I h per |I| <= l.

    The Jacobian of `prolong_op(h, l)` is block lower-triangular: D_I h
    has order k + |I|, and its columns of that order are the shifted
    symbol, the row sigma(b) for |I| = 0 and the lift matrix of step
    |I| - 1 otherwise.  Every point of `sy.sample_variety_points` has
    c(b) != 0, c the symbol entry of its solved variable, so sigma(b) != 0
    there and at each lift of it.  Then each diagonal block has full row
    rank (multiplication by sigma(xi) is injective), and so has the
    Jacobian: its rank is 1 plus the rank of each lift matrix A_j,
    j < l.

    A_j depends on a point only through sigma, which reads its jets of
    order <= k alone, and the lifts that `sample_prolonged_points` makes
    keep those.  So each sampled point b of R_k is scored without
    lifting it: the ranks are read off `lift_system_at` at b_0 = b and
    b_{j+1} = b_j extended by zero jets of the next order, points of the
    same charts as the lifted ones with the same sigma, so the same
    matrices A_j.  The lifted points' own jets, their random free data
    and their solves are not needed.
    """
    if h.n_out != 1:
        raise ValueError("codimension diagnostics are for scalar operators")
    if samples < 1:
        raise ValueError("samples must be at least 1, got %d" % samples)
    # built before sampling, so a prolongation error comes first
    jc.prolong_op(h, l)
    observed = []
    for b in sy.sample_variety_points(h, samples, seed):
        rank = 1
        for _ in range(l):
            _, _, unknowns, E = lift_system_at(h, b)
            rank += E.rank
            b = b.extend([0] * len(unknowns), 1)
        observed.append(rank)
    expected = comb(h.m + l, l)
    return CodimReport(level=l, expected=expected, observed=observed, points=len(observed))
