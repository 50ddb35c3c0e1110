"""Jet charts, jet points, and prolongation of sections and operators.

Everything lives in one fixed fibered chart over an open box in R^m with
fiber R^n.  A point of the order-k jet space is the base point together
with one value per jet coordinate u^alpha_I, |I| <= k.  Operators are
ordered tuples of expressions in these coordinates; prolongation is
iterated total differentiation.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from types import MappingProxyType

from .mindex import MultiIndex, enumerate_indices
from . import symexpr as sx
from .symexpr import Expr, BaseVar, JetVar, ParamVar, as_expr, differentiate


class JetChartSpec:
    """The order-k jet chart of the trivial bundle over R^m with fiber R^n.

    `JetChartSpec(m, n, k)` returns the one chart for (m, n, k), built
    on first use by extending the order-(k-1) chart, so charts compare
    and hash by identity and lower orders share their index, label and
    atom objects.  A chart is read-only, since every point on it shares
    it.

    `indices` are the multi-indices |I| <= k in graded-lex order, and
    `labels` the (alpha, I) fiber labels in chart order: graded-lex on
    I, degree first, then alpha.  So the order-k labels are a prefix of
    the order-(k+1) labels.  `atoms` are the chart coordinates as atoms,
    the base variables x_1..x_m first and then one JetVar per label, and
    `dim` is their number.  `index` maps a label to its position in
    `labels`, `slots` an atom to its position in `atoms`.
    """

    __slots__ = ("m", "n", "k", "dim", "indices", "labels", "atoms", "index", "slots")

    def __new__(cls, m, n, k):
        return _chart(m, n, k)

    def __setattr__(self, name, value):
        raise AttributeError("a jet chart is read-only")

    def __reduce__(self):
        return JetChartSpec, (self.m, self.n, self.k)

    def __repr__(self):
        return "JetChartSpec(m=%d, n=%d, k=%d)" % (self.m, self.n, self.k)

    def jet_indices(self):
        return list(self.indices)


@functools.cache
def _chart(m, n, k):
    if m < 1 or n < 1 or k < 0:
        raise ValueError("need m >= 1, n >= 1, k >= 0")
    if k == 0:
        indices, labels, atoms = (), (), tuple(BaseVar(i) for i in range(1, m + 1))
    else:
        below = _chart(m, n, k - 1)
        indices, labels, atoms = below.indices, below.labels, below.atoms
    top = enumerate_indices(m, k)
    new = tuple((alpha, I) for I in top for alpha in range(1, n + 1))
    labels += new
    atoms += tuple(JetVar(alpha, I) for alpha, I in new)
    chart = object.__new__(JetChartSpec)
    for name, value in dict(
            m=m, n=n, k=k, dim=len(atoms), indices=indices + tuple(top), labels=labels,
            atoms=atoms, index=MappingProxyType({label: pos for pos, label in enumerate(labels)}),
            slots=MappingProxyType({a: pos for pos, a in enumerate(atoms)})).items():
        object.__setattr__(chart, name, value)
    return chart


_MISSING = object()


def _as_fraction(v):
    return v if type(v) is Fraction else Fraction(v)


class JetPoint:
    """A point of the order-k jet chart: base values plus every jet value.

    The jet values are a tuple `values` in the order of the chart's
    labels (`chart.labels`), so `project` keeps a prefix and `extend`
    appends the new top-order values.  `p[(alpha, I)]` reads one value;
    `jets` builds the {(alpha, I): value} dict.  Two points are equal
    when their charts have the same (m, n, k) and their base and jet
    values are equal.

    Example:
        >>> chart = JetChartSpec(1, 1, 1)
        >>> p = JetPoint(chart, (0,), {(1, (0,)): 2, (1, (1,)): 3})
        >>> p[(1, (1,))]
        Fraction(3, 1)
    """

    __slots__ = ("chart", "base", "values")

    def __init__(self, chart, base, jets):
        self._fill(chart, base, _jet_values(chart.labels, jets))

    @classmethod
    def from_values(cls, chart, base, values):
        """The point with jet values given in the order of the chart's
        labels."""
        p = cls.__new__(cls)
        p._fill(chart, base, values)
        return p

    def _fill(self, chart, base, values):
        if len(base) != chart.m:
            raise ValueError("base point has wrong dimension")
        if len(values) != len(chart.labels):
            raise ValueError("wrong number of jet values")
        self.chart = chart
        self.base = tuple([_as_fraction(b) for b in base])
        self.values = tuple([_as_fraction(v) for v in values])

    @property
    def jets(self):
        return dict(zip(self.chart.labels, self.values))

    def __getitem__(self, key):
        # a MultiIndex is a tuple, so (alpha, I) finds the label for
        # either; other index sequences are turned into tuples
        index = self.chart.index
        try:
            pos = index[key]
        except TypeError:
            alpha, I = key
            pos = index[(alpha, tuple(I))]
        return self.values[pos]

    def assignment(self):
        """Variable assignment suitable for symexpr.evaluate."""
        return dict(zip(self.chart.atoms, self.base + self.values))

    def project(self, k1):
        """Forget jets of degree above k1."""
        if k1 > self.chart.k:
            raise ValueError("cannot project upward")
        chart = JetChartSpec(self.chart.m, self.chart.n, k1)
        return JetPoint.from_values(chart, self.base, self.values[:len(chart.labels)])

    def extend(self, values):
        """Adjoin order-(k+1) values, producing a point one level up.

        values holds one value per new label (alpha, I), |I| = k + 1, in
        the order of the order-(k+1) chart's labels, as `from_values`
        takes them."""
        chart = JetChartSpec(self.chart.m, self.chart.n, self.chart.k + 1)
        return JetPoint.from_values(chart, self.base, [*self.values, *values])

    def __eq__(self, other):
        return (
            isinstance(other, JetPoint)
            and (self.chart.m, self.chart.n, self.chart.k)
            == (other.chart.m, other.chart.n, other.chart.k)
            and self.base == other.base
            and self.values == other.values
        )

    def __repr__(self):
        return "JetPoint(m=%d, n=%d, k=%d, base=%s)" % (
            self.chart.m, self.chart.n, self.chart.k, self.base,
        )


def _jet_values(labels, jets):
    """The values of jets ({(alpha, I): value}) at labels, in order."""
    out = []
    for key in labels:
        v = jets.get(key, _MISSING)
        if v is _MISSING:
            raise ValueError("missing jet value for %s" % (key,))
        out.append(v)
    return out


class DiffOp:
    """A differential operator of order <= k in bundle coordinates.

    Components are expressions over the order-k chart, and one that uses
    a base or jet variable off that chart, or a parameter without a
    value, is refused; the target space
    is R^len(components).  `labels` records (beta, I) provenance for
    prolonged operators; plain operators get beta-only labels.

    What is derived from the components is built on first use and kept
    on the operator, in the one dict `_kept`, which only `kept` writes:
    the symbol (`symbol_table`), each prolongation level (`prolong_op`),
    each lift plan (`lift_plan`), the variety sampler plan
    (`symbols.sampler_plan`), and, keyed by the (m, n, k) of each chart
    it is evaluated on, the exact batch of its components
    (`evaluate_at`) and that of its symbol entries
    (`spencer.symbol_constraint_matrix`).  A build that raises
    keeps nothing, so the next call builds again and raises again.  An
    operator must not be mutated after construction.
    """

    __slots__ = ("m", "n", "order", "components", "labels", "_kept")

    def __init__(self, m, n, order, components):
        components = tuple(as_expr(c) for c in components)
        slots = JetChartSpec(m, n, order).slots
        for c in components:
            for v in c.free_vars():
                if isinstance(v, ParamVar):
                    raise ValueError("component uses the parameter %s, which has no value; "
                                     "substitute it first" % sx.atom_str(v))
                if isinstance(v, (BaseVar, JetVar)) and v not in slots:
                    if isinstance(v, JetVar) and v.index.degree > order:
                        raise ValueError("component uses jets above the declared order")
                    raise ValueError("component uses %s, which is not a coordinate of the "
                                     "chart with m = %d, n = %d" % (sx.atom_str(v), m, n))
        self._fill(m, n, order, components, None)

    @classmethod
    def _unchecked(cls, m, n, order, components, labels):
        """The operator of the given Expr components, whose variables
        are on the chart by construction, without checking them."""
        h = cls.__new__(cls)
        h._fill(m, n, order, tuple(components), labels)
        return h

    def _fill(self, m, n, order, components, labels):
        self.m = m
        self.n = n
        self.order = order
        self.components = components
        if labels is None:
            labels = tuple((beta, MultiIndex.zero(m)) for beta in range(1, len(components) + 1))
        self.labels = tuple(labels)
        self._kept = {}

    @property
    def n_out(self):
        return len(self.components)

    def chart(self):
        return JetChartSpec(self.m, self.n, self.order)

    def evaluate_at(self, point, exact=True):
        """Component values at a jet point; exact ones read the point's
        coordinates by slot position."""
        if not exact:
            return tuple(sx.evaluate_many(self.components, point.assignment(), exact=False))
        chart = point.chart
        batch = kept(self, ("batch", chart.m, chart.n, chart.k), sx.Batch, self.components,
                     chart.slots)
        return tuple(batch.at(point.base + point.values))

    def is_linear(self):
        """Affine-linear in the jet variables with base-only coefficients.

        The constant term may depend on the base point; jet coefficients
        must be expressions in base variables alone.
        """
        for c in self.components:
            for v in c.jet_vars():
                coef = differentiate(c, v)
                if any(isinstance(w, JetVar) for w in coef.free_vars()):
                    return False
        return True

    def __repr__(self):
        return "DiffOp(m=%d, n=%d, order=%d, n_out=%d)" % (
            self.m, self.n, self.order, self.n_out,
        )


def kept(h, key, build, *args):
    """The value the operator h keeps under key, else build(*args), kept
    and returned; a build that raises keeps nothing (see `DiffOp`)."""
    value = h._kept.get(key, _MISSING)
    if value is _MISSING:
        value = h._kept[key] = build(*args)
    return value


class SectionPoly:
    """A local section given by n component expressions in the base
    variables x1..xm; one that uses another variable is refused."""

    __slots__ = ("m", "components")

    def __init__(self, m, components):
        self.m = m
        self.components = tuple(as_expr(c) for c in components)
        for c in self.components:
            free = c.free_vars()
            if any(not isinstance(v, BaseVar) for v in free):
                raise ValueError("section components must depend on base variables only")
            off = [v for v in free if v.i > m]
            if off:
                raise ValueError("section component uses %s, which is not a base variable "
                                 "for m = %d" % (sx.atom_str(min(off)), m))

    @property
    def n(self):
        return len(self.components)

    def derivative(self, alpha, I):
        """d^I psi^alpha, for 1 <= alpha <= n and an I with m entries."""
        if not 1 <= alpha <= self.n:
            raise ValueError("component alpha = %d is outside 1..%d" % (alpha, self.n))
        if len(I) != self.m:
            raise ValueError("index %s has %d entries, need %d" % (tuple(I), len(I), self.m))
        e = self.components[alpha - 1]
        for i, exp in enumerate(I, start=1):
            for _ in range(exp):
                e = differentiate(e, BaseVar(i))
        return e


def jet_of_section(psi, p, k):
    """The k-jet of the section at p: jets[(alpha, I)] = d^I psi^alpha (p)."""
    chart = JetChartSpec(psi.m, psi.n, k)
    assignment = dict(zip(chart.atoms[:psi.m], p))
    values = sx.evaluate_many(section_jet_assignment(psi, k).values(), assignment)
    return JetPoint.from_values(chart, p, values)


def total_derivative(e, i):
    """Total derivative D_i: base derivative plus jet-shift chain terms.

    D_i e = de/dx_i + sum over jet variables u^alpha_I present in e of
    u^alpha_{I + 1_i} * de/du^alpha_I.  Jet variables absent from e have
    zero partials, so iterating over present variables loses nothing.
    All the partials come from one walk over the terms of e
    (`sx.partials`), and each chain term goes into the sum by one more
    factor per monomial; the sum is the x_i part, then the jet
    variables in key order.
    """
    e = as_expr(e)
    x = BaseVar(i)
    jets = e.jet_vars()
    d = sx.partials(e, [x, *jets])
    return sx.sum_times_atoms(
        [(None, d[x])] + [(JetVar(v.alpha, v.index.add_unit(i)), d[v]) for v in jets])


def prolong_op(h, l):
    """l-jet prolongation: components D_I h_beta for |I| <= l.

    Ordered graded-lex on the outer index I, then by beta; labels carry
    the (beta, I) provenance.  Each level is built once per operator,
    from the components of the level below, and kept on h by `kept`:
    every later call for that level returns the same object.
    """
    if l < 0:
        raise ValueError("prolongation order must be >= 0")
    level = h
    for j in range(1, l + 1):
        level = kept(h, ("level", j), _prolong_once, h, level, j)
    return level


def point_level(h, b):
    """The level l = b.chart.k - h.order of the jet point b for h: the
    equations of b's chart are those of prolong_op(h, l).  Refuses a
    point of another bundle and a point below h's order."""
    if (b.chart.m, b.chart.n) != (h.m, h.n):
        raise ValueError("point and operator live on different bundles")
    if b.chart.k < h.order:
        raise ValueError("point order below operator order")
    return b.chart.k - h.order


def on_variety(h, b):
    """Whether the jet point b lies on the equation variety R_{k+l} of h,
    l its level: every component of prolong_op(h, l) vanishes at b.  No
    equation reaches below h's order, so a point of h's bundle there is
    on it; a point of another bundle is refused at every order."""
    if b.chart.k < h.order and (b.chart.m, b.chart.n) == (h.m, h.n):
        return True
    return all(v == 0 for v in prolong_op(h, point_level(h, b)).evaluate_at(b))


def _prolong_once(h, prev, l):
    """Level l from level l - 1: D_I h_beta = D_i D_{I - 1_i} h_beta for
    each new |I| = l, with i the first axis where I is positive."""
    nb = h.n_out
    indices = JetChartSpec(h.m, h.n, l).indices
    # position of each index |J| <= l - 1 among the components of prev
    below = {J: pos * nb for pos, J in enumerate(indices) if J.degree < l}
    components = list(prev.components)
    for I in indices[len(below):]:
        i = next(ax + 1 for ax, e in enumerate(I) if e > 0)
        at = below[I.sub_unit(i)]
        components.extend(total_derivative(c, i) for c in prev.components[at:at + nb])
    labels = [(beta, I) for I in indices for beta in range(1, nb + 1)]
    # D_i raises the jet order by at most one, so level l has order <= h.order + l
    return DiffOp._unchecked(h.m, h.n, h.order + l, components, labels)


def symbol_table(h):
    """The symbol of h: {(alpha, beta, J): dh_beta/du^alpha_J} over the
    top-order jets |J| = h.order, nonzero entries only, ordered by beta,
    then J graded-lex, then alpha.

    This is the one place where components are differentiated by
    top-order jets, one walk per component (`sx.partials`).  The table
    is built on first use and kept on h by `kept`, read-only, and every
    call returns that one mapping: symbols, symbol matrices, the variety
    sampler and lift plans all read it.
    """
    return kept(h, "symbol", _symbol_entries, h)


def _symbol_entries(h):
    tops = [JetVar(alpha, J)
            for J in enumerate_indices(h.m, h.order)
            for alpha in range(1, h.n + 1)]
    entries = {}
    for beta, comp in enumerate(h.components, start=1):
        for v, c in sx.partials(comp, tops).items():
            if not c.is_zero():
                entries[(v.alpha, beta, v.index)] = c
    return MappingProxyType(entries)


def shifted_symbol(table, alpha, beta, T, I):
    """d(D_I h_beta)/du^alpha_T for |T| = h.order + |I|, read off the
    symbol table of h: the entry at T - I when T >= I componentwise,
    else 0 (see `LiftPlan`)."""
    J = tuple(t - i for t, i in zip(T, I))
    return sx.ZERO if min(J) < 0 else table.get((alpha, beta, J), sx.ZERO)


class LiftPlan:
    """The equations of one lift step of an operator, compiled once.

    Lifting a point of the order-(k+l) equation variety solves for the
    order-(k+l+1) coordinates `unknowns` (the new labels of the
    order-(k+l+1) chart, (alpha, T) graded-lex on T) from the rows
    D_I h_beta with |I| = l + 1 (`row_labels`), which are affine in
    them.  `batch` holds, row after row, the nonzero Jacobian entries
    d(D_I h_beta)/du^alpha_T no earlier row holds, then the row's
    component with the unknowns set to zero: what a lift evaluates, each
    once, met in row order, so the first error is the one a row-by-row
    lift raises.  Setting the unknowns to zero drops the terms that have
    one as a factor (`sx.drop_factors`), and nothing of order k+l+1 is
    left, so the batch is compiled against the point's own chart, order
    k+l, and `integrability.lift_system_at` reads the point as it is.

    The Jacobian is read off the symbol by an index shift, not by
    differentiating the prolonged rows: for |I| >= 1,
    d(D_I h_beta)/du^alpha_T = dh_beta/du^alpha_{T-I} when T >= I
    componentwise, and 0 otherwise (the symbol of the prolonged
    equation is the prolonged symbol; Seiler, Involution, Springer
    2010).  By induction on |I|: of the terms u^alpha_{J+1_i} dg/du^alpha_J
    that D_i adds to an order-k expression g, only those with |J| = k
    carry order-(k+1) jets, and dg/du^alpha_J has order <= k.  So the
    new jets enter a row only as plain factors, each term at most one,
    never inside a quotient or primitive argument; were one left in a
    row, evaluating the batch would raise "no value assigned".

    So the Jacobian A depends on the point only through the symbol
    values sigma(b).  `entries` lists, per row, the (column, value
    position) of each structurally nonzero entry of A, `sigma` the value
    position of each distinct symbol entry, and `rhs` the value position
    of each row's component.  `last` is (the values at `sigma`, A, the
    `Echelon` of [A | I]) of the last point a lift system was built at,
    None until then; only the last one is kept, and only
    `integrability.lift_system_at` writes it.  Likewise the batch keeps
    the last value of each quotient it reads (`sx.Batch`), so quotient
    values repeat wherever their inputs do, as g^{ij}(x) does over one
    base point, just as A and E repeat wherever sigma(b) does.
    """

    __slots__ = ("unknowns", "row_labels", "batch", "entries", "sigma", "rhs", "last")

    def __init__(self, h, l):
        chart = JetChartSpec(h.m, h.n, h.order + l + 1)
        below = JetChartSpec(h.m, h.n, h.order + l)
        self.unknowns = chart.labels[len(below.labels):]
        new = frozenset(chart.atoms[below.dim:])
        symbol = symbol_table(h)
        prolonged = prolong_op(h, l + 1)
        row_labels = []
        exprs = []
        entries = []
        sigma = {}
        rhs = []
        for comp, (beta, I) in zip(prolonged.components, prolonged.labels):
            if I.degree != l + 1:
                continue
            row_labels.append((beta, I))
            row = []
            for j, (alpha, T) in enumerate(self.unknowns):
                e = shifted_symbol(symbol, alpha, beta, T, I)
                if not e.is_zero():
                    pos = sigma.get(id(e))
                    if pos is None:
                        pos = sigma[id(e)] = len(exprs)
                        exprs.append(e)
                    row.append((j, pos))
            entries.append(tuple(row))
            rhs.append(len(exprs))
            exprs.append(sx.drop_factors(comp, new))
        self.row_labels = tuple(row_labels)
        self.batch = sx.Batch(exprs, below.slots)
        self.entries = tuple(entries)
        self.sigma = tuple(sigma.values())
        self.rhs = tuple(rhs)
        self.last = None


def lift_plan(h, l):
    """The lift plan of h at level l (points of order h.order + l),
    built on first use and kept on h by `kept`."""
    if l < 0:
        raise ValueError("lift level must be >= 0")
    return kept(h, ("lift plan", l), LiftPlan, h, l)


class IotaReindex:
    """Coordinate relabeling of the embedding J^{k+l}(pi) -> J^l(pi_k).

    A fiber coordinate of J^l(pi_k) is addressed by (inner label
    (alpha, I) with |I| <= k, outer index J with |J| <= l); it pulls
    back to u^alpha_{I+J}.
    """

    def __init__(self, m, n, k, l):
        self.m, self.n, self.k, self.l = m, n, k, l
        self.inner_chart = JetChartSpec(m, n, k)
        self.source_chart = JetChartSpec(m, n, k + l)
        inner_labels = self.inner_chart.labels
        self.outer_chart = JetChartSpec(m, len(inner_labels), l)
        # outer labels (pos, J) in chart order, and the position of the
        # source label each pulls back to
        source = self.source_chart.index
        self.label_map = {}
        self._sources = []
        for pos, J in self.outer_chart.labels:
            alpha, I = inner_labels[pos - 1]
            label = self.label_map[(pos, J)] = (alpha, I.add(J))
            self._sources.append(source[label])

    def point_embed(self, jp):
        """Image of an order-(k+l) point in the iterated-jet chart."""
        if jp.chart is not self.source_chart:
            raise ValueError("point does not live on J^{k+l}")
        return JetPoint.from_values(self.outer_chart, jp.base, [jp.values[s] for s in self._sources])

    def pull_expr(self, e):
        """Rewrite an expression on J^l(pi_k) as one on J^{k+l}(pi)."""
        outer = self.outer_chart.atoms[self.m:]
        source = self.source_chart.atoms[self.m:]
        bindings = {a: Expr.variable(source[s]) for a, s in zip(outer, self._sources)}
        return sx.substitute(e, bindings)


def bundle_to_classical(h):
    """Recover the classical coefficient table of a linear operator."""
    if not h.is_linear():
        raise ValueError("operator is not linear")
    coeffs = {}
    for beta, comp in enumerate(h.components, start=1):
        for v, c in sx.partials(comp, comp.jet_vars()).items():
            if not c.is_zero():
                coeffs[(v.alpha, beta, v.index)] = c
    return coeffs


def residual_of_section(h, psi, points):
    """Values of h along j^k psi at each base point; zero rows mean psi
    solves the equation on the sample."""
    out = []
    for p in points:
        jp = jet_of_section(psi, p, h.order)
        out.append(h.evaluate_at(jp))
    return out


def section_jet_assignment(psi, k):
    """Symbolic jets of a section: JetVar -> Expr in base variables.

    Substituting this into an operator component gives its pullback
    along j^k psi as a base-variable expression.
    """
    chart = JetChartSpec(psi.m, psi.n, k)
    return {
        atom: psi.derivative(alpha, I)
        for atom, (alpha, I) in zip(chart.atoms[psi.m:], chart.labels)
    }
