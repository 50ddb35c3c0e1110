"""Projective-limit towers and the calculus of local objects on them.

A tower is a finite prefix of a projective system: levels with
dimensions and connecting maps given by expressions in the coordinates
of the next level up.  Threads are compatible point sequences; local
functions, vector fields, and forms live at a finite level and act
through pullback along the connecting maps.  The jet tower realizes
jet spaces of a trivial bundle this way, an equation subtower restricts
it by a scalar operator, and linear towers carry the exact splitting
construction for tensor products of projective limits.

Level conventions: levels are indexed 0, 1, 2, ...; for the jet tower
the base manifold (order -1 in some formulations) is folded into level
0, which carries the base coordinates together with the order-0 fiber.
Coordinates at a tower level are the anonymous slots x1..x_{n_i}; the
jet tower records the translation between slots and jet chart labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .mindex import MultiIndex, factorial
from . import symexpr as sx
from . import jetcalc as jc
from . import spencer as sp
from . import integrability as ig
from .symexpr import Expr, BaseVar, differentiate


# ---------------------------------------------------------------------------
# towers and threads


class TowerSpec:
    """Finite prefix of a projective system of coordinate spaces.

    dims[i] is the dimension of level i; steps[i] holds dims[i]
    expressions in the slots x1..x_{dims[i+1]}, the connecting map from
    level i+1 down to level i.  Identity and composition laws hold by
    construction: composites are built on demand by substitution.
    """

    def __init__(self, dims, steps):
        self.dims = list(dims)
        self.steps = [tuple(sx.as_expr(e) for e in s) for s in steps]
        if len(self.steps) != max(len(self.dims) - 1, 0):
            raise ValueError("need exactly one step map per adjacent level pair")
        for i, s in enumerate(self.steps):
            if len(s) != self.dims[i]:
                raise ValueError("step %d has %d components, expected %d" % (i, len(s), self.dims[i]))
            for e in s:
                for v in e.free_vars():
                    if not isinstance(v, BaseVar) or v.i > self.dims[i + 1]:
                        raise ValueError("step %d uses a variable outside level %d" % (i, i + 1))

    @property
    def length(self):
        return len(self.dims)

    def connect(self, i, j):
        """Connecting map from level j down to level i <= j, as exprs in
        the level-j slots; the identity when i == j."""
        if not 0 <= i <= j < self.length:
            raise ValueError("levels out of range")
        exprs = tuple(sx.base(t + 1) for t in range(self.dims[j]))
        for level in range(j - 1, i - 1, -1):
            bindings = {BaseVar(t + 1): exprs[t] for t in range(len(exprs))}
            exprs = tuple(sx.substitute(e, bindings) for e in self.steps[level])
        return exprs


class ThreadError(ValueError):
    pass


class Thread:
    """A compatible finite point sequence of a tower."""

    def __init__(self, tower, points):
        self.tower = tower
        self.points = []
        for p in points:
            self._append(tuple(p))

    def _append(self, p):
        i = len(self.points)
        if i >= self.tower.length:
            raise ThreadError("tower has no level %d" % i)
        if len(p) != self.tower.dims[i]:
            raise ThreadError("point has wrong dimension for level %d" % i)
        p = tuple(Fraction(v) for v in p)
        if i > 0:
            at = {BaseVar(t + 1): v for t, v in enumerate(p)}
            down = tuple(sx.evaluate_many(self.tower.steps[i - 1], at))
            prev = self.points[i - 1]
            if down != prev:
                raise ThreadError(
                    "incompatible extension at level %d: projected %s, stored %s"
                    % (i, down, prev)
                )
        self.points.append(p)

    @property
    def length(self):
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]


class TangentThread:
    """Tangent vectors along a thread, compatible under each step's
    differential: vectors[i - 1] = d(steps[i - 1])_thread[i] vectors[i]."""

    def __init__(self, thread, vectors):
        self.thread = thread
        self.vectors = [tuple(Fraction(x) for x in v) for v in vectors]
        tower = thread.tower
        if len(self.vectors) > thread.length:
            raise ThreadError("more tangent vectors than thread points")
        for i, v in enumerate(self.vectors):
            if len(v) != tower.dims[i]:
                raise ThreadError("tangent vector has wrong dimension for level %d" % i)
        for i in range(1, len(self.vectors)):
            at = {BaseVar(t + 1): x for t, x in enumerate(thread[i])}
            grads = (sx.evaluate_many(sx.partials(e, at).values(), at) for e in tower.steps[i - 1])
            got = tuple(sum(d * x for d, x in zip(g, self.vectors[i])) for g in grads)
            if got != self.vectors[i - 1]:
                raise ThreadError(
                    "tangent vectors incompatible at level %d: %s vs %s"
                    % (i, got, self.vectors[i - 1])
                )


# ---------------------------------------------------------------------------
# the jet tower


class JetTower:
    """The tower of jet spaces of a trivial bundle, with slot metadata.

    Level i carries the order-i jet chart; its coordinates, in slot
    order, are the base variables followed by the jet variables in
    graded-lex order.  Connecting maps are coordinate projections, which
    works because lower charts are prefixes of higher ones.
    """

    def __init__(self, m, n, levels):
        self.m = m
        self.n = n
        self.charts = [jc.JetChartSpec(m, n, i) for i in range(levels)]
        dims = [c.dim for c in self.charts]
        steps = []
        for i in range(levels - 1):
            steps.append(tuple(sx.base(t + 1) for t in range(dims[i])))
        self.tower = TowerSpec(dims, steps)

    def slots(self, level):
        """Chart atoms of the level in slot order."""
        return self.charts[level].atoms

    def to_tower_expr(self, e, level):
        """Rewrite a jet-chart expression in the anonymous slot variables."""
        bindings = {}
        for pos, atom in enumerate(self.slots(level), start=1):
            bindings[atom] = sx.base(pos)
        return sx.substitute(sx.as_expr(e), bindings)

    def point_to_tuple(self, jp):
        return jp.base + jp.values

    def thread_of_section(self, psi, p, levels):
        pts = [self.point_to_tuple(jc.jet_of_section(psi, p, i)) for i in range(levels)]
        return Thread(self.tower, pts)


def borel_realize(m, n, data, p0, order):
    """The polynomial section whose derivatives at p0 match the data.

    data maps (alpha, I) to the derivative value u^alpha_I; the
    component polynomials are sums of data/I! * (x - p0)^I, witnessing
    surjectivity of the finite-order truncations of the jet projections.
    A key with alpha outside 1..n or an I without m entries is refused.
    """
    table = {}
    for (alpha, I), v in data.items():
        if not 1 <= alpha <= n:
            raise ValueError("component alpha = %d is outside 1..%d" % (alpha, n))
        if len(I) != m:
            raise ValueError("index %s has %d entries, need %d" % (tuple(I), len(I), m))
        table[(alpha, MultiIndex(I))] = Fraction(v)
    comps = []
    for alpha in range(1, n + 1):
        e = sx.ZERO
        for (a, I), v in sorted(table.items(), key=lambda kv: (kv[0][0], kv[0][1].graded_lex_key())):
            if a != alpha or I.degree > order:
                continue
            mono = Expr.const(v / factorial(I))
            for i, exp in enumerate(I, start=1):
                mono = mono * (sx.base(i) - Fraction(p0[i - 1])) ** exp
            e = e + mono
        comps.append(e)
    return jc.SectionPoly(m, comps)


# ---------------------------------------------------------------------------
# local functions, vector fields, forms


@dataclass(frozen=True)
class LocalFunction:
    """An expression on a finite tower level."""

    level: int
    expr: Expr

    def __post_init__(self):
        object.__setattr__(self, "expr", sx.as_expr(self.expr))


def pullback_local_function(f, tower, j):
    """Represent a level-l local function at a level j >= l."""
    if j < f.level:
        raise ValueError("can only pull back to higher levels")
    if j == f.level:
        return f
    conn = tower.connect(f.level, j)
    bindings = {BaseVar(t + 1): conn[t] for t in range(len(conn))}
    return LocalFunction(j, sx.substitute(f.expr, bindings))


class LocalVectorField:
    """A vector field of finite type on a tower.

    type_of(i) = m_i >= i is the level where the level-i component map
    lives; components[i] is the list of dims[i] expressions on the
    level-m_i slots.  Only the levels actually requested need entries.
    """

    def __init__(self, tower, type_of, components):
        self.tower = tower
        self._type = type_of
        self.components = {i: tuple(sx.as_expr(e) for e in comps) for i, comps in components.items()}

    def type_of(self, i):
        t = self._type(i)
        if t < i:
            raise ValueError("vector field type must satisfy m_i >= i")
        return t

    def component_map(self, i):
        if i not in self.components:
            raise KeyError("no component map stored for level %d" % i)
        comps = self.components[i]
        if len(comps) != self.tower.dims[i]:
            raise ValueError("component map at level %d has wrong arity" % i)
        return comps

def vf_apply(V, f):
    """Directional derivative of a local function along a vector field.

    For f at level i the result is the local function at level m_i
    given by the sum over slots of V^t * (df/dx_t pulled back); locality
    is preserved by construction.
    """
    i = f.level
    mi = V.type_of(i)
    comps = V.component_map(i)
    out = sx.ZERO
    for t in range(V.tower.dims[i]):
        d = differentiate(f.expr, BaseVar(t + 1))
        if d.is_zero():
            continue
        d_up = pullback_local_function(LocalFunction(i, d), V.tower, mi).expr
        out = out + comps[t] * d_up
    return LocalFunction(mi, out)


def lie_bracket(V, W, i):
    """Components of [V, W] at level i, realized at the composed level.

    Component t is V(W^t) - W(V^t) with both terms pulled back to the
    larger of the two realization levels; the action identity
    [V,W]f = V(Wf) - W(Vf) is property-tested rather than assumed.
    """
    tower = V.tower
    miW = W.type_of(i)
    miV = V.type_of(i)
    lvl_vw = V.type_of(miW)
    lvl_wv = W.type_of(miV)
    target = max(lvl_vw, lvl_wv)
    comps = []
    for t in range(tower.dims[i]):
        a = vf_apply(V, LocalFunction(miW, W.component_map(i)[t]))
        b = vf_apply(W, LocalFunction(miV, V.component_map(i)[t]))
        ea = pullback_local_function(a, tower, target).expr
        eb = pullback_local_function(b, tower, target).expr
        comps.append(ea - eb)
    return LocalVectorField(tower, lambda _: target, {i: comps})


class LocalForm:
    """An alternating form at a finite tower level.

    The table maps strictly increasing 1-based slot tuples to
    coefficient expressions; degree 0 stores the single key ().
    """

    def __init__(self, tower, level, degree, table):
        self.tower = tower
        self.level = level
        self.degree = degree
        norm = {}
        for key, e in table.items():
            key = tuple(key)
            if len(key) != degree or list(key) != sorted(set(key)):
                raise ValueError("form keys must be strictly increasing %d-tuples" % degree)
            if any(not 1 <= t <= tower.dims[level] for t in key):
                raise ValueError("form key outside level slots")
            e = sx.as_expr(e)
            if not e.is_zero():
                norm[key] = e
        self.table = norm

    def entry(self, key):
        return self.table.get(tuple(key), sx.ZERO)

    def is_zero(self):
        return not self.table

    def pulled_to(self, j):
        """Pullback along the connecting map to a higher level."""
        if j == self.level:
            return self
        if j < self.level:
            raise ValueError("can only pull back to higher levels")
        tower = self.tower
        conn = tower.connect(self.level, j)
        bindings = {BaseVar(t + 1): conn[t] for t in range(len(conn))}
        out = {}
        if self.degree == 0:
            return LocalForm(tower, j, 0, {(): sx.substitute(self.entry(()), bindings)})
        # differentials of the connecting map components
        dconn = [
            [differentiate(conn[t], BaseVar(s + 1)) for s in range(tower.dims[j])]
            for t in range(len(conn))
        ]
        for key, coeff in self.table.items():
            c_up = sx.substitute(coeff, bindings)
            for new_key in itertools.combinations(range(1, tower.dims[j] + 1), self.degree):
                det = sx.det([[dconn[t - 1][s - 1] for s in new_key] for t in key])
                if det.is_zero():
                    continue
                prev = out.get(new_key, sx.ZERO)
                out[new_key] = prev + c_up * det
        return LocalForm(tower, j, self.degree, out)


def d(form):
    """Exterior derivative at the form's level."""
    tower = form.tower
    out = {}
    for key, coeff in form.table.items():
        for t in range(1, tower.dims[form.level] + 1):
            dc = differentiate(coeff, BaseVar(t))
            if dc.is_zero() or t in key:
                continue
            pos = sum(1 for s in key if s < t)
            sign = -1 if pos % 2 else 1
            new_key = tuple(sorted(key + (t,)))
            prev = out.get(new_key, sx.ZERO)
            out[new_key] = prev + sign * dc
    return LocalForm(tower, form.level, form.degree + 1, out)


def wedge(a, b):
    """Wedge product after pulling both forms to the higher level."""
    level = max(a.level, b.level)
    a = a.pulled_to(level)
    b = b.pulled_to(level)
    out = {}
    for ka, ca in a.table.items():
        for kb, cb in b.table.items():
            if set(ka) & set(kb):
                continue
            merged = tuple(sorted(ka + kb))
            inversions = sum(1 for x in ka for y in kb if x > y)
            sign = -1 if inversions % 2 else 1
            prev = out.get(merged, sx.ZERO)
            out[merged] = prev + sign * ca * cb
    return LocalForm(a.tower, level, a.degree + b.degree, out)


def contract(V, form):
    """Interior product: slot t of V pairs with the leading form slot.

    When the field is realized above the form's level, the coefficient
    expressions are pulled up and the slot keys are reinterpreted along
    the inclusion of lower-level slots; this requires the connecting
    map to be a slot projection, as it is for jet towers.
    """
    i = form.level
    mi = V.type_of(i)
    comps = V.component_map(i)
    conn_bind = None
    if mi > i:
        conn = V.tower.connect(i, mi)
        for t, e in enumerate(conn):
            if e != sx.base(t + 1):
                raise ValueError(
                    "contraction above the form level needs projection steps")
        conn_bind = {BaseVar(t + 1): conn[t] for t in range(len(conn))}
    out = {}
    for key, coeff in form.table.items():
        c_up = sx.substitute(coeff, conn_bind) if conn_bind else coeff
        for pos, t in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            sign = -1 if pos % 2 else 1
            prev = out.get(rest, sx.ZERO)
            out[rest] = prev + sign * comps[t - 1] * c_up
    return LocalForm(V.tower, mi, form.degree - 1, out)


def total_derivative_field(jt, axis):
    """The total derivative along a base axis as a finite-type field.

    There is one block per level below the top one.  The level-i block
    reads the order-(i+1) chart: the slot of x_j gets the constant
    delta, the slot of u_I gets the coordinate u_{I + e}.  Brackets of
    these fields vanish, which is the coordinate statement of flatness
    of the Cartan distribution along jet prolongations.
    """
    if not 1 <= axis <= jt.m:
        raise ValueError("axis out of range")
    comps = {}
    for i in range(jt.tower.length - 1):
        exprs = []
        for atom in jt.slots(i):
            if isinstance(atom, BaseVar):
                exprs.append(sx.ONE if atom.i == axis else sx.ZERO)
            else:
                up = sx.jet(atom.alpha, atom.index.add_unit(axis))
                exprs.append(jt.to_tower_expr(up, i + 1))
        comps[i] = exprs
    return LocalVectorField(jt.tower, lambda i: i + 1, comps)


# ---------------------------------------------------------------------------
# equation subtowers


class EquationSubtower:
    """The subtower of the jet tower cut out by a scalar operator.

    Level k + l carries the membership predicate "all components of the
    l-fold prolongation vanish"; levels below the operator order carry
    no conditions.  Projection surjectivity between consecutive levels
    is witnessed at samples through the lift solver.
    """

    def __init__(self, h):
        if h.n_out != 1:
            raise ValueError("equation subtowers are built from scalar operators")
        self.h = h

    def membership(self, jp):
        return jc.on_variety(self.h, jp)

    def dimension(self, level):
        """Expected dimension of the level: jet dimension minus the
        number of defining equations."""
        chart = jc.JetChartSpec(self.h.m, self.h.n, level)
        l = level - self.h.order
        if l < 0:
            return chart.dim
        return chart.dim - comb(self.h.m + l, l)

    def check_projection_surjectivity(self, l, samples=5, seed=0):
        """Witness that points of the level-(k+l) variety lift one more
        level at sampled points; refuses samples < 1 and l < 0."""
        if samples < 1:
            raise ValueError("samples must be at least 1, got %d" % samples)
        pts = ig.sample_prolonged_points(self.h, l, samples, seed)
        for p in pts:
            ig.lift_point(self.h, p, check=False)
        return len(pts)


# ---------------------------------------------------------------------------
# linear towers and the tensor splitting construction


class LinearTower:
    """A tower whose connecting maps are surjective exact matrices."""

    def __init__(self, dims, steps):
        self._set(dims, steps, lambda i, M: sp.Echelon(M, sp.RationalMatrix.identity(M.nrows)))

    def _set(self, dims, steps, eliminate):
        """Check the shapes and keep eliminate(i, steps[i]), the
        elimination of [steps[i] | identity], for `tower_splitting`: its
        kernel and its section; refuse a step it finds not surjective."""
        self.dims = list(dims)
        self.steps = list(steps)
        if not self.dims:
            raise ValueError("a tower needs at least one level")
        if len(self.steps) != len(self.dims) - 1:
            raise ValueError("need one step matrix per adjacent pair")
        self.echelons = []
        for i, Mstep in enumerate(self.steps):
            if Mstep.nrows != self.dims[i] or Mstep.ncols != self.dims[i + 1]:
                raise ValueError("step %d has shape %dx%d, expected %dx%d" % (
                    i, Mstep.nrows, Mstep.ncols, self.dims[i], self.dims[i + 1]))
            E = eliminate(i, Mstep)
            if E.rank != self.dims[i]:
                raise ValueError("step %d is not surjective" % i)
            self.echelons.append(E)

    @property
    def length(self):
        return len(self.dims)

    def connect(self, i, j):
        """Matrix of the connecting map from level j to level i <= j."""
        M = sp.RationalMatrix.identity(self.dims[j])
        for level in range(j - 1, i - 1, -1):
            M = self.steps[level].matmul(M)
        return M

def kron(A, B):
    """Kronecker product of exact matrices, row-major block layout: row
    (i, k) holds a * b at column j * B.ncols + l for the nonzero entries
    a = A[i, j] and b = B[k, l], over the denominator dens[i] * dens[k]."""
    w = B.ncols
    nums = []
    dens = []
    for ra, da in zip(A.nums, A.dens):
        for rb, db in zip(B.nums, B.dens):
            nums.append({j * w + l: a * b for j, a in ra.items() for l, b in rb.items()})
            dens.append(da * db)
    return sp.RationalMatrix.from_int_rows(nums, dens, range(A.ncols * w))


@dataclass
class TowerSplitting:
    """Kernel decomposition and section data of a linear tower.

    kernel_bases[i] spans ker of the step below level i (all of level 0
    at i = 0); sections[i] splits the step map into level i; lifts[i]
    is the assembled isomorphism-on-truncations from the direct sum of
    kernel pieces through level i into level i.
    """

    tower: LinearTower
    kernel_bases: list
    sections: list
    lifts: list

    def tilde_dim(self, i):
        return self.kernel_bases[i].ncols

    def verify(self):
        """Exact identities: projecting the level-k assembly down to
        level i recovers the level-i assembly on the shared columns and
        kills the later kernel blocks, connect(i, k) * lifts[k] =
        [lifts[i] | 0] for all i < k.

        Only the consecutive identities steps[k-1] * lifts[k] =
        [lifts[k-1] | 0] are checked, L - 1 products for L levels; they
        imply the rest by induction on k - i, since connect(i, k) =
        connect(i, k-1) * steps[k-1] gives
        connect(i, k) * lifts[k] = connect(i, k-1) * [lifts[k-1] | 0]
        = [connect(i, k-1) * lifts[k-1] | 0] = [lifts[i] | 0].

        Rows are unique in lowest terms, so [lifts[k-1] | 0] has the
        integer rows and denominators of lifts[k-1], and any nonzero in
        the extra columns makes the integer rows differ.
        """
        for k in range(1, self.tower.length):
            lhs = self.tower.steps[k - 1].matmul(self.lifts[k])
            want = self.lifts[k - 1]
            if lhs.nums != want.nums or lhs.dens != want.dens:
                return False
        return True


def tower_splitting(T):
    """Split a linear tower: kernels, sections, and truncation lifts.

    The lift at level j maps the direct sum of the kernel pieces
    through level j isomorphically onto level j: its blocks are the
    earlier lift pushed up by the section, next to the new kernel
    basis.  Dimensions telescope: dim level j = sum of kernel dims.
    """
    kernels = [sp.RationalMatrix.identity(T.dims[0])]
    sections = [None]
    lifts = [sp.RationalMatrix.identity(T.dims[0])]
    for i in range(1, T.length):
        E = T.echelons[i - 1]
        K = E.kernel_basis()
        kernels.append(K)
        # step * f = identity, with f zero on the step's free columns
        f = E.solution()
        sections.append(f)
        lifts.append(f.matmul(lifts[i - 1]).join(K))
    return TowerSplitting(tower=T, kernel_bases=kernels, sections=sections, lifts=lifts)


@dataclass
class TensorTowerResult:
    tensor: LinearTower
    left: TowerSplitting
    right: TowerSplitting
    diagonal: TowerSplitting
    identities_hold: bool
    dim_identity_holds: bool


def tensor_tower(V, W):
    """The levelwise tensor tower with its exact splitting certificate.

    Builds (V_i (x) W_i) with Kronecker steps, whose eliminations are
    the Kronecker products of the factors' (`spencer.Echelon.kron`; Horn
    & Johnson, Topics in Matrix Analysis, 1991, sec. 4.2), so no tensor
    step is eliminated.  Splits all three towers, verifies the lift
    identities against the explicit steps, and checks that the dimension
    of each tensor level equals the sum over kernel-piece products of
    the factors up to that level.
    """
    if V.length != W.length:
        raise ValueError("towers must have the same length")
    dims = [a * b for a, b in zip(V.dims, W.dims)]
    steps = [kron(a, b) for a, b in zip(V.steps, W.steps)]
    T = LinearTower.__new__(LinearTower)
    T._set(dims, steps, lambda i, M: sp.Echelon.kron(V.echelons[i], W.echelons[i]))
    sV = tower_splitting(V)
    sW = tower_splitting(W)
    sT = tower_splitting(T)
    ok = sV.verify() and sW.verify() and sT.verify()
    dim_ok = True
    for k in range(T.length):
        total = 0
        for i in range(k + 1):
            for j in range(k + 1):
                total += sV.tilde_dim(i) * sW.tilde_dim(j)
        if total != dims[k]:
            dim_ok = False
    return TensorTowerResult(
        tensor=T, left=sV, right=sW, diagonal=sT,
        identities_hold=ok, dim_identity_holds=dim_ok,
    )
