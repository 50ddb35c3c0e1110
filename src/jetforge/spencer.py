"""Exact rational linear algebra, symbolic systems, and Spencer cohomology.

The linear algebra is one Gauss-Jordan pass over `fractions.Fraction`
per matrix, with deterministic pivoting (first usable column, first
usable row), so kernel bases and golden outputs are reproducible.  The
pass touches only the nonzero entries of each pivot row, and products
only the nonzero pairs of factors.  It records its row operations: rank,
kernel basis and solutions are all read from that one `Echelon`, and a
solve reduces a right-hand side by replaying the recorded operations on
it.  On top of it sit the symbolic system g(h; a) of an operator at a
jet point, its level-by-level prolongations (each level built from the
reduced rows of the level below, so rows never outgrow m times the rank
below), the delta-complex on wedge-times-symmetric coordinates, and
exact cohomology dimensions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .mindex import GradedIndexRange, enumerate_indices, dim_F, multinomial
from . import symexpr as sx
from . import jetcalc as jc


class SymbolZeroError(ValueError):
    """The operator symbol vanishes identically at the given point."""


# ---------------------------------------------------------------------------
# rational matrices


class RationalMatrix:
    """Dense exact matrix with optional row/column labels."""

    __slots__ = ("rows", "row_labels", "col_labels")

    def __init__(self, rows, row_labels=None, col_labels=None):
        self.rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in r)
                          for r in rows)
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        if widths:
            nc = widths.pop()
        elif col_labels is not None:
            nc = len(col_labels)
        else:
            nc = 0
        if row_labels is None:
            row_labels = tuple(range(len(self.rows)))
        if col_labels is None:
            col_labels = tuple(range(nc))
        if len(row_labels) != len(self.rows) or len(col_labels) != nc:
            raise ValueError("label count mismatch")
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.col_labels)

    @classmethod
    def zero(cls, nr, nc):
        return cls([[0] * nc for _ in range(nr)], col_labels=range(nc))

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols, nrows, row_labels=None, col_labels=None):
        rows = [[c[i] for c in cols] for i in range(nrows)]
        return cls(rows, row_labels=row_labels, col_labels=col_labels)

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError(
                "shape mismatch %dx%d * %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        nonzero = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
        zero = Fraction(0)
        rows = []
        for r in self.rows:
            out = [zero] * other.ncols
            for a, bs in zip(r, nonzero):
                if a:
                    for j, b in bs:
                        out[j] += a * b
            rows.append(out)
        return RationalMatrix(rows, row_labels=self.row_labels, col_labels=other.col_labels)

    def column(self, j):
        return [r[j] for r in self.rows]

    def is_zero(self):
        return all(x == 0 for r in self.rows for x in r)

    def rank(self):
        return Echelon(self).rank

    def kernel_basis(self):
        return Echelon(self).kernel_basis()

    def solve(self, rhs, free_values=None):
        return Echelon(self).solve(rhs, free_values)

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __repr__(self):
        return "RationalMatrix(%dx%d)" % (self.nrows, self.ncols)


class Echelon:
    """Reduced row echelon form of a matrix and the row operations that
    produced it.

    One Gauss-Jordan pass: for each column in order, the first row at
    or below the current rank with a nonzero entry is swapped up,
    scaled to a unit pivot, and subtracted from every other row that
    has a nonzero entry in that column.  Entries of the pivot row before
    its pivot are zero, so scaling and subtracting run over its nonzero
    columns only.  Each step is recorded as (swap row, pivot value,
    [(row, multiplier)]), so a right-hand side is reduced by replaying
    the steps on it alone.
    Build one per matrix and read rank, kernel and solutions from it.
    """

    __slots__ = ("nrows", "col_labels", "rows", "pivots", "free", "rank", "ops")

    def __init__(self, M):
        rows = [list(r) for r in M.rows]
        pivots = []
        ops = []
        r = 0
        for c in range(M.ncols):
            if r == len(rows):
                break
            pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            prow = rows[r]
            pv = prow[c]
            nz = [j for j in range(c, M.ncols) if prow[j]]
            if pv != 1:
                for j in nz:
                    prow[j] /= pv
            sub = []
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != r:
                    for j in nz:
                        row[j] -= f * prow[j]
                    sub.append((i, f))
            pivots.append(c)
            ops.append((pr, pv, sub))
            r += 1
        self.nrows = M.nrows
        self.col_labels = M.col_labels
        # rows below the rank are zero
        self.rows = rows[:r]
        self.pivots = pivots
        self.free = sorted(set(range(M.ncols)) - set(pivots))
        self.rank = r
        self.ops = ops

    def kernel_basis(self):
        """Columns form a deterministic basis of the null space.

        One basis vector per free column, in column order: the free
        coordinate is 1, pivot coordinates complete the solution.
        """
        ncols = len(self.col_labels)
        cols = []
        for f in self.free:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for r, pc in enumerate(self.pivots):
                v[pc] = -self.rows[r][f]
            cols.append(v)
        return RationalMatrix.from_columns(
            cols, ncols,
            row_labels=self.col_labels,
            col_labels=tuple(self.col_labels[f] for f in self.free),
        )

    def solve(self, rhs, free_values=None):
        """One exact solution x of M * x = rhs.

        Free (non-pivot) coordinates are zero unless `free_values` maps
        their column label to a value.  Returns (solution, free column
        positions); raises ValueError on inconsistency, on a label that
        is not a column label, and on a label of a pivot column.
        """
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side has %d entries for %d rows" % (len(rhs), self.nrows))
        b = [Fraction(v) for v in rhs]
        for r, (pr, pv, sub) in enumerate(self.ops):
            b[r], b[pr] = b[pr], b[r]
            b[r] /= pv
            for i, f in sub:
                b[i] -= f * b[r]
        if any(b[self.rank:]):
            raise ValueError("inconsistent linear system")
        free = self.free
        x = [Fraction(0)] * len(self.col_labels)
        if free_values:
            pos_of = {lab: i for i, lab in enumerate(self.col_labels)}
            for key, val in free_values.items():
                if key not in pos_of:
                    raise ValueError("no column labelled %r" % (key,))
                pos = pos_of[key]
                if pos not in free:
                    raise ValueError("column %r is not free" % (key,))
                x[pos] = Fraction(val)
        for r, pc in enumerate(self.pivots):
            x[pc] = b[r] - sum(self.rows[r][f] * x[f] for f in free if x[f] != 0)
        return x, list(free)


# ---------------------------------------------------------------------------
# bases for wedge and symmetric factors


def wedge_basis(m, p):
    """Strictly increasing p-tuples from 1..m, lexicographic order."""
    if p < 0 or p > m:
        return []
    return [tuple(c) for c in itertools.combinations(range(1, m + 1), p)]


def sym_basis(m, q):
    """Monomial basis xi^J of Sym^q, graded-lex order."""
    if q < 0:
        return []
    return enumerate_indices(GradedIndexRange(m, q, q))


def sym_component_labels(m, q, n):
    """(J, alpha) labels for Sym^q tensor R^n, J outer."""
    return [(J, alpha) for J in sym_basis(m, q) for alpha in range(1, n + 1)]


def wedge_sign(i, S):
    """Sign of e_i wedge e_S against the sorted basis; None when i in S."""
    if i in S:
        return None
    return -1 if sum(1 for s in S if s < i) % 2 else 1


def _delta_columns(m, p, q, n, basis):
    """delta(e_S (x) b) for each S in wedge(p), then each b in `basis`.

    Each b is a sparse column on Sym^q tensor R^n coordinates, a list of
    (coordinate position, coefficient) pairs; the images are dense
    columns on wedge(p+1) tensor Sym^(q-1) tensor R^n, whose labels are
    returned with them.
    """
    src = sym_component_labels(m, q, n)
    row_lbl = [(S, J, a) for S in wedge_basis(m, p + 1) for (J, a) in sym_component_labels(m, q - 1, n)]
    pos = {lab: i for i, lab in enumerate(row_lbl)}
    cols = []
    for S in wedge_basis(m, p):
        for b in basis:
            v = [Fraction(0)] * len(row_lbl)
            for rj, c in b:
                J, a = src[rj]
                for i in range(1, m + 1):
                    if J[i - 1] == 0:
                        continue
                    sign = wedge_sign(i, S)
                    if sign is None:
                        continue
                    Snew = tuple(sorted(S + (i,)))
                    v[pos[(Snew, J.sub_unit(i), a)]] += sign * J[i - 1] * c
            cols.append(v)
    return cols, row_lbl


def spencer_delta(p, q, m, n=1):
    """The delta map on wedge(p) tensor Sym^q tensor R^n coordinates.

    delta(e_S (x) xi^J (x) w_alpha) = sum over i not in S with J_i > 0 of
    sign(i, S) * J_i * e_{S+i} (x) xi^{J - 1_i} (x) w_alpha.
    """
    src = sym_component_labels(m, q, n)
    cols, row_lbl = _delta_columns(m, p, q, n, [[(j, 1)] for j in range(len(src))])
    col_lbl = [(S, J, a) for S in wedge_basis(m, p) for (J, a) in src]
    return RationalMatrix.from_columns(cols, len(row_lbl), row_labels=row_lbl, col_labels=col_lbl)


# ---------------------------------------------------------------------------
# symbolic systems


class SymbolicSystem:
    """The symbol kernel g(h; a) and its prolongations, all exact.

    Level q >= k stores a constraint matrix A_q on Sym^q tensor R^n
    coordinates, its `Echelon` and the kernel basis B_q, with
    ker A_q = col B_q.  A_k is the operator's own matrix; each later A_q
    is the derivatives of the reduced rows of level q - 1.  Levels below
    the operator order are the full symmetric powers, matching the
    single-equation scalar reading; level q < 0 is zero.
    """

    def __init__(self, m, n, k, point, constraints):
        self.m = m
        self.n = n
        self.k = k
        self.point = point
        self._levels = {}
        self._add_level(k, constraints)

    def _add_level(self, q, A):
        E = Echelon(A)
        self._levels[q] = (A, E, E.kernel_basis())

    def full_dim(self, q):
        if q < 0:
            return 0
        return dim_F(GradedIndexRange(self.m, q, q)) * self.n

    def dim_g(self, q):
        if q < 0:
            return 0
        if q < self.k:
            return self.full_dim(q)
        self.prolong_to(q)
        return self._levels[q][2].ncols

    def basis(self, q):
        """Basis matrix of g_q (columns), identity below the order."""
        if q < 0:
            return RationalMatrix([])
        if q < self.k:
            labels = sym_component_labels(self.m, q, self.n)
            B = RationalMatrix.identity(self.full_dim(q))
            return RationalMatrix(B.rows, row_labels=labels, col_labels=labels)
        self.prolong_to(q)
        return self._levels[q][2]

    def constraints_at(self, q):
        if q < self.k:
            labels = sym_component_labels(self.m, q, self.n)
            return RationalMatrix([], row_labels=(), col_labels=labels)
        self.prolong_to(q)
        return self._levels[q][0]

    def prolong_to(self, q):
        """Compute levels up to q: g_{q} = {T : d_i T in g_{q-1} for all i}.

        The rows of A_q are d/dxi_i applied to each reduced row r of
        level q - 1, for i = 1..m: the entry at (J, a) is
        J_i * r[(J - 1_i, a)].  They span the same space as the rows of
        A_{q-1} times each d/dxi_i, so the reduced form and B_q are the
        same, and there are at most m * rank(A_{q-1}) of them.
        """
        for level in range(self.k + 1, q + 1):
            if level in self._levels:
                continue
            prev = self._levels[level - 1][1]
            labels = sym_component_labels(self.m, level, self.n)
            below = sym_component_labels(self.m, level - 1, self.n)
            pos = {lab: s for s, lab in enumerate(below)}
            # target[i - 1][s]: the column (J, a) and factor J_i that
            # d/dxi_i sends the source column s = (J - 1_i, a) to
            target = [[None] * len(pos) for _ in range(self.m)]
            for j, (J, a) in enumerate(labels):
                for i in range(1, self.m + 1):
                    if J[i - 1]:
                        target[i - 1][pos[(J.sub_unit(i), a)]] = (j, J[i - 1])
            zero = Fraction(0)
            rows = []
            for tgt in target:
                for r in prev.rows:
                    row = [zero] * len(labels)
                    for s, x in enumerate(r):
                        if x:
                            j, f = tgt[s]
                            row[j] = f * x
                    rows.append(row)
            self._add_level(level, RationalMatrix(rows, col_labels=labels))


def symbol_constraint_matrix(h, a):
    """Rows: the symbol functionals of each component at the jet point a.

    Entry at (beta, (J, alpha)) is the partial of h_beta by u^alpha_J
    evaluated at a, divided by multinomial(J); with this normalization a
    decomposable power v^{(x)k} pairs to the symbol polynomial at v.
    """
    assignment = a.assignment()
    labels = sym_component_labels(h.m, h.order, h.n)
    table = jc.symbol_table(h)
    rows = []
    for beta in range(1, h.n_out + 1):
        row = []
        for (J, alpha) in labels:
            val = sx.evaluate(table.get((alpha, beta, J), sx.ZERO), assignment, exact=True)
            row.append(Fraction(val, 1) / multinomial(J))
        rows.append(row)
    return RationalMatrix(rows, row_labels=tuple(range(1, h.n_out + 1)), col_labels=labels)


def symbolic_system_at(h, a, allow_zero=False):
    """The symbolic system of h at the jet point a (exact data only)."""
    A = symbol_constraint_matrix(h, a)
    if A.is_zero() and not allow_zero:
        raise SymbolZeroError("operator symbol vanishes identically at the point")
    return SymbolicSystem(h.m, h.n, h.order, a, A)


def full_system(m, n, k):
    """The trivial system g = everything at order k (no constraints)."""
    labels = sym_component_labels(m, k, n)
    A = RationalMatrix([], row_labels=(), col_labels=labels)
    return SymbolicSystem(m, n, k, None, A)


def prolong_system(g, l):
    """Ensure levels through k + l exist; returns the same system."""
    g.prolong_to(g.k + l)
    return g


# ---------------------------------------------------------------------------
# cohomology


def restricted_delta(g, p, q):
    """Delta on wedge(p) tensor g_q, columns written in the ambient
    wedge(p+1) tensor Sym^(q-1) coordinates."""
    if not 0 <= p < g.m or q <= 0:
        # no source or no target: the empty matrix
        return RationalMatrix([])
    B = g.basis(q)
    if B.ncols == 0:
        return RationalMatrix([])
    basis = [[(rj, r[bj]) for rj, r in enumerate(B.rows) if r[bj]] for bj in range(B.ncols)]
    cols, row_lbl = _delta_columns(g.m, p, q, g.n, basis)
    col_lbl = [(S, lab) for S in wedge_basis(g.m, p) for lab in B.col_labels]
    return RationalMatrix.from_columns(cols, len(row_lbl), row_labels=row_lbl, col_labels=col_lbl)


class CohomologyTable:
    """Exact Spencer cohomology dimensions of a symbolic system."""

    def __init__(self, g, pmax, qmax):
        self.g = g
        self.pmax = pmax
        self.qmax = qmax
        self._rank_cache = {}
        self.dims = {}
        for p in range(0, pmax + 1):
            for q in range(0, qmax + 1):
                self.dims[(p, q)] = self._dim_H(p, q)

    def _rank(self, p, q):
        """Rank of delta restricted to wedge(p) tensor g_q."""
        key = (p, q)
        if key not in self._rank_cache:
            m = self.g.m
            if p < 0 or p > m or q <= 0 or self.g.dim_g(q) == 0:
                self._rank_cache[key] = 0
            else:
                self._rank_cache[key] = restricted_delta(self.g, p, q).rank()
        return self._rank_cache[key]

    def _dim_H(self, p, q):
        m = self.g.m
        if p < 0 or p > m:
            return 0
        from math import comb

        dim_domain = comb(m, p) * self.g.dim_g(q)
        return dim_domain - self._rank(p, q) - self._rank(p - 1, q + 1)


def cohomology_dims(g, pmax, qmax):
    """Table {(p, q): dim H^{p,q}(g)} computed by exact rank-nullity."""
    return CohomologyTable(g, pmax, qmax).dims


# ---------------------------------------------------------------------------
# symbolic generic rank over expression entries


def clear_row_denominators(row):
    """Scale a row of expressions by the product of its distinct quotient
    payloads raised to their row-maximal exponents, returning
    reciprocal-free entries.  Row scaling by a nonzero rational function
    preserves generic rank."""
    entries = [sx.as_expr(e) for e in row]
    entry_payloads = [sx.quotient_payloads(e) for e in entries]
    rowmax = {}
    for pm in entry_payloads:
        for k, (payload, exp) in pm.items():
            if k not in rowmax or exp > rowmax[k][1]:
                rowmax[k] = (payload, exp)
    out = []
    for e, pm in zip(entries, entry_payloads):
        p, _ = sx.clear_denominators(e)
        for k in sorted(rowmax):
            payload, top = rowmax[k]
            deficit = top - (pm[k][1] if k in pm else 0)
            if deficit:
                p = p * payload**deficit
        out.append(p)
    return out


def generic_rank_exprs(rows):
    """Generic (symbolic) rank of a matrix of expressions.

    Entries are cleared of quotients per row, then eliminated
    division-free with structural zero tests.  For polynomial entries
    the result is the exact rank over the rational function field; with
    opaque primitives present it is an upper bound certified only by
    sample agreement (the caller reports which).
    """
    work = [clear_row_denominators(list(r)) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        if rank == len(work):
            break
        pr = next(
            (i for i in range(rank, len(work)) if not work[i][col].is_zero()), None
        )
        if pr is None:
            continue
        work[rank], work[pr] = work[pr], work[rank]
        pivot = work[rank][col]
        for i in range(rank + 1, len(work)):
            entry = work[i][col]
            if entry.is_zero():
                continue
            work[i] = [pivot * a - entry * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank
