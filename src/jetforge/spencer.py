"""Exact rational linear algebra, symbolic systems, and Spencer cohomology.

Matrices are sparse integer rows with one positive denominator per row
(see `RationalMatrix`).  The linear algebra is one fraction-free
elimination over those integer rows per matrix (`Echelon`): a column
index of the rows holding each column lets each pivot step touch only
those rows, the pivot row is the shortest of them, and the rows are
brought to reduced form only when they are read, so a rank costs the
forward pass alone.  The reduced row echelon form is unique, so which
row serves as pivot row is invisible: ranks, kernel bases and golden
outputs are those of any exact elimination.  The pass touches only the
nonzero entries of rows, and products only the nonzero pairs of factors.
A solve is the same pass over the augmented matrix [M | rhs], pivoting
in M's columns only: rank, kernel basis, consistency and solutions are
all read from that one `Echelon`.  The elimination of [A (x) B | I]
needs none: for A and B of full row rank it is the Kronecker product of
those of [A | I] and [B | I] (`Echelon.kron`; Horn & Johnson, Topics in
Matrix Analysis, 1991, sec. 4.2).  On top of it sit the symbolic system
g(h; a) of an operator at a jet point, its prolongations (each level
built from the operator's own rows by shifting their indices, one row
per row of A_k and |I| = q - k), the delta-complex on
wedge-times-symmetric coordinates, built as sparse integer rows, and
exact cohomology dimensions.  The delta rows read one index table of
d/dxi_i per (m, q, n).  A cohomology table needs
each rank of delta on wedge(p) tensor g_q once: it is dim g_q for p = 0
and 0 for p >= m, and otherwise the rank of the rows of delta at the
free coordinates of g_(q-1) alone, which hold its whole image.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, gcd, lcm, perm, prod

from .mindex import enumerate_indices, multinomial
from . import symexpr as sx
from . import jetcalc as jc


class SymbolZeroError(ValueError):
    """The operator symbol vanishes identically at the given point."""


# ---------------------------------------------------------------------------
# rational matrices


class RationalMatrix:
    """Exact matrix with optional row/column labels.

    The one storage is sparse integer rows: `nums[i]` maps the column
    position of each nonzero entry of row i to an int, and `dens[i]` is
    the row's positive denominator, so entry (i, j) is
    nums[i].get(j, 0) / dens[i].  Each row is kept in lowest terms (the
    denominator is the lcm of the entries' denominators), which makes the
    pair unique: two matrices of the same shape are equal exactly when
    their integer rows and denominators are.  `rows` is a read-only view
    of the entries as tuples of `Fraction`, built anew on each read;
    nothing in the arithmetic below reads it.
    """

    __slots__ = ("nums", "dens", "row_labels", "col_labels")

    def __init__(self, rows, row_labels=None, col_labels=None):
        nums = []
        dens = []
        nc = None
        for r in rows:
            r = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in r]
            if nc is None:
                nc = len(r)
            elif len(r) != nc:
                raise ValueError("ragged rows")
            nz = [(j, x) for j, x in enumerate(r) if x]
            den = lcm(*[x.denominator for _, x in nz])
            nums.append({j: x.numerator * (den // x.denominator) for j, x in nz})
            dens.append(den)
        if nc is None:
            nc = len(col_labels) if col_labels is not None else 0
        self._set(nums, dens, nc, row_labels, col_labels)

    def _set(self, nums, dens, nc, row_labels, col_labels):
        if row_labels is None:
            row_labels = range(len(dens))
        if col_labels is None:
            col_labels = range(nc)
        if len(row_labels) != len(dens) or len(col_labels) != nc:
            raise ValueError("label count mismatch")
        self.nums = tuple(nums)
        self.dens = tuple(dens)
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)

    @classmethod
    def from_int_rows(cls, nums, dens, col_labels, row_labels=None):
        """The matrix whose row i is nums[i] / dens[i].

        Each nums[i] maps column positions to ints (zeros allowed) and
        dens[i] is a nonzero int; rows are brought to lowest terms with
        a positive denominator.
        """
        out_nums = []
        out_dens = []
        for num, den in zip(nums, dens):
            num = {j: v for j, v in num.items() if v}
            g = gcd(den, *num.values())
            if den < 0:
                g = -g
            if g != 1:
                num = {j: v // g for j, v in num.items()}
                den //= g
            out_nums.append(num)
            out_dens.append(den)
        M = cls.__new__(cls)
        M._set(out_nums, out_dens, len(col_labels), row_labels, col_labels)
        return M

    @property
    def rows(self):
        """The entries as a tuple of `Fraction` tuples (read-only)."""
        zero = Fraction(0)
        view = []
        for num, den in zip(self.nums, self.dens):
            r = [zero] * self.ncols
            for j, v in num.items():
                r[j] = Fraction(v, den)
            view.append(tuple(r))
        return tuple(view)

    @property
    def nrows(self):
        return len(self.dens)

    @property
    def ncols(self):
        return len(self.col_labels)

    @classmethod
    def identity(cls, n):
        return cls.from_int_rows([{i: 1} for i in range(n)], [1] * n, range(n))

    def join(self, other):
        """[self | other], columns numbered from 0: row i is the two rows
        over the lcm L of their denominators.  That is lowest terms
        already: if p^e exactly divides L, it exactly divides one row's
        denominator d, that row's scale L/d is prime to p, and its
        numerators are not all multiples of p."""
        if self.nrows != other.nrows:
            raise ValueError("cannot join %d rows to %d" % (other.nrows, self.nrows))
        w = self.ncols
        nums = []
        dens = []
        for an, ad, bn, bd in zip(self.nums, self.dens, other.nums, other.dens):
            den = lcm(ad, bd)
            sa, sb = den // ad, den // bd
            row = {j: v * sa for j, v in an.items()}
            for j, v in bn.items():
                row[w + j] = v * sb
            nums.append(row)
            dens.append(den)
        M = RationalMatrix.__new__(RationalMatrix)
        M._set(nums, dens, w + other.ncols, self.row_labels, None)
        return M

    def matmul(self, other):
        """The product, one denominator per output row: row i of the
        product is nums[i] times the rows of `other`, each brought to
        the lcm of the denominators it meets, over dens[i] times that
        lcm."""
        if self.ncols != other.nrows:
            raise ValueError(
                "shape mismatch %dx%d * %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        bnums, bdens = other.nums, other.dens
        nums = []
        dens = []
        for row, den in zip(self.nums, self.dens):
            common = lcm(*[bdens[t] for t in row])
            out = {}
            for t, a in row.items():
                a *= common // bdens[t]
                for j, b in bnums[t].items():
                    out[j] = out.get(j, 0) + a * b
            nums.append(out)
            dens.append(den * common)
        return RationalMatrix.from_int_rows(nums, dens, other.col_labels, row_labels=self.row_labels)

    def is_zero(self):
        return not any(self.nums)

    def rank(self):
        return Echelon(self).rank

    def kernel_basis(self):
        return Echelon(self).kernel_basis()

    def solve(self, rhs, free_values=None):
        """`Echelon.solve` for the one column rhs, eliminated with M as
        [M | rhs], at y = (1,), with x as a list of `Fraction`s."""
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side has %d entries for %d rows" % (len(rhs), self.nrows))
        E = Echelon(self, RationalMatrix([[v] for v in rhs], col_labels=range(1)))
        (x, den), free = E.solve(((1,), 1), free_values)
        return [Fraction(v, den) for v in x], free

    def __eq__(self, other):
        # rows equal as Fraction tuples; a matrix without rows has no
        # entries to compare, whatever its width
        return (isinstance(other, RationalMatrix) and self.dens == other.dens
                and self.nums == other.nums and (not self.dens or self.ncols == other.ncols))

    def __repr__(self):
        return "RationalMatrix(%dx%d)" % (self.nrows, self.ncols)


def _eliminate(row, c, pivot, i=None, holders=None):
    """`row` with its entry f in column c cleared by the row `pivot`,
    whose entry there is pv: (a*row - f'*pivot) / content, with
    a/f' = pv/f in lowest terms and the content the gcd of the result.
    With `holders`, the column index of `Echelon` is kept for row id i
    where an entry fills in or cancels."""
    pv = pivot[c]
    g = gcd(pv, row[c])
    a = pv // g
    f = row[c] // g
    if a != 1:
        row = {j: a * v for j, v in row.items()}
    for j, v in pivot.items():
        w = row.get(j)
        if w is None:
            row[j] = -f * v
            if holders is not None:
                holders[j].add(i)
        else:
            w -= f * v
            if w:
                row[j] = w
            else:
                del row[j]
                if holders is not None:
                    holders[j].discard(i)
    content = gcd(*row.values()) or 1
    if content != 1:
        row = {j: v // content for j, v in row.items()}
    return row


class Echelon:
    """Reduced row echelon form of a matrix M, or of [M | rhs], in
    integers.

    One fraction-free pass over the integer rows (each row times its
    denominator; a right-hand side `rhs`, a `RationalMatrix` with M's
    rows, is joined on first).  A column index holds, for each column,
    the ids of the rows with an entry there; it changes only where an
    entry fills in or cancels.  For each column c of M in order, the
    pivot row P is the holder of c not yet a pivot row with the fewest
    stored entries (ties to the lowest row id), with pivot value pv, and
    every other such holder R with entry f becomes (a*R - f'*P) / content,
    where a = pv/g and f' = f/g for g = gcd(pv, f), and the content is
    the gcd of the result, so every row it changes stays integer and
    primitive.  Only the holders of c are touched, and only their nonzero
    entries; a pivot row is not changed again in this pass.  The
    right-hand side rides along: the system is consistent when no row
    that is never a pivot row keeps an entry.  Those rows are zero on
    M's columns, so with the identity as right-hand side they are the
    left null space of M, and one elimination of [M | I] decides and
    solves M * x = b for every b (`consistent_with`, `solve`).

    The constructor eliminates only in rows that are not yet pivot rows,
    which settles `rank`, `pivots`, `free` and `consistent`.  `rows` is
    the reduced pivot rows, in pivot order, each an integer row over its
    pivot value `rows[r][pivots[r]]`; the first read clears the entries
    of each pivot row in the pivot columns after its own, last pivot
    first, by the same update.  Dividing each row by its pivot value
    gives the reduced row echelon form, which is unique: whichever row
    is chosen as pivot row, the rank, the pivots, every kernel basis and
    every solution equal those of any exact elimination, and the pivots
    and reduced rows on M's columns are those of M alone.
    """

    __slots__ = ("col_labels", "rhs_labels", "pivots", "free", "rank", "consistent",
                 "_rows", "_above", "_rest")

    def __init__(self, M, rhs=None):
        # the rows are changed in place: copies of M's, or the fresh join
        rows = [dict(r) for r in M.nums] if rhs is None else list(M.join(rhs).nums)
        ncols = M.ncols
        # holders[j]: ids of the rows with an entry in column j of
        # [M | rhs].  A pivot row is never changed again and stays in
        # the index; entries fill in and cancel only in the other rows.
        holders = {}
        for i, row in enumerate(rows):
            for j in row:
                if j in holders:
                    holders[j].add(i)
                else:
                    holders[j] = {i}
        # rank_of[i]: the position among the pivot rows of row i, if any
        rank_of = [None] * len(rows)
        pivot_rows = []
        pivots = []
        above = []
        # a column that no row holds at the start never gains a holder
        for c in sorted(holders):
            if c >= ncols or len(pivots) == len(rows):
                break
            below = []
            earlier = []
            for i in holders[c]:
                if rank_of[i] is None:
                    below.append(i)
                else:
                    earlier.append(rank_of[i])
            if not below:
                continue
            p = min((len(rows[i]), i) for i in below)[1]
            for i in below:
                if i != p:
                    rows[i] = _eliminate(rows[i], c, rows[p], i, holders)
            rank_of[p] = len(pivots)
            pivot_rows.append(rows[p])
            pivots.append(c)
            above.append(earlier)
        # the rows that never became pivot rows are zero on M's columns:
        # each is [0 | n * rhs] for a vector n with n * M = 0
        self._set(M.col_labels, () if rhs is None else rhs.col_labels, pivot_rows, pivots,
                  above, [row for i, row in enumerate(rows) if rank_of[i] is None and row])

    def _set(self, col_labels, rhs_labels, rows, pivots, above, rest):
        """Set every slot; `rest` holds the nonzero rows that are not pivot rows."""
        self.col_labels = col_labels
        self.rhs_labels = rhs_labels
        self._rows = rows
        self.pivots = pivots
        # above[r]: the earlier pivot rows with an entry in column
        # pivots[r], still to be reduced by row r; None once reduced
        self._above = above
        self._rest = rest
        self.consistent = not rest
        self.free = sorted(set(range(len(col_labels))) - set(pivots))
        self.rank = len(pivots)

    @classmethod
    def kron(cls, EA, EB):
        """The elimination of [A (x) B | I] from those of [A | I] and
        [B | I], for A and B of full row rank, with no elimination.

        From S_A * A = R_A and S_B * B = R_B reduced, (S_A (x) S_B) *
        [A (x) B | I] = [R_A (x) R_B | S_A (x) S_B] (Horn & Johnson,
        Topics in Matrix Analysis, 1991, sec. 4.2), and R_A (x) R_B is
        reduced, with pivots pA * ncols(B) + pB: the unique reduced form.
        Row (r, s) multiplies the factors' rows r and s part by part, over
        its content.  Raises ValueError on a factor not of full row rank.
        """
        if EA.rank != len(EA.rhs_labels) or EB.rank != len(EB.rhs_labels):
            raise ValueError("a Kronecker echelon needs factors [A | I] of full row rank")

        def halves(E):
            # each reduced row as its M part and its right-hand side part
            n = len(E.col_labels)
            return [([(j, v) for j, v in row.items() if j < n],
                     [(j - n, v) for j, v in row.items() if j >= n]) for row in E.rows]

        nb, w = len(EB.col_labels), len(EB.rhs_labels)
        ncols = len(EA.col_labels) * nb
        rows = []
        b_halves = halves(EB)
        for am, ar in halves(EA):
            for bm, br in b_halves:
                row = {j * nb + l: a * b for j, a in am for l, b in bm}
                row.update({ncols + j * w + l: a * b for j, a in ar for l, b in br})
                content = gcd(*row.values())
                if content != 1:
                    row = {j: v // content for j, v in row.items()}
                rows.append(row)
        E = cls.__new__(cls)
        E._set(tuple(range(ncols)), tuple(range(len(EA.rhs_labels) * w)), rows,
               [pa * nb + pb for pa in EA.pivots for pb in EB.pivots], None, [])
        return E

    @property
    def rows(self):
        """The reduced pivot rows, each an integer row over its pivot
        value, reduced on first read."""
        if self._above is not None:
            rows = self._rows
            # reducing by row r fills in only free and right-hand side
            # columns, so the rows to reduce in each pivot column are
            # those found by the forward pass
            for r in reversed(range(len(rows))):
                for t in self._above[r]:
                    rows[t] = _eliminate(rows[t], self.pivots[r], rows[r])
            self._above = None
        return self._rows

    def kernel_basis(self):
        """Columns form a deterministic basis of the null space of M.

        One basis vector per free column, in column order: the free
        coordinate is 1, pivot coordinates complete the solution.  The
        matrix is built by rows: the row of pivot column pc is minus the
        free entries of its reduced row over the pivot value.
        """
        ncols = len(self.col_labels)
        at = {f: k for k, f in enumerate(self.free)}
        nums = [None] * ncols
        dens = [1] * ncols
        for f, k in at.items():
            nums[f] = {k: 1}
        for row, pc in zip(self.rows, self.pivots):
            nums[pc] = {at[j]: -v for j, v in row.items() if j in at}
            dens[pc] = row[pc]
        return RationalMatrix.from_int_rows(
            nums, dens,
            col_labels=tuple(self.col_labels[f] for f in self.free),
            row_labels=self.col_labels,
        )

    def solution(self):
        """The solution X of M * X = rhs whose free rows are zero: the
        row of pivot column pc is the right-hand side part of its reduced
        row over the pivot value.  Raises ValueError when inconsistent."""
        if not self.consistent:
            raise ValueError("inconsistent linear system")
        ncols = len(self.col_labels)
        nums = [{} for _ in range(ncols)]
        dens = [1] * ncols
        for row, pc in zip(self.rows, self.pivots):
            nums[pc] = {j - ncols: v for j, v in row.items() if j >= ncols}
            dens[pc] = row[pc]
        return RationalMatrix.from_int_rows(nums, dens, self.rhs_labels, row_labels=self.col_labels)

    def consistent_with(self, y):
        """Whether M * x = rhs_M * y has a solution, for rhs_M the
        right-hand side this elimination was made with and y a pair
        (nums, den), the integers nums over the nonzero int den, one per
        column of rhs_M: whether every row that never became a pivot
        row, a left-null vector of M on the right-hand side columns, is
        zero at nums, which den does not change.  Raises ValueError when
        y has another length."""
        nums, _ = y
        if len(nums) != len(self.rhs_labels):
            raise ValueError("y has %d values for %d right-hand side columns"
                             % (len(nums), len(self.rhs_labels)))
        ncols = len(self.col_labels)
        return not any(sum(v * nums[j - ncols] for j, v in row.items()) for row in self._rest)

    def solve(self, y, free_values=None):
        """One exact solution x of M * x = rhs_M * y, for rhs_M the
        right-hand side this elimination was made with and y a pair
        (nums, den), the integers nums over the nonzero int den, one per
        column of rhs_M.  One elimination of [M | I] so solves M * x = b
        for every b: the right-hand side part of each reduced pivot row
        is read against y.

        Free (non-pivot) coordinates are zero unless `free_values` maps
        their column label to a value.  Returns ((xnums, xden), free
        column positions): x in the same form, the integers xnums over
        one positive denominator xden, the lcm of den, the free values'
        denominators and the pivot values, not reduced.  Raises
        ValueError on a y of another length or inconsistency
        (`consistent_with`), on a label that is not a column label, and
        on a label of a pivot column.
        """
        ncols = len(self.col_labels)
        if not self.consistent_with(y):
            raise ValueError("inconsistent linear system")
        nums, den = y
        free = self.free
        # the known values of [M | rhs_M] as (column, numerator,
        # denominator): each given free value negated, then y
        known = []
        if free_values:
            pos_of = {lab: i for i, lab in enumerate(self.col_labels)}
            for key, val in free_values.items():
                if key not in pos_of:
                    raise ValueError("no column labelled %r" % (key,))
                pos = pos_of[key]
                if pos not in free:
                    raise ValueError("column %r is not free" % (key,))
                val = Fraction(val)
                if val:
                    known.append((pos, -val.numerator, val.denominator))
        known += [(ncols + t, v, den) for t, v in enumerate(nums) if v]
        # all of them as integers over one denominator D, and x over
        # D times the lcm P of the pivot values
        D = lcm(den, *[d for _, _, d in known])
        known = [(j, n * (D // d)) for j, n, d in known]
        rows = self.rows
        P = lcm(*[row[pc] for row, pc in zip(rows, self.pivots)])
        x = [0] * ncols
        for j, k in known:
            if j < ncols:
                # a given free value, negated among the known ones
                x[j] = -k * P
        for row, pc in zip(rows, self.pivots):
            x[pc] = sum([k * row[j] for j, k in known if j in row]) * (P // row[pc])
        return (x, D * P), list(free)


# ---------------------------------------------------------------------------
# bases for wedge and symmetric factors


def wedge_basis(m, p):
    """Strictly increasing p-tuples from 1..m, lexicographic order."""
    if p < 0 or p > m:
        return []
    return [tuple(c) for c in itertools.combinations(range(1, m + 1), p)]


@functools.cache
def sym_component_labels(m, q, n):
    """(J, alpha) labels for Sym^q tensor R^n, J outer; one tuple per
    (m, q, n)."""
    return tuple((J, alpha) for J in enumerate_indices(m, q) for alpha in range(1, n + 1))


@functools.cache
def _partials(m, q, n):
    """The index table of d/dxi_i: Sym^q tensor R^n -> Sym^(q-1) tensor
    R^n, built once per (m, q, n): entry j lists, for the j-th coordinate
    (J, a) of level q, the triples (i, t, J_i) for each J_i > 0, where t
    is the position of (J - 1_i, a) at level q - 1.
    """
    pos = {lab: t for t, lab in enumerate(sym_component_labels(m, q - 1, n))}
    return tuple(tuple((i, pos[(J.sub_unit(i), a)], J[i - 1]) for i in range(1, m + 1) if J[i - 1])
                 for (J, a) in sym_component_labels(m, q, n))


def _delta_rows(m, p, q, n, basis, nb, targets=None):
    """Integer rows of delta on wedge(p) tensor (the span of `basis`).

    `basis` gives, for each Sym^q tensor R^n coordinate, its entries in
    the nb basis vectors as a dict {vector: int}.  Column s * nb + b is
    e_S (x) (vector b) for the s-th S in wedge(p); row labels, returned
    with the rows, are the wedge(p+1) tensor `targets` coordinates, where
    `targets` are (J, a) labels of Sym^(q-1) tensor R^n, all of them by
    default; the rows at other targets are left out.  Coordinate (J, a)
    meets index i in one target (J - 1_i, a) with factor J_i (the table
    of `_partials`), and S meets i in one wedge S + i with a sign, looked
    up once here.  Each (row, column) entry comes from one
    (coordinate, i) pair, since S + i and S fix i, so entries are set,
    never summed.
    """
    below = sym_component_labels(m, q - 1, n)
    down = _partials(m, q, n)
    if targets is not None:
        # renumber the kept targets and drop the others
        at_row = [None] * len(below)
        pos = {lab: t for t, lab in enumerate(below)}
        for r, lab in enumerate(targets):
            at_row[pos[lab]] = r
        down = [[(i, at_row[t], Ji) for i, t, Ji in ts if at_row[t] is not None] for ts in down]
        below = targets
    wedges = wedge_basis(m, p)
    up = wedge_basis(m, p + 1)
    at = {S: w for w, S in enumerate(up)}
    nbelow = len(below)
    rows = [{} for _ in range(len(up) * nbelow)]
    for s, S in enumerate(wedges):
        # per index i not in S: the sign of e_i wedge e_S, -1 to the
        # number of entries of S below i, and the first row of S + i
        ext = [None if i in S else (-1 if sum(1 for s in S if s < i) % 2 else 1,
                                    at[tuple(sorted(S + (i,)))] * nbelow)
               for i in range(1, m + 1)]
        off = s * nb
        for vec, hits in zip(basis, down):
            if not vec:
                continue
            for i, t, Ji in hits:
                hit = ext[i - 1]
                if hit is None:
                    continue
                f = hit[0] * Ji
                row = rows[hit[1] + t]
                for b, c in vec.items():
                    row[off + b] = f * c
    return rows, [(S, J, a) for S in up for (J, a) in below]


def spencer_delta(p, q, m, n=1):
    """The delta map on wedge(p) tensor Sym^q tensor R^n coordinates.

    delta(e_S (x) xi^J (x) w_alpha) = sum over i not in S with J_i > 0 of
    sign(i, S) * J_i * e_{S+i} (x) xi^{J - 1_i} (x) w_alpha.
    """
    src = sym_component_labels(m, q, n)
    rows, row_lbl = _delta_rows(m, p, q, n, [{j: 1} for j in range(len(src))], len(src))
    col_lbl = [(S, J, a) for S in wedge_basis(m, p) for (J, a) in src]
    return RationalMatrix.from_int_rows(rows, [1] * len(rows), col_lbl, row_labels=row_lbl)


# ---------------------------------------------------------------------------
# symbolic systems


class SymbolicSystem:
    """The symbol kernel g(h; a) and its prolongations, all exact.

    Level q >= k stores a constraint matrix A_q on Sym^q tensor R^n
    coordinates and the kernel basis B_q that its `Echelon` gives, with
    ker A_q = col B_q.  A_k is the operator's own matrix; each later A_q
    is the rows of A_k composed with each d^I, |I| = q - k.  Levels below
    the operator order are the full symmetric powers, matching the
    single-equation scalar reading; level q < 0 is zero.
    """

    def __init__(self, m, n, k, constraints):
        self.m = m
        self.n = n
        self.k = k
        self._levels = {}
        self._add_level(k, constraints)

    def _add_level(self, q, A):
        self._levels[q] = (A, Echelon(A).kernel_basis())

    def full_dim(self, q):
        if q < 0:
            return 0
        return comb(self.m + q - 1, q) * self.n

    def dim_g(self, q):
        if q < 0:
            return 0
        if q < self.k:
            return self.full_dim(q)
        self.prolong_to(q)
        return self._levels[q][1].ncols

    def basis(self, q):
        """Basis matrix of g_q (columns), identity below the order."""
        if q < 0:
            return RationalMatrix([])
        if q < self.k:
            labels = sym_component_labels(self.m, q, self.n)
            return RationalMatrix.from_int_rows(
                [{j: 1} for j in range(len(labels))], [1] * len(labels), labels, row_labels=labels)
        self.prolong_to(q)
        return self._levels[q][1]

    def constraints_at(self, q):
        if q < self.k:
            labels = sym_component_labels(self.m, q, self.n)
            return RationalMatrix([], row_labels=(), col_labels=labels)
        self.prolong_to(q)
        return self._levels[q][0]

    def prolong_to(self, q):
        """Compute levels up to q: g_q = {T : d^I T in g_k for all
        |I| = q - k}, the prolongation of g_k (Seiler, Involution, 2010).

        The rows of A_q are psi o d^I for each |I| = q - k in graded-lex
        order and, within one I, each row psi of A_k in order: d^I sends
        xi^(J+I) to (J+I)!/J! xi^J, so the row has entry
        psi[(J, a)] * (J+I)!/J! at (J + I, a).  They span the annihilator
        of g_q, which the d/dxi_i of the rows of level q - 1 span too, so
        the reduced form and B_q are those of the level-by-level
        prolongation.  A_q has nrows(A_k) * comb(m + q - k - 1, m - 1)
        rows.
        """
        A = self._levels[self.k][0]
        low = sym_component_labels(self.m, self.k, self.n)
        for level in range(self.k + 1, q + 1):
            if level in self._levels:
                continue
            labels = sym_component_labels(self.m, level, self.n)
            at = {lab: t for t, lab in enumerate(labels)}
            shifts = enumerate_indices(self.m, level - self.k)
            nums = []
            for I in shifts:
                for num in A.nums:
                    row = {}
                    for j, x in num.items():
                        J, a = low[j]
                        JI = J.add(I)
                        row[at[(JI, a)]] = x * prod(map(perm, JI, I))  # (J+I)!/J!
                    nums.append(row)
            self._add_level(level, RationalMatrix.from_int_rows(
                nums, A.dens * len(shifts), labels))


def symbol_constraint_matrix(h, a):
    """Rows: the symbol functionals of each component at the jet point a.

    Entry at (beta, (J, alpha)) is the partial of h_beta by u^alpha_J
    evaluated at a, divided by multinomial(J); with this normalization a
    decomposable power v^{(x)k} pairs to the symbol polynomial at v.
    Only the symbol table's entries are read, in its order, from one
    `sx.Batch` on the point's chart, compiled once per operator and
    chart and kept on h by `jc.kept`; an absent entry is 0.
    """
    labels = sym_component_labels(h.m, h.order, h.n)
    table = jc.symbol_table(h)
    chart = a.chart
    batch = jc.kept(h, ("symbol batch", chart.m, chart.n, chart.k), sx.Batch, table.values(),
                    chart.slots)
    values, den = batch.at(a.nums, a.den)
    entries = {(alpha, beta, J): Fraction(x, den * multinomial(J))
               for (alpha, beta, J), x in zip(table, values)}
    betas = tuple(range(1, h.n_out + 1))
    rows = [[entries.get((alpha, beta, J), 0) for (J, alpha) in labels] for beta in betas]
    return RationalMatrix(rows, row_labels=betas, col_labels=labels)


def symbolic_system_at(h, a):
    """The symbolic system of h at the jet point a (exact data only)."""
    A = symbol_constraint_matrix(h, a)
    if A.is_zero():
        raise SymbolZeroError("operator symbol vanishes identically at the point")
    return SymbolicSystem(h.m, h.n, h.order, A)


# ---------------------------------------------------------------------------
# cohomology


def _delta_on_g(g, p, q, targets=None):
    """Delta on wedge(p) tensor g_q (dim g_q > 0): columns (S, b) for
    the basis vectors b of g_q, and the rows of `_delta_rows` at
    `targets`, all wedge(p+1) tensor Sym^(q-1) coordinates by default."""
    B = g.basis(q)
    # B_q over one common denominator
    common = lcm(*B.dens)
    basis = [{b: c * (common // den) for b, c in num.items()} if den != common else num
             for num, den in zip(B.nums, B.dens)]
    rows, row_lbl = _delta_rows(g.m, p, q, g.n, basis, B.ncols, targets)
    col_lbl = [(S, lab) for S in wedge_basis(g.m, p) for lab in B.col_labels]
    return RationalMatrix.from_int_rows(rows, [common] * len(rows), col_lbl, row_labels=row_lbl)


def restricted_delta(g, p, q):
    """Delta on wedge(p) tensor g_q, columns written in the ambient
    wedge(p+1) tensor Sym^(q-1) coordinates."""
    if not 0 <= p < g.m or q <= 0 or g.dim_g(q) == 0:
        # no source or no target: the empty matrix
        return RationalMatrix([])
    return _delta_on_g(g, p, q)


def delta_rank(g, p, q):
    """The rank of delta on wedge(p) tensor g_q, that of
    `restricted_delta(g, p, q)`.

    It is 0 without source or target (p < 0, p >= m, q <= 0, or
    g_q = 0), and dim g_q for p = 0, q >= 1: delta is injective on
    Sym^q, since delta T = 0 makes every d/dxi_i T vanish.  Otherwise
    the image lies in wedge(p+1) tensor g_(q-1), because
    g_q = {T : d/dxi_i T in g_(q-1)}, and each basis vector of g_(q-1)
    is 1 at its own free coordinate of level q - 1 and 0 at the other
    free coordinates (`Echelon.kernel_basis`), so reading the image only
    at those coordinates keeps the rank: only the rows at the free
    labels of g_(q-1), its basis column labels, are built.
    """
    if not 0 <= p < g.m or q <= 0 or g.dim_g(q) == 0:
        return 0
    if p == 0:
        return g.dim_g(q)
    return _delta_on_g(g, p, q, g.basis(q - 1).col_labels).rank()


def cohomology_dims(g, pmax, qmax):
    """Table {(p, q): dim H^{p,q}(g)} computed by exact rank-nullity.

    Each rank of delta on wedge(p) tensor g_q (`delta_rank`) is computed
    once: it enters both H^{p,q} and H^{p+1,q-1}.  For p > m every term
    is 0: comb(m, p) = 0 and `delta_rank` is 0 for p >= m.
    """
    rank = functools.cache(lambda p, q: delta_rank(g, p, q))
    dims = {}
    for p in range(0, pmax + 1):
        for q in range(0, qmax + 1):
            dims[(p, q)] = comb(g.m, p) * g.dim_g(q) - rank(p, q) - rank(p - 1, q + 1)
    return dims


# ---------------------------------------------------------------------------
# symbolic generic rank over expression entries


def generic_rank_exprs(rows):
    """Generic (symbolic) rank of a matrix of expressions.

    Each row is scaled by the product of the quotient payloads of its
    entries, each to its largest exponent in the row (`sx.clear_denominators`
    against the row's payloads); scaling a row by a nonzero rational
    function keeps the generic rank.  The entries are then eliminated
    division-free with structural zero tests.  For polynomial entries
    the result is the exact rank over the rational function field; with
    opaque primitives present it is an upper bound certified only by
    sample agreement (the caller reports which).
    """
    work = []
    for row in rows:
        payloads = sx.quotient_payloads(*row)
        work.append([sx.clear_denominators(e, payloads)[0] for e in row])
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
