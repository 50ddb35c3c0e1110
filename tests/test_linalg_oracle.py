"""RationalMatrix rank, kernel, solve and products against sympy over QQ,
and invariants of the integer-row kernel: delta squared is zero, a rank
mod p is at most the rank over Q, and the `rows` view and equality do
not depend on how a matrix was built.

sympy is a test-only oracle here; jetforge never imports it.
"""

from fractions import Fraction as Q
from math import lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetforge import spencer as sp
from jetforge import symexpr as sx
from jetforge.spencer import Echelon, RationalMatrix

# few distinct values and many zeros, so sparse and rank-deficient
# matrices come up often
ENTRIES = st.sampled_from([Q(0)] * 4 + [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)])
LABELS = (5, 6, 7, 8, 9)


@st.composite
def dense(draw):
    nr = draw(st.integers(0, 5))
    nc = draw(st.integers(0, 5))
    return [[draw(ENTRIES) for _ in range(nc)] for _ in range(nr)], nc


@st.composite
def low_rank(draw):
    """A product of an nr x k and a k x nc matrix, so rank <= k."""
    nr = draw(st.integers(1, 5))
    nc = draw(st.integers(1, 5))
    k = draw(st.integers(0, min(nr, nc) - 1))
    left = [[draw(ENTRIES) for _ in range(k)] for _ in range(nr)]
    right = [[draw(ENTRIES) for _ in range(nc)] for _ in range(k)]
    rows = [[sum((left[i][t] * right[t][j] for t in range(k)), Q(0)) for j in range(nc)]
            for i in range(nr)]
    return rows, nc


MATRICES = st.one_of(dense(), low_rank())

EMPTY_ROWS = ([], 3)
EMPTY_COLS = ([[], [], []], 0)
ZERO = ([[Q(0)] * 4 for _ in range(3)], 4)
WIDE = ([[Q(1), Q(2), Q(0), Q(-1), Q(3)], [Q(2), Q(4), Q(1), Q(0), Q(1, 2)]], 5)
TALL = ([[Q(1), Q(0)], [Q(0), Q(1)], [Q(1), Q(1)], [Q(2), Q(-3)], [Q(0), Q(0)]], 2)
DEFICIENT = ([[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(6)], [Q(0), Q(1), Q(1)]], 3)


def _ours(case):
    rows, nc = case
    return RationalMatrix(rows, col_labels=LABELS[:nc])


def _oracle(case):
    rows, nc = case
    return sympy.Matrix(len(rows), nc, [sympy.Rational(x.numerator, x.denominator)
                                        for r in rows for x in r])


def _column(v):
    return [Q(int(x.p), int(x.q)) for x in v]


def _times(M, x):
    return [sum((a * b for a, b in zip(r, x)), Q(0)) for r in M.rows]


@settings(max_examples=150, deadline=None)
@given(MATRICES)
@example(EMPTY_ROWS)
@example(EMPTY_COLS)
@example(ZERO)
@example(WIDE)
@example(TALL)
@example(DEFICIENT)
def test_rank_and_kernel_match_sympy(case):
    M, S = _ours(case), _oracle(case)
    assert M.rank() == S.rank()
    K = M.kernel_basis()
    null = S.nullspace()
    assert K.ncols == len(null)
    for j, v in enumerate(null):
        assert [r[j] for r in K.rows] == _column(v)
    free = [c for c in range(M.ncols) if c not in S.rref()[1]]
    assert K.col_labels == tuple(LABELS[f] for f in free)


@settings(max_examples=150, deadline=None)
@given(MATRICES, st.data())
@example(EMPTY_ROWS, None)
@example(EMPTY_COLS, None)
@example(ZERO, None)
@example(WIDE, None)
@example(TALL, None)
@example(DEFICIENT, None)
def test_solve_matches_sympy_consistency(case, data):
    M, S = _ours(case), _oracle(case)
    if data is None:
        # the fixed cases: a zero right-hand side, and a last unit
        # vector that sympy finds consistent or not
        rhs_list = [[Q(0)] * M.nrows, [Q(0)] * (M.nrows - 1) + [Q(1)] if M.nrows else []]
        assign = [{}, {}]
    else:
        pick = data.draw(st.lists(ENTRIES, min_size=M.ncols, max_size=M.ncols))
        in_image = _times(M, pick)
        arbitrary = data.draw(st.lists(ENTRIES, min_size=M.nrows, max_size=M.nrows))
        rhs_list = [in_image, arbitrary]
        free = [c for c in range(M.ncols) if c not in S.rref()[1]]
        values = {LABELS[f]: data.draw(ENTRIES) for f in free}
        assign = [values, values]
    # one elimination of [M | I] serves every right-hand side
    E = Echelon(M, RationalMatrix.identity(M.nrows))
    for rhs, values in zip(rhs_list, assign):
        b = sympy.Matrix(len(rhs), 1, [sympy.Rational(x.numerator, x.denominator) for x in rhs])
        consistent = S.row_join(b).rank() == S.rank()
        y = sx.integer_row(rhs)
        assert E.consistent_with(y) == consistent
        if not consistent:
            with pytest.raises(ValueError, match="inconsistent"):
                M.solve(rhs, free_values=values)
            with pytest.raises(ValueError, match="inconsistent"):
                E.solve(y, free_values=values)
            continue
        x, free = M.solve(rhs, free_values=values)
        (nums, den), got_free = E.solve(y, free_values=values)
        assert ([Q(v, den) for v in nums], got_free) == (x, free)
        assert _times(M, x) == rhs
        assert free == [c for c in range(M.ncols) if c not in S.rref()[1]]
        for f in free:
            assert x[f] == values.get(LABELS[f], 0)


def test_solve_takes_one_value_per_right_hand_side_column():
    E = Echelon(RationalMatrix([[Q(1), Q(1)], [Q(2), Q(2)]]), RationalMatrix.identity(2))
    for y in (([1], 1), ([1, 2, 0], 1)):
        with pytest.raises(ValueError, match="right-hand side columns"):
            E.consistent_with(y)
        with pytest.raises(ValueError, match="right-hand side columns"):
            E.solve(y)
    assert E.solve(([1, 2], 1)) == (([1, 0], 1), [1])
    # y and x are integer rows over one denominator
    assert E.solve(([1, 2], 3)) == (([1, 0], 3), [1])


def test_solve_free_values_are_keyed_by_label_only():
    M = RationalMatrix([[Q(1), Q(1), Q(0)]], col_labels=(5, 6, 7))
    x, free = M.solve([Q(4)], free_values={6: Q(1), 7: Q(2)})
    assert x == [Q(3), Q(1), Q(2)]
    assert free == [1, 2]
    # 1 is a position here, not a label
    with pytest.raises(ValueError, match="no column labelled 1"):
        M.solve([Q(4)], free_values={1: Q(1)})
    with pytest.raises(ValueError, match="column 5 is not free"):
        M.solve([Q(4)], free_values={5: Q(1)})


# ---------------------------------------------------------------------------
# mostly-zero matrices: the elimination and the product skip zeros


@st.composite
def sparse(draw, max_rows=8, max_cols=8):
    """About 10-30% nonzero entries, with zero rows and zero columns."""
    nr = draw(st.integers(0, max_rows))
    nc = draw(st.integers(0, max_cols))
    density = draw(st.sampled_from([0.1, 0.2, 0.3]))
    nonzero = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4), Q(5, 3)])
    rows = [[draw(nonzero) if draw(st.floats(0, 1)) < density else Q(0) for _ in range(nc)]
            for _ in range(nr)]
    if nr and draw(st.booleans()):
        rows[draw(st.integers(0, nr - 1))] = [Q(0)] * nc
    if nc and draw(st.booleans()):
        j = draw(st.integers(0, nc - 1))
        for r in rows:
            r[j] = Q(0)
    return rows, nc


SPARSE_LABELS = tuple(range(10, 10 + 8))


@settings(max_examples=150, deadline=None)
@given(sparse(), st.data())
def test_sparse_rank_kernel_and_solve_match_sympy(case, data):
    rows, nc = case
    M = RationalMatrix(rows, col_labels=SPARSE_LABELS[:nc])
    S = _oracle(case)
    assert M.rank() == S.rank()
    K = M.kernel_basis()
    null = S.nullspace()
    assert K.ncols == len(null)
    for j, v in enumerate(null):
        assert [r[j] for r in K.rows] == _column(v)
    pick = data.draw(st.lists(ENTRIES, min_size=nc, max_size=nc))
    rhs = _times(M, pick)
    x, free = M.solve(rhs)
    assert _times(M, x) == rhs
    assert free == [c for c in range(nc) if c not in S.rref()[1]]
    if M.nrows > M.rank():
        # a right-hand side off the image
        b = sympy.Matrix(M.nrows, 1, [0] * (M.nrows - 1) + [1])
        if S.row_join(b).rank() > S.rank():
            with pytest.raises(ValueError, match="inconsistent"):
                M.solve([Q(0)] * (M.nrows - 1) + [Q(1)])


@st.composite
def sparse_pairs(draw):
    left, nc = draw(sparse())
    ncols = draw(st.integers(0, 8))
    right = [[draw(st.sampled_from([Q(0)] * 3 + [Q(1), Q(-2), Q(1, 3)])) for _ in range(ncols)]
             for _ in range(nc)]
    return left, nc, right, ncols


@settings(max_examples=150, deadline=None)
@given(sparse_pairs())
@example(([], 3, [[Q(1), Q(2)]] * 3, 2))
@example(([[], []], 0, [], 4))
@example(([[Q(1), Q(2)], [Q(0), Q(3)]], 2, [[], []], 0))
@example(([[Q(0)] * 3] * 2, 3, [[Q(0)] * 4] * 3, 4))
def test_matmul_matches_dense_triple_loop(pair):
    left, nc, right, ncols = pair
    A = RationalMatrix(left, col_labels=range(nc))
    B = RationalMatrix(right, col_labels=range(ncols))
    P = A.matmul(B)
    assert (P.nrows, P.ncols) == (len(left), ncols)
    want = [[sum((left[i][t] * right[t][j] for t in range(nc)), Q(0)) for j in range(ncols)]
            for i in range(len(left))]
    assert [list(r) for r in P.rows] == want
    assert all(type(x) is Q for r in P.rows for x in r)


# ---------------------------------------------------------------------------
# the integer-row kernel: sparse and dense, empty shapes, zero rows and
# large denominators, against sympy over QQ


BIG = st.builds(Q, st.integers(-10**15, 10**15).filter(bool), st.integers(1, 10**15))
SMALL = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4), Q(5, 3)])


@st.composite
def rational_matrices(draw, max_rows=6, max_cols=6):
    """Empty to dense, small or large denominators, with zero rows."""
    nr = draw(st.integers(0, max_rows))
    nc = draw(st.integers(0, max_cols))
    density = draw(st.sampled_from([0.0, 0.15, 0.4, 1.0]))
    nonzero = draw(st.sampled_from([SMALL, BIG]))
    rows = [[draw(nonzero) if draw(st.floats(0, 1)) < density else Q(0) for _ in range(nc)]
            for _ in range(nr)]
    for i in range(nr):
        if draw(st.integers(0, 4)) == 0:
            rows[i] = [Q(0)] * nc
    if nr > 1 and draw(st.booleans()):
        # a repeated row, so the rank drops
        rows[-1] = list(rows[0])
    return rows, nc


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
@example(EMPTY_ROWS)
@example(EMPTY_COLS)
@example(ZERO)
def test_integer_elimination_matches_sympy_rref(case):
    rows, nc = case
    M, S = RationalMatrix(rows, col_labels=range(nc)), _oracle(case)
    E = Echelon(M)
    R, pivots = S.rref()
    assert E.rank == S.rank() == len(pivots)
    assert tuple(E.pivots) == pivots
    # reduced rows: each integer row over its pivot value
    reduced = [[Q(row.get(j, 0), row[pc]) for j in range(nc)] for row, pc in zip(E.rows, E.pivots)]
    assert reduced == [_column(R.row(r)) for r in range(len(pivots))]
    K = E.kernel_basis()
    null = S.nullspace()
    assert K.ncols == len(null)
    for j, v in enumerate(null):
        assert [r[j] for r in K.rows] == _column(v)


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.data())
def test_integer_solve_matches_sympy(case, data):
    rows, nc = case
    labels = tuple(range(100, 100 + nc))
    M, S = RationalMatrix(rows, col_labels=labels), _oracle(case)
    free = [c for c in range(nc) if c not in S.rref()[1]]
    values = {labels[f]: data.draw(st.one_of(SMALL, BIG)) for f in free
              if data.draw(st.booleans())}
    pick = data.draw(st.lists(st.one_of(SMALL, BIG), min_size=nc, max_size=nc))
    arbitrary = data.draw(st.lists(st.one_of(SMALL, BIG), min_size=M.nrows, max_size=M.nrows))
    for rhs in (_times(M, pick), arbitrary):
        b = sympy.Matrix(len(rhs), 1, [sympy.Rational(x.numerator, x.denominator) for x in rhs])
        if S.row_join(b).rank() != S.rank():
            with pytest.raises(ValueError, match="inconsistent"):
                M.solve(rhs, free_values=values)
            continue
        x, got_free = M.solve(rhs, free_values=values)
        assert all(type(v) is Q for v in x)
        assert _times(M, x) == rhs
        assert got_free == free
        for f in free:
            assert x[f] == values.get(labels[f], 0)


@st.composite
def augmented_systems(draw):
    """A matrix M and a right-hand side B of 0 to 3 columns, each in
    M's image or arbitrary."""
    rows, nc = draw(rational_matrices())
    nonzero = draw(st.sampled_from([SMALL, BIG]))
    cols = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            pick = [draw(nonzero) if draw(st.booleans()) else Q(0) for _ in range(nc)]
            cols.append([sum((a * b for a, b in zip(r, pick)), Q(0)) for r in rows])
        else:
            cols.append([draw(nonzero) if draw(st.booleans()) else Q(0) for _ in rows])
    return rows, nc, [[c[i] for c in cols] for i in range(len(rows))], len(cols)


@settings(max_examples=150, deadline=None)
@given(augmented_systems())
@example(([], 3, [], 2))
@example(([[], []], 0, [[Q(1)], [Q(0)]], 1))
@example(([[Q(1), Q(2)], [Q(2), Q(4)]], 2, [[Q(1), Q(1)], [Q(2), Q(3)]], 2))
def test_augmented_elimination_matches_sympy(system):
    rows, nc, right, k = system
    M = RationalMatrix(rows, col_labels=range(nc))
    B = RationalMatrix(right, col_labels=range(k))
    S, SB = _oracle((rows, nc)), _oracle((right, k))
    assert M.join(B).rows == tuple(tuple(a) + tuple(b) for a, b in zip(rows, right))
    E, plain = Echelon(M, B), Echelon(M)
    assert E.consistent == (S.row_join(SB).rank() == S.rank())
    # pivots and reduced rows on M's columns do not see the right-hand side
    assert (E.rank, E.pivots, E.free) == (plain.rank, plain.pivots, plain.free)

    def reduced(ech):
        return [[Q(row.get(j, 0), row[pc]) for j in range(nc)]
                for row, pc in zip(ech.rows, ech.pivots)]

    assert reduced(E) == reduced(plain)
    assert E.kernel_basis() == plain.kernel_basis()
    if not E.consistent:
        with pytest.raises(ValueError, match="inconsistent"):
            E.solution()
        return
    X = E.solution()
    assert (X.nrows, X.ncols) == (nc, k)
    assert M.matmul(X) == B
    assert all(X.rows[f] == (Q(0),) * k for f in E.free)
    if k == 1:
        # y = (1): b is B's one column
        (x, den), free = E.solve(([1], 1))
        assert [Q(v, den) for v in x] == [r[0] for r in X.rows] and free == E.free


@st.composite
def permuted_systems(draw):
    """An augmented system and a permutation of its rows."""
    rows, nc, right, k = draw(augmented_systems())
    return rows, nc, right, k, draw(st.permutations(range(len(rows))))


@settings(max_examples=150, deadline=None)
@given(permuted_systems())
# every row of [M | B] holds three entries, so each pivot row is picked
# by the tie break on the row id, which the permutation changes
@example(([[Q(1), Q(2), Q(0)], [Q(2), Q(0), Q(3)], [Q(3), Q(0), Q(-1)]], 3,
          [[Q(1)], [Q(1)], [Q(1)]], 1, [2, 0, 1]))
def test_elimination_does_not_depend_on_row_order(system):
    rows, nc, right, k, perm = system
    B = RationalMatrix(right, col_labels=range(k))
    E = Echelon(RationalMatrix(rows, col_labels=range(nc)), B)
    P = Echelon(RationalMatrix([rows[i] for i in perm], col_labels=range(nc)),
                RationalMatrix([right[i] for i in perm], col_labels=range(k)))
    assert (P.rank, P.pivots, P.free, P.consistent) == (E.rank, E.pivots, E.free, E.consistent)

    # the right-hand side part of a reduced row is fixed only modulo
    # the rows that are zero on M, which an inconsistent system has
    width = nc + k if E.consistent else nc

    def reduced(ech):
        return [[Q(row.get(j, 0), row[pc]) for j in range(width)]
                for row, pc in zip(ech.rows, ech.pivots)]

    assert reduced(P) == reduced(E)
    assert P.kernel_basis() == E.kernel_basis()
    if E.consistent:
        assert P.solution() == E.solution()


@st.composite
def rational_pairs(draw):
    left, nc = draw(rational_matrices())
    ncols = draw(st.integers(0, 6))
    nonzero = draw(st.sampled_from([SMALL, BIG]))
    right = [[draw(nonzero) if draw(st.booleans()) else Q(0) for _ in range(ncols)]
             for _ in range(nc)]
    return left, nc, right, ncols


@settings(max_examples=150, deadline=None)
@given(rational_pairs())
def test_integer_matmul_matches_sympy(pair):
    left, nc, right, ncols = pair
    P = RationalMatrix(left, col_labels=range(nc)).matmul(RationalMatrix(right, col_labels=range(ncols)))
    want = _oracle((left, nc)) * _oracle((right, ncols))
    assert (P.nrows, P.ncols) == (len(left), ncols)
    assert [list(r) for r in P.rows] == [_column(want.row(i)) for i in range(len(left))]


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.data())
def test_rows_view_and_equality_agree_across_constructors(case, data):
    """The same matrix built dense and from integer rows (over any
    nonzero multiple of the row denominators, negative ones too)."""
    rows, nc = case
    dense = RationalMatrix(rows, col_labels=range(nc))
    nums, dens = [], []
    for r in rows:
        d = lcm(*[x.denominator for x in r]) * data.draw(st.sampled_from([1, 2, -3, 10**9]))
        nums.append({j: int(x * d) for j, x in enumerate(r)})
        dens.append(d)
    ints = RationalMatrix.from_int_rows(nums, dens, range(nc))
    assert ints.rows == dense.rows == tuple(tuple(r) for r in rows)
    assert all(type(x) is Q for r in ints.rows for x in r)
    assert ints == dense
    assert all(d > 0 for d in ints.dens)
    if any(any(r) for r in rows):
        i = next(i for i, r in enumerate(rows) if any(r))
        changed = [list(r) for r in rows]
        changed[i] = [2 * x for x in changed[i]]
        assert RationalMatrix(changed, col_labels=range(nc)) != dense


def _rank_mod(M, p):
    """Rank of the integer rows of M over GF(p)."""
    rows = [{j: v % p for j, v in num.items() if v % p} for num in M.nums]
    rank = 0
    for c in range(M.ncols):
        pr = next((i for i in range(rank, len(rows)) if c in rows[i]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i].get(c)
            if f:
                for j, v in rows[rank].items():
                    rows[i][j] = (rows[i].get(j, 0) - f * inv * v) % p
                rows[i] = {j: v for j, v in rows[i].items() if v}
        rank += 1
    return rank


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.sampled_from([2, 3, 5, 7, 101]))
def test_rank_mod_p_is_at_most_the_rank_over_q(case, p):
    rows, nc = case
    M = RationalMatrix(rows, col_labels=range(nc))
    assert _rank_mod(M, p) <= M.rank()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.integers(0, 4), st.integers(1, 5))
def test_sparse_built_delta_squares_to_zero(m, n, p, q):
    first = sp.spencer_delta(p, q, m, n)
    second = sp.spencer_delta(p + 1, q - 1, m, n)
    assert first.row_labels == second.col_labels
    assert second.matmul(first).is_zero()
    assert first.dens == (1,) * first.nrows


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.integers(1, 2), st.integers(0, 3), st.integers(1, 4), st.randoms())
def test_restricted_delta_composes_to_zero(m, n, p, q, rnd):
    labels = sp.sym_component_labels(m, 2, n)
    values = [Q(0), Q(0), Q(1), Q(-1), Q(2), Q(1, 3)]
    A = RationalMatrix([[rnd.choice(values) for _ in labels] for _ in range(n)], col_labels=labels)
    g = sp.SymbolicSystem(m, n, 2, A)
    D = sp.restricted_delta(g, p, q)
    if D.nrows == 0:
        return
    assert sp.spencer_delta(p + 1, q - 1, m, n).matmul(D).is_zero()
