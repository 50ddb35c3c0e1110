"""RationalMatrix rank, kernel and solve against sympy over QQ.

sympy is a test-only oracle here; jetforge never imports it.
"""

from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetforge.spencer import RationalMatrix

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
        assert K.column(j) == _column(v)
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
    for rhs, values in zip(rhs_list, assign):
        b = sympy.Matrix(len(rhs), 1, [sympy.Rational(x.numerator, x.denominator) for x in rhs])
        consistent = S.row_join(b).rank() == S.rank()
        if not consistent:
            with pytest.raises(ValueError, match="inconsistent"):
                M.solve(rhs, free_values=values)
            continue
        x, free = M.solve(rhs, free_values=values)
        assert _times(M, x) == rhs
        assert free == [c for c in range(M.ncols) if c not in S.rref()[1]]
        for f in free:
            assert x[f] == values.get(LABELS[f], 0)


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
        assert K.column(j) == _column(v)
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
