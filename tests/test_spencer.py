import math
import os
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetforge import cli
from jetforge import jetcalc as jc
from jetforge import pfd
from jetforge import spencer as sp
from jetforge import symexpr as sx
from jetforge.mindex import MultiIndex, enumerate_indices
from jetforge.spencer import RationalMatrix


def _rand_matrix(rng, nr, nc, bound=6):
    return RationalMatrix([[sx.random_rational(rng, bound) for _ in range(nc)]
                           for _ in range(nr)])


def _wave(m):
    e = sx.jet(1, tuple(2 if i == 0 else 0 for i in range(m)))
    for i in range(1, m):
        e = e - sx.jet(1, tuple(2 if j == i else 0 for j in range(m)))
    return jc.DiffOp(m, 1, 2, [e])


def _point(h, seed=0):
    rng = random.Random(seed)
    chart = h.chart()
    jets = {(1, I): sx.random_rational(rng, 4) for I in chart.jet_indices()}
    return jc.JetPoint(chart, tuple(sx.random_rational(rng, 4) for _ in range(h.m)), jets)


def test_rref_rank_against_float_rank():
    import numpy as np

    rng = random.Random(7)
    for _ in range(15):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        M = _rand_matrix(rng, nr, nc)
        exact = M.rank()
        approx = np.linalg.matrix_rank(np.array([[float(v) for v in r] for r in M.rows]))
        assert exact == approx


def test_kernel_basis_spans_kernel():
    rng = random.Random(9)
    for _ in range(10):
        M = _rand_matrix(rng, 3, 5)
        K = M.kernel_basis()
        assert K.ncols == 5 - M.rank()
        prod = M.matmul(K)
        assert prod.is_zero()


def test_solve_exact_and_inconsistent():
    M = RationalMatrix([[Q(1), Q(2)], [Q(2), Q(4)]])
    x, free = M.solve([Q(3), Q(6)])
    assert M.matmul(RationalMatrix([[x[0]], [x[1]]])).rows == ((Q(3),), (Q(6),))
    with pytest.raises(ValueError):
        M.solve([Q(3), Q(7)])


def test_solve_with_assigned_free_values():
    M = RationalMatrix([[Q(1), Q(1)]])
    x, free = M.solve([Q(5)], free_values={free_pos: Q(2) for free_pos in [1]})
    assert x == [Q(3), Q(2)]


def test_spencer_delta_squares_to_zero():
    for m in (2, 3):
        for n in (1, 2):
            for p in range(0, m):
                for q in range(1, 4):
                    d1 = sp.spencer_delta(p, q, m, n)
                    d2 = sp.spencer_delta(p + 1, q - 1, m, n)
                    if d2.nrows == 0 or d1.nrows == 0:
                        continue
                    assert d2.matmul(d1).is_zero(), (m, n, p, q)


def test_spencer_delta_full_complex_is_exact():
    # for the full symmetric algebra the delta complex is exact away
    # from the ends, so ranks telescope to the alternating dimension sum
    m, q, n = 2, 2, 1
    d0 = sp.spencer_delta(0, q, m, n)
    dim0 = d0.ncols
    r0 = d0.rank()
    assert r0 == dim0 - 0 or dim0 >= r0  # rank bounded
    # H^{0,q} of the full system vanishes for q >= 1: rank = dim source
    assert r0 == dim0


def test_full_system_cohomology_vanishes():
    # the trivial system: no constraints, g_q is everything
    g = sp.SymbolicSystem(2, 1, 2, RationalMatrix(
        [], row_labels=(), col_labels=sp.sym_component_labels(2, 2, 1)))
    H = sp.cohomology_dims(g, 2, 3)
    for (p, q), v in H.items():
        if (p, q) == (0, 0):
            assert v == 1
        else:
            assert v == 0, (p, q, v)


def test_wave_symbolic_system_dims_m2():
    h = _wave(2)
    g = sp.symbolic_system_at(h, _point(h))
    # below the order the system is the full symmetric space
    assert g.dim_g(0) == 1
    assert g.dim_g(1) == 2
    # one equation at order 2, then one new equation per prolongation
    assert g.dim_g(2) == 2
    assert g.dim_g(3) == 2
    assert g.dim_g(4) == 2


def test_wave_cohomology_table_m2():
    h = _wave(2)
    g = sp.symbolic_system_at(h, _point(h))
    H = sp.cohomology_dims(g, 2, 4)
    expected_nonzero = {(0, 0): 1, (1, 1): 1}
    for key, v in H.items():
        assert v == expected_nonzero.get(key, 0), (key, v)


@pytest.mark.parametrize("g", [
    sp.symbolic_system_at(_wave(2), _point(_wave(2))),
    sp.SymbolicSystem(2, 1, 2, RationalMatrix(
        [], row_labels=(), col_labels=sp.sym_component_labels(2, 2, 1))),
], ids=["wave", "full"])
def test_cohomology_rows_past_m_are_zero(g):
    # wedge(p) is 0 for p > m, so the general formula gives 0 there;
    # the rows p <= m are those of the table with pmax = m
    H = sp.cohomology_dims(g, g.m + 2, 3)
    assert sorted(H) == [(p, q) for p in range(g.m + 3) for q in range(4)]
    assert all(H[(p, q)] == 0 for p in range(g.m + 1, g.m + 3) for q in range(4))
    assert {key: v for key, v in H.items() if key[0] <= g.m} == sp.cohomology_dims(g, g.m, 3)


def test_prolong_system_matches_internal_levels():
    h = _wave(2)
    g = sp.symbolic_system_at(h, _point(h))
    g.prolong_to(g.k + 2)
    assert g.dim_g(4) == sp.symbolic_system_at(h, _point(h)).dim_g(4)


def test_symbol_zero_error():
    h = jc.DiffOp(2, 1, 2, [sx.jet(1, (1, 0))])
    with pytest.raises(sp.SymbolZeroError):
        sp.symbolic_system_at(h, _point(h))


def test_heat_operator_dims():
    # u_t - u_xx: the symbol kernel keeps ascending dimensions 1
    h = jc.DiffOp(2, 1, 2, [sx.jet(1, (0, 1)) - sx.jet(1, (2, 0))])
    # declared order 2: symbol only sees |I| = 2 jets, so the constraint
    # is u_(2,0)-coefficient only and dim g_2 = 3 - 1 = 2
    g = sp.symbolic_system_at(h, _point(h))
    assert g.dim_g(2) == 2


def test_generic_rank_exprs_matches_pointwise_rank():
    rng = random.Random(21)
    x1 = sx.base(1)
    rows = [
        [x1, sx.ONE, sx.ZERO],
        [x1 ** 2, x1, sx.ZERO],
        [sx.ZERO, sx.ZERO, x1 + 1],
    ]
    # second row is x1 times the first, so only two independent rows
    assert sp.generic_rank_exprs(rows) == 2
    rows2 = [
        [x1, sx.ONE],
        [x1 ** 2, x1],
    ]
    assert sp.generic_rank_exprs(rows2) == 1
    rows3 = [
        [x1, sx.ONE],
        [sx.ONE, x1],
    ]
    assert sp.generic_rank_exprs(rows3) == 2


def _derivative_matrix(m, q, n, i):
    """Matrix of d/dxi_i: Sym^q tensor R^n -> Sym^{q-1} tensor R^n."""
    src = sp.sym_component_labels(m, q, n)
    dst = sp.sym_component_labels(m, q - 1, n)
    pos = {lab: j for j, lab in enumerate(dst)}
    rows = [[Q(0)] * len(src) for _ in dst]
    for cj, (J, alpha) in enumerate(src):
        if J[i - 1] == 0:
            continue
        rows[pos[(J.sub_unit(i), alpha)]][cj] = Q(J[i - 1])
    return RationalMatrix(rows, row_labels=dst, col_labels=src)


def test_derivative_matrix_shape():
    D = _derivative_matrix(2, 2, 1, 1)
    # maps Sym^2 coords (3) to Sym^1 coords (2)
    assert D.nrows == 2 and D.ncols == 3


def test_matmul():
    A = RationalMatrix([[Q(1), Q(2)], [Q(0), Q(1)]])
    B = RationalMatrix([[Q(1)], [Q(3)]])
    assert A.matmul(B).rows == ((Q(7),), (Q(3),))


def _zero(nr, nc):
    return RationalMatrix.from_int_rows([{}] * nr, [1] * nr, range(nc))


def test_zero_keeps_its_shape_without_rows():
    for nr, nc in ((0, 3), (0, 0), (2, 0), (2, 3)):
        Z = _zero(nr, nc)
        assert (Z.nrows, Z.ncols) == (nr, nc)
        assert Z.rank() == 0
    assert _zero(0, 3).kernel_basis().ncols == 3


def _dense_restricted_delta(g, p, q):
    """spencer_delta(p, q) * (I (x) B_q) as a dense product, one identity
    block per wedge basis element."""
    B = g.basis(q)
    D = sp.spencer_delta(p, q, g.m, g.n)
    wedges = sp.wedge_basis(g.m, p)
    rows = []
    for S in wedges:
        for r in B.rows:
            rows.append([x if T == S else Q(0) for T in wedges for x in r])
    IB = RationalMatrix(rows, col_labels=[(S, lab) for S in wedges for lab in B.col_labels])
    return D.matmul(IB)


def _random_system(rng, m, n):
    # order-2 system from n_out = n random equations on Sym^2 (x) R^n
    labels = sp.sym_component_labels(m, 2, n)
    A = RationalMatrix([[Q(rng.choice([0, 0, 1, -1, 2])) for _ in labels] for _ in range(n)],
                       col_labels=labels)
    return sp.SymbolicSystem(m, n, 2, A)


def test_restricted_delta_matches_dense_reference():
    rng = random.Random(11)
    for m in (2, 3):
        for n in (1, 2):
            g = _random_system(rng, m, n)
            for p in range(0, m + 1):
                for q in range(0, 5):
                    got = sp.restricted_delta(g, p, q)
                    want = _dense_restricted_delta(g, p, q)
                    if p == m or q == 0:
                        # zero target: returned as the empty matrix
                        assert want.nrows == 0
                        assert (got.nrows, got.ncols) == (0, 0), (m, n, p, q)
                        continue
                    assert got.rows == want.rows, (m, n, p, q)
                    assert got.row_labels == want.row_labels
                    assert got.col_labels == want.col_labels


# ---------------------------------------------------------------------------
# prolongation from reduced rows against the unreduced stacking


def _unreduced_levels(A, m, n, k, qmax):
    """A_q for q = k..qmax by stacking A_{q-1} * d/dxi_i for i = 1..m,
    over the unreduced A_{q-1}, so rows grow as m^(q-k)."""
    out = {k: A}
    for q in range(k + 1, qmax + 1):
        labels = sp.sym_component_labels(m, q, n)
        blocks = [A.matmul(_derivative_matrix(m, q, n, i)) for i in range(1, m + 1)]
        A = RationalMatrix([r for b in blocks for r in b.rows], col_labels=labels)
        out[q] = A
    return out


def _random_constraints(rng, m, n, k):
    labels = sp.sym_component_labels(m, k, n)
    nout = rng.randint(0, n + 1)
    values = [Q(0)] * 6 + [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)]
    return RationalMatrix([[rng.choice(values) for _ in labels] for _ in range(nout)],
                          row_labels=tuple(range(1, nout + 1)), col_labels=labels)


def test_prolongation_matches_unreduced_stacking():
    rng = random.Random(31)
    for m in (2, 3):
        for n in (1, 2):
            for k in (1, 2):
                for _ in range(3):
                    A = _random_constraints(rng, m, n, k)
                    g = sp.SymbolicSystem(m, n, k, A)
                    ref = _unreduced_levels(A, m, n, k, k + 3)
                    for q in range(k, k + 4):
                        got, want = g.basis(q), ref[q].kernel_basis()
                        assert got.rows == want.rows, (m, n, k, q)
                        assert got.row_labels == want.row_labels
                        assert got.col_labels == want.col_labels
                        assert g.constraints_at(q).col_labels == ref[q].col_labels


def test_prolonged_rows_stay_within_m_times_rank_below():
    rng = random.Random(32)
    systems = [sp.symbolic_system_at(_wave(m), _point(_wave(m))) for m in (2, 3, 4)]
    systems += [sp.SymbolicSystem(m, n, 2, _random_constraints(rng, m, n, 2))
                for m in (2, 3) for n in (1, 2)]
    for g in systems:
        for q in range(g.k + 1, g.k + 4):
            rank_below = g.full_dim(q - 1) - g.dim_g(q - 1)
            assert g.constraints_at(q).nrows <= g.m * rank_below, (g.m, g.n, q)


def _shifted_rows(A, m, n, k, q):
    """psi o d^I for each |I| = q - k, I outer, and each row psi of A:
    d^I applied to xi^T one axis at a time."""
    labels = sp.sym_component_labels(m, q, n)
    out = []
    for I in enumerate_indices(m, q - k):
        for psi in A.rows:
            row = []
            for T, a in labels:
                J, f = list(T), Q(1)
                for i, times in enumerate(I):
                    for _ in range(times):
                        f *= J[i]
                        J[i] -= 1
                row.append(f * psi[A.col_labels.index((MultiIndex(J), a))] if min(J) >= 0 else Q(0))
            out.append(tuple(row))
    return tuple(out)


def _sympy_rref(M):
    sympy = pytest.importorskip("sympy")
    if not M.nrows:
        return ()
    R, pivots = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                              for r in M.rows]).rref()
    return tuple(tuple(Q(int(x.p), int(x.q)) for x in R.row(r)) for r in range(len(pivots)))


def test_prolonged_rows_are_the_operator_rows_shifted_by_each_index():
    # A_q is psi o d^I for each row psi of A_k and each |I| = q - k,
    # entry for entry, and its reduced form is that of the level-by-level
    # chain: d/dxi_i of the reduced rows of level q - 1 (sympy's rref)
    rng = random.Random(33)
    for m in (2, 3):
        for n in (1, 2):
            for k in (1, 2):
                A = _random_constraints(rng, m, n, k)
                g = sp.SymbolicSystem(m, n, k, A)
                for q in range(k + 1, k + 4):
                    got = g.constraints_at(q)
                    assert got.rows == _shifted_rows(A, m, n, k, q), (m, n, k, q)
                    below = g.constraints_at(q - 1)
                    reduced = RationalMatrix(list(_sympy_rref(below)), col_labels=below.col_labels)
                    chain = RationalMatrix(
                        [row for i in range(1, m + 1)
                         for row in reduced.matmul(_derivative_matrix(m, q, n, i)).rows],
                        col_labels=got.col_labels)
                    assert _sympy_rref(got) == _sympy_rref(chain), (m, n, k, q)


def _scalar_hilbert(m, k, q):
    """dim g_q of one scalar order-k equation with nonzero symbol."""
    return math.comb(m + q - 1, m - 1) - (math.comb(m + q - k - 1, m - 1) if q >= k else 0)


def _curved_klein_gordon_3d():
    from jetforge import integrability as ig

    x1, x2, x3 = sx.base(1), sx.base(2), sx.base(3)
    metric = ig.MetricSpec(3, {
        (1, 1): sx.ONE - x3 ** 2 * Q(1, 5),
        (2, 2): sx.as_expr(Q(-1)) + x1 * Q(1, 4),
        (3, 3): sx.as_expr(Q(-2)) - x2 ** 2 * Q(1, 3),
        (1, 2): x2 * Q(1, 6), (2, 1): x2 * Q(1, 6),
        (2, 3): Q(1, 9) + x1 * x3 * Q(1, 7), (3, 2): Q(1, 9) + x1 * x3 * Q(1, 7),
    })
    return ig.make_klein_gordon(metric, F1=1, F2=1, K=lambda e: e ** 3)


@pytest.mark.parametrize("make_op,qmax", [(lambda: _wave(4), 7), (_curved_klein_gordon_3d, 8)])
def test_prolonged_dims_match_the_hilbert_function(make_op, qmax):
    h = make_op()
    g = sp.symbolic_system_at(h, _point(h, seed=3))
    for q in range(0, qmax + 1):
        assert g.dim_g(q) == _scalar_hilbert(h.m, h.order, q), q


def test_wave_m5_cohomology_table_closed_form():
    h = _wave(5)
    g = sp.symbolic_system_at(h, _point(h))
    H = sp.cohomology_dims(g, 5, 5)
    for q in range(0, 7):
        assert g.dim_g(q) == math.comb(q + 4, 4) - math.comb(q + 2, 4), q
    assert H[(0, 0)] == H[(1, 1)] == 1
    assert all(v == 0 for (p, q), v in H.items() if q >= 2)


# ---------------------------------------------------------------------------
# the ranks of the cohomology table against the ambient restricted delta


def _bench_workloads():
    import importlib.util
    import os
    import sys

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    sys.modules.setdefault("bench_workloads", module)
    spec.loader.exec_module(module)
    return module


def _check_table_ranks(g, qmax):
    """Each rank `cohomology_dims(g, m, qmax)` reads, and `delta_rank` for
    p <= m, q <= qmax + 1, is the rank of the ambient restricted delta;
    the table is rank-nullity over those ranks."""
    ambient = {(p, q): sp.restricted_delta(g, p, q).rank()
               for p in range(g.m + 1) for q in range(qmax + 2)}
    used = {}
    delta_rank = sp.delta_rank

    def spy(g_, p, q):
        used[(p, q)] = delta_rank(g_, p, q)
        return used[(p, q)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sp, "delta_rank", spy)
        table = sp.cohomology_dims(g, g.m, qmax)
    assert {key for key in used if key[0] >= 0} >= {
        (p, q) for p in range(g.m) for q in range(1, qmax + 2)}
    for (p, q), r in used.items():
        assert r == ambient.get((p, q), 0), (g.m, g.n, g.k, p, q)
    for (p, q), r in ambient.items():
        assert sp.delta_rank(g, p, q) == r, (g.m, g.n, g.k, p, q)
    for q in range(1, qmax + 2):
        assert ambient[(0, q)] == g.dim_g(q), q
    for (p, q), v in table.items():
        assert v == (math.comb(g.m, p) * g.dim_g(q) - ambient[(p, q)]
                     - ambient.get((p - 1, q + 1), 0)), (p, q)


@st.composite
def _exact_systems(draw):
    m, n, k = draw(st.integers(2, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    labels = sp.sym_component_labels(m, k, n)
    values = st.sampled_from([Q(0)] * 5 + [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)])
    nout = draw(st.integers(1, n + 1))
    rows = [[draw(values) for _ in labels] for _ in range(nout)]
    return sp.SymbolicSystem(m, n, k, RationalMatrix(rows, col_labels=labels))


@settings(max_examples=40, deadline=None)
@given(_exact_systems())
def test_table_ranks_equal_the_ambient_ranks_on_random_systems(g):
    _check_table_ranks(g, g.k + 1)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_table_ranks_equal_the_ambient_ranks_on_the_wave_operator(m):
    h = _wave(m)
    _check_table_ranks(sp.symbolic_system_at(h, _point(h)), 5)


def test_table_ranks_equal_the_ambient_ranks_on_the_benchmark_tables():
    jobs = _bench_workloads().build_spencer_tables(1)
    for job, qmax in zip(jobs, (5, 6)):
        g, _ = job.run()
        _check_table_ranks(g, qmax)


# Closed form for one scalar equation of order k with symbol sigma != 0:
# g is dual to S/(sigma), so H^{0,0} = H^{1,k-1} = 1 and every other
# H^{p,q} is 0.


def _one_equation_table(m, k):
    qmax = k + 3
    ones = {(0, 0), (1, k - 1)}
    return {(p, q): int((p, q) in ones) for p in range(m + 1) for q in range(qmax + 1)}


def _exact_scalar_corpus_files():
    corpus = os.path.join(os.path.dirname(__file__), "corpus")
    out = []
    for name in sorted(os.listdir(corpus)):
        with open(os.path.join(corpus, name), encoding="utf-8") as fh:
            spec = cli.parse_problem_file(fh.read())
        h = spec.operator
        if not spec.float_literals and h.n == 1 and h.n_out == 1:
            out.append(name)
    return out


@pytest.mark.parametrize("name", _exact_scalar_corpus_files())
def test_one_equation_cohomology_closed_form_on_the_corpus(name):
    with open(os.path.join(os.path.dirname(__file__), "corpus", name), encoding="utf-8") as fh:
        h = cli.parse_problem_file(fh.read()).operator
    # the point the spencer command uses at seed 0
    g = sp.symbolic_system_at(h, cli._random_jet_point(h, 0))
    assert sp.cohomology_dims(g, h.m, h.order + 3) == _one_equation_table(h.m, h.order)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_one_equation_cohomology_closed_form_on_constant_symbols(m, k, data):
    labels = sp.sym_component_labels(m, k, 1)
    values = st.sampled_from([Q(0)] * 3 + [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)])
    row = data.draw(st.lists(values, min_size=len(labels), max_size=len(labels))
                    .filter(any))
    g = sp.SymbolicSystem(m, 1, k, RationalMatrix([row], col_labels=labels))
    assert sp.cohomology_dims(g, m, k + 3) == _one_equation_table(m, k)


# ---------------------------------------------------------------------------
# the Kronecker echelon


def _identity_echelon(M):
    return sp.Echelon(M, RationalMatrix.identity(M.nrows))


def _reduced(E):
    """The reduced rows of E over their pivot values, as Fraction dicts."""
    return [{j: Q(v, row[p]) for j, v in row.items()} for row, p in zip(E.rows, E.pivots)]


@st.composite
def _full_row_rank(draw):
    """A rational matrix of full row rank: a row-echelon block with
    nonzero pivots, each row plus multiples of the rows below it, its
    columns permuted.  Rows 0..3, and columns from the row count up, so
    0-row, square and wide factors (with free columns) all come up."""
    nr = draw(st.integers(0, 3))
    nc = draw(st.integers(nr, nr + 2))
    entry = st.sampled_from([Q(0), Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4), Q(5, 3)])
    pivot = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 3), Q(-5, 2)])
    rows = [[Q(0)] * r + [draw(pivot)] + [draw(entry) for _ in range(nc - r - 1)]
            for r in range(nr)]
    for r in range(nr):
        for s in range(r + 1, nr):
            k = draw(st.integers(-2, 2))
            rows[r] = [a + k * b for a, b in zip(rows[r], rows[s])]
    perm = draw(st.permutations(range(nc)))
    return RationalMatrix([[row[p] for p in perm] for row in rows], col_labels=range(nc))


@settings(max_examples=120, deadline=None)
@given(_full_row_rank(), _full_row_rank())
@example(_zero(0, 2), RationalMatrix([[Q(1), Q(2)], [Q(0), Q(3)]]))
@example(RationalMatrix([[Q(0), Q(2), Q(1, 2)]]), _zero(0, 0))
@example(RationalMatrix([[Q(1, 2), Q(0)], [Q(1), Q(1)]]), RationalMatrix([[Q(0), Q(-1), Q(3)]]))
def test_kronecker_echelon_is_the_elimination_of_the_kronecker_product(A, B):
    K = pfd.kron(A, B)
    got = sp.Echelon.kron(_identity_echelon(A), _identity_echelon(B))
    want = _identity_echelon(K)
    assert got.rank == want.rank == A.nrows * B.nrows
    assert got.pivots == want.pivots
    assert got.free == want.free
    assert got.consistent and want.consistent
    assert got.col_labels == want.col_labels and got.rhs_labels == want.rhs_labels
    assert _reduced(got) == _reduced(want)
    assert got.kernel_basis() == want.kernel_basis()
    assert got.solution() == want.solution()
    assert K.matmul(got.solution()) == RationalMatrix.identity(K.nrows)


def test_kronecker_echelon_against_sympy_rref():
    import sympy

    A = RationalMatrix([[Q(2), Q(1), Q(0)], [Q(1), Q(1, 2), Q(-3)]])
    B = RationalMatrix([[Q(0), Q(1, 3), Q(1)], [Q(4), Q(0), Q(-1)]])
    K = pfd.kron(A, B)
    n = K.nrows
    aug = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                        + [int(i == c) for c in range(n)] for i, row in enumerate(K.rows)])
    R, pivots = aug.rref()
    E = sp.Echelon.kron(_identity_echelon(A), _identity_echelon(B))
    assert tuple(E.pivots) == pivots
    width = K.ncols + n
    for r, row in enumerate(_reduced(E)):
        assert [row.get(j, Q(0)) for j in range(width)] == [
            Q(int(x.p), int(x.q)) for x in R.row(r)]


def test_kronecker_echelon_refuses_a_rank_deficient_factor():
    full = _identity_echelon(RationalMatrix([[Q(1), Q(2), Q(0)]]))
    deficient = _identity_echelon(RationalMatrix([[Q(1), Q(2)], [Q(-2), Q(-4)]]))
    assert deficient.rank == 1
    for EA, EB in ((full, deficient), (deficient, full), (deficient, deficient)):
        with pytest.raises(ValueError, match="full row rank"):
            sp.Echelon.kron(EA, EB)
