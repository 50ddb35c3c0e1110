import random
from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetforge import jetcalc as jc
from jetforge import pfd
from jetforge import spencer as sp
from jetforge import symexpr as sx

from random_exprs import random_polynomial

RM = sp.RationalMatrix


def _jt():
    return pfd.JetTower(2, 1, 6)


def _cubic_section():
    return jc.SectionPoly(2, [(sx.base(1) + sx.base(2)) ** 3])


def _random_form(rng, tower, level, degree, max_slot):
    table = {}
    slots = list(range(1, max_slot + 1))
    atoms = [sx.BaseVar(i) for i in slots]
    for _ in range(3):
        key = tuple(sorted(rng.sample(slots, degree)))
        table[key] = random_polynomial(rng, atoms, degree=2, terms=2, bound=4)
    return pfd.LocalForm(tower, level, degree, table)


def test_thread_of_section_and_extension():
    jt = _jt()
    psi = _cubic_section()
    th = jt.thread_of_section(psi, (Q(1), Q(2)), 5)
    assert th.length == 5
    jp5 = jc.jet_of_section(psi, (Q(1), Q(2)), 5)
    th6 = pfd.Thread(th.tower, [*th.points, jt.point_to_tuple(jp5)])
    assert th6.length == 6
    bad = list(jt.point_to_tuple(jp5))
    bad[0] += 1
    with pytest.raises(pfd.ThreadError):
        pfd.Thread(th.tower, [*th.points, tuple(bad)])


def test_thread_rejects_incompatible_projections():
    jt = _jt()
    psi = _cubic_section()
    pts = [jt.point_to_tuple(jc.jet_of_section(psi, (Q(0), Q(0)), k))
           for k in range(3)]
    tampered = list(pts[2])
    tampered[-1] += 1  # top jet slot, projection unaffected
    pfd.Thread(jt.tower, [pts[0], pts[1], tuple(tampered)])
    tampered2 = list(pts[2])
    tampered2[0] += 1
    with pytest.raises(pfd.ThreadError):
        pfd.Thread(jt.tower, [pts[0], pts[1], tuple(tampered2)])


def test_borel_realization_round_trip():
    psi = _cubic_section()
    jp = jc.jet_of_section(psi, (Q(1), Q(2)), 3)
    data = {(1, I): jp[(1, I)] for I in jp.chart.jet_indices()}
    sec = pfd.borel_realize(2, 1, data, (Q(1), Q(2)), 3)
    back = jc.jet_of_section(sec, (Q(1), Q(2)), 3)
    for key, v in data.items():
        assert back[key] == v


def test_borel_realization_random_data():
    rng = random.Random(31)
    chart = jc.JetChartSpec(3, 2, 3)
    data = {}
    for alpha in (1, 2):
        for I in chart.jet_indices():
            data[(alpha, I)] = sx.random_rational(rng, 6)
    p0 = (Q(1, 2), Q(-1), Q(0))
    sec = pfd.borel_realize(3, 2, data, p0, 3)
    back = jc.jet_of_section(sec, p0, 3)
    for key, v in data.items():
        assert back[key] == v


@pytest.mark.parametrize("n, data, message", [
    # the key with alpha = 2 on n = 1 was dropped without a word
    (1, {(1, (0, 0)): 1, (2, (0, 0)): 5}, "component alpha = 2 is outside 1..1"),
    (2, {(0, (1, 0)): 1}, "component alpha = 0 is outside 1..2"),
    # a 3-entry index on m = 2 built x3
    (1, {(1, (0, 0, 1)): 1}, "index (0, 0, 1) has 3 entries, need 2"),
    (1, {(1, (1,)): 1}, "index (1,) has 1 entries, need 2"),
], ids=["alpha_past_n", "alpha_0", "long_index", "short_index"])
def test_borel_realization_refuses_a_key_off_the_bundle(n, data, message):
    with pytest.raises(ValueError) as err:
        pfd.borel_realize(2, n, data, (Q(0), Q(0)), 2)
    assert str(err.value) == message


def test_vf_apply_matches_total_derivative():
    jt = _jt()
    D1 = pfd.total_derivative_field(jt, 1)
    f_chart = sx.jet(1, (1, 0)) * sx.jet(1, (0, 1)) + sx.base(1)
    f = pfd.LocalFunction(1, jt.to_tower_expr(f_chart, 1))
    g = pfd.vf_apply(D1, f)
    assert g.level == 2
    want = jt.to_tower_expr(jc.total_derivative(f_chart, 1), 2)
    assert (g.expr - want).is_zero()


def test_total_derivative_brackets_vanish():
    jt = _jt()
    D1 = pfd.total_derivative_field(jt, 1)
    D2 = pfd.total_derivative_field(jt, 2)
    for i in range(3):
        br = pfd.lie_bracket(D1, D2, i)
        assert all(e.is_zero() for e in br.component_map(i))
    rng = random.Random(11)
    for _ in range(5):
        e = random_polynomial(rng, jt.slots(1), degree=2, terms=4, bound=5)
        fl = pfd.LocalFunction(1, jt.to_tower_expr(e, 1))
        a = pfd.vf_apply(D1, pfd.vf_apply(D2, fl))
        b = pfd.vf_apply(D2, pfd.vf_apply(D1, fl))
        assert a.level == b.level == 3
        assert (a.expr - b.expr).is_zero()


def test_d_squared_zero_on_functions_and_random_forms():
    jt = _jt()
    tw = jt.tower
    f0 = pfd.LocalFunction(1, sx.base(4) * sx.base(5) + sx.base(1))
    df = pfd.d(pfd.LocalForm(tw, f0.level, 0, {(): f0.expr}))
    assert pfd.d(df).is_zero()
    rng = random.Random(13)
    for level in (0, 1, 2):
        for degree in (1, 2):
            om = _random_form(rng, tw, level, degree, tw.dims[level])
            assert pfd.d(pfd.d(om)).is_zero()


def test_leibniz_for_wedge():
    jt = _jt()
    tw = jt.tower
    x1 = sx.base(1)
    u00 = sx.base(3)
    alpha = pfd.LocalForm(tw, 1, 1, {(1,): sx.base(4), (3,): x1 * sx.base(5)})
    beta = pfd.LocalForm(tw, 1, 1, {(2,): u00, (4,): sx.base(5)})
    lhs = pfd.d(pfd.wedge(alpha, beta))
    da_b = pfd.wedge(pfd.d(alpha), beta)
    a_db = pfd.wedge(alpha, pfd.d(beta))
    for key in set(da_b.table) | set(a_db.table) | set(lhs.table):
        diff = lhs.entry(key) - da_b.entry(key) + a_db.entry(key)
        assert diff.is_zero(), key


def test_wedge_anticommutes_for_one_forms():
    tw = _jt().tower
    alpha = pfd.LocalForm(tw, 1, 1, {(1,): sx.base(4), (3,): sx.base(1) * sx.base(5)})
    beta = pfd.LocalForm(tw, 1, 1, {(2,): sx.base(3), (4,): sx.base(5)})
    w1 = pfd.wedge(alpha, beta)
    w2 = pfd.wedge(beta, alpha)
    for key in set(w1.table) | set(w2.table):
        assert (w1.entry(key) + w2.entry(key)).is_zero()


def test_contact_form_annihilated_by_total_derivative():
    jt = _jt()
    tw = jt.tower
    D1 = pfd.total_derivative_field(jt, 1)
    # du - u10 dx1 - u01 dx2 on level 1 slots (x1,x2,u,u10,u01)
    theta = pfd.LocalForm(tw, 1, 1, {(1,): -sx.base(4), (2,): -sx.base(5), (3,): sx.ONE})
    c = pfd.contract(D1, theta)
    assert c.level == 2
    assert c.is_zero()


def test_contract_requires_projection_steps_above_form_level():
    dims = [1, 1]
    steps = [(sx.base(1) ** 2,)]
    tower = pfd.TowerSpec(dims, steps)
    V = pfd.LocalVectorField(tower, lambda i: i + 1, {0: (sx.ONE,), 1: (sx.ONE,)})
    omega = pfd.LocalForm(tower, 0, 1, {(1,): sx.base(1)})
    with pytest.raises(ValueError):
        pfd.contract(V, omega)


def test_form_pullback_along_projection_steps():
    tw = _jt().tower
    omega = pfd.LocalForm(tw, 0, 1, {(3,): sx.ONE})
    om2 = omega.pulled_to(2)
    assert om2.table == {(3,): sx.ONE}
    h_fun = pfd.LocalFunction(0, sx.base(3) ** 2)
    h_up = pfd.pullback_local_function(h_fun, tw, 3)
    assert h_up.level == 3
    assert (h_up.expr - sx.base(3) ** 2).is_zero()


def test_form_pullback_uses_jacobian_minors():
    # nonlinear step: level 1 coordinate y = x^2, so dy pulls back to 2x dx
    tower = pfd.TowerSpec([1, 1], [(sx.base(1) ** 2,)])
    omega = pfd.LocalForm(tower, 0, 1, {(1,): sx.ONE})
    up = omega.pulled_to(1)
    assert (up.entry((1,)) - 2 * sx.base(1)).is_zero()


def test_equation_subtower_membership_and_dims():
    wave = jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))])
    E = pfd.EquationSubtower(wave)
    sol = _cubic_section()
    nonsol = jc.SectionPoly(2, [sx.base(1) ** 2])
    assert E.membership(jc.jet_of_section(sol, (Q(0), Q(0)), 4))
    assert not E.membership(jc.jet_of_section(nonsol, (Q(0), Q(0)), 2))
    assert E.dimension(1) == 5
    assert E.dimension(2) == 8 - 1
    assert E.dimension(3) == 12 - 3
    assert E.check_projection_surjectivity(1, samples=3, seed=5) == 3


def test_projection_surjectivity_refuses_no_samples_and_a_negative_level():
    # samples = 0 returned 0 and witnessed nothing
    E = pfd.EquationSubtower(jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))]))
    for samples in (0, -1):
        with pytest.raises(ValueError, match="^samples must be at least 1, got %d$" % samples):
            E.check_projection_surjectivity(1, samples=samples)
    with pytest.raises(ValueError, match="^level l must be at least 0, got -1$"):
        E.check_projection_surjectivity(-1, samples=1)


def test_linear_tower_requires_surjective_steps():
    with pytest.raises(ValueError):
        pfd.LinearTower([2, 2], [RM([[Q(1), Q(0)], [Q(0), Q(0)]])])


def test_a_tower_needs_at_least_one_level():
    with pytest.raises(ValueError, match="a tower needs at least one level"):
        pfd.LinearTower([], [])


def test_kron_keeps_the_width_of_zero_row_factors():
    def zero(nr, nc):
        return RM.from_int_rows([{}] * nr, [1] * nr, range(nc))

    K = pfd.kron(zero(0, 2), RM.identity(2))
    assert (K.nrows, K.ncols) == (0, 4)
    K = pfd.kron(RM.identity(3), zero(0, 2))
    assert (K.nrows, K.ncols) == (0, 6)
    K = pfd.kron(zero(2, 0), RM.identity(2))
    assert (K.nrows, K.ncols) == (4, 0)


_ENTRIES = st.one_of(st.just(Q(0)), st.fractions(min_value=-6, max_value=6, max_denominator=5))


@st.composite
def _dense(draw):
    nr = draw(st.integers(0, 3))
    nc = draw(st.integers(0, 3))
    return nc, [[draw(_ENTRIES) for _ in range(nc)] for _ in range(nr)]


def _rm(nc, rows):
    return RM(rows, col_labels=range(nc))


@settings(max_examples=80, deadline=None)
@given(_dense(), _dense())
@example((2, []), (2, [[Q(1), Q(0)], [Q(0), Q(1)]]))
@example((0, [[], []]), (3, [[Q(1, 2), Q(0), Q(-3)]]))
@example((3, [[Q(1, 2), Q(2, 3), Q(0)]]), (0, [[], [], []]))
def test_kron_matches_dense_reference(a, b):
    (na, A), (nb, B) = a, b
    K = pfd.kron(_rm(na, A), _rm(nb, B))
    want = [tuple(x * y for x in ra for y in rb) for ra in A for rb in B]
    assert (K.nrows, K.ncols) == (len(A) * len(B), na * nb)
    assert K.rows == tuple(want)
    assert K == _rm(na * nb, want)


def test_tensor_tower_splitting():
    V = pfd.LinearTower([1, 2, 3], [
        RM([[Q(1), Q(0)]]),
        RM([[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)]]),
    ])
    W = pfd.LinearTower([2, 3, 4], [
        RM([[Q(1), Q(1), Q(0)], [Q(0), Q(1), Q(1)]]),
        RM([[Q(1), Q(0), Q(0), Q(2)], [Q(0), Q(1), Q(0), Q(0)],
            [Q(0), Q(0), Q(1), Q(1)]]),
    ])
    res = pfd.tensor_tower(V, W)
    assert res.identities_hold
    assert res.dim_identity_holds
    assert [res.left.tilde_dim(i) for i in range(3)] == [1, 1, 1]
    assert [res.right.tilde_dim(i) for i in range(3)] == [2, 1, 1]
    assert res.tensor.dims == [2, 6, 12]


def test_tower_splitting_identities_random():
    rng = random.Random(5)
    for trial in range(4):
        dims = [rng.randint(1, 3)]
        for _ in range(3):
            dims.append(dims[-1] + rng.randint(0, 2))
        steps = []
        ok = False
        for _ in range(50):
            steps = []
            good = True
            for i in range(len(dims) - 1):
                M = RM([[Q(rng.randint(-3, 3)) for _ in range(dims[i + 1])]
                        for _ in range(dims[i])])
                if M.rank() != dims[i]:
                    good = False
                    break
                steps.append(M)
            if good:
                ok = True
                break
        assert ok
        T = pfd.LinearTower(dims, steps)
        split = pfd.tower_splitting(T)
        assert split.verify()
        assert sum(split.tilde_dim(i) for i in range(len(dims))) == dims[-1]


def _random_rational_tower(rng, levels):
    dims = [rng.randint(1, 3)]
    for _ in range(levels - 1):
        dims.append(dims[-1] + rng.randint(0, 2))
    steps = []
    for i in range(levels - 1):
        while True:
            M = RM([[Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(dims[i + 1])]
                    for _ in range(dims[i])])
            if M.rank() == dims[i]:
                break
        steps.append(M)
    return pfd.LinearTower(dims, steps)


def test_tower_splitting_lifts_match_dense_assembly():
    rng = random.Random(11)
    for _ in range(6):
        split = pfd.tower_splitting(_random_rational_tower(rng, 4))
        for i in range(1, len(split.lifts)):
            f = split.sections[i].rows
            prev = split.lifts[i - 1].rows
            K = split.kernel_bases[i].rows
            pushed = [[sum((f[r][t] * prev[t][c] for t in range(len(prev))), Q(0))
                       for c in range(split.lifts[i - 1].ncols)] for r in range(len(f))]
            want = tuple(tuple(p) + tuple(k) for p, k in zip(pushed, K))
            assert split.lifts[i].rows == want
            assert split.lifts[i].ncols == split.lifts[i - 1].ncols + split.kernel_bases[i].ncols
        assert split.verify()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_sections_split_the_steps_and_vanish_on_free_columns(seed):
    # step * section = identity and zero rows at the free columns pin
    # the section down: its pivot rows are then the reduced rows' values
    T = _random_rational_tower(random.Random(seed), 4)
    split = pfd.tower_splitting(T)
    for i in range(1, T.length):
        step, f = T.steps[i - 1], split.sections[i]
        assert (f.nrows, f.ncols) == (T.dims[i], T.dims[i - 1])
        assert step.matmul(f) == RM.identity(T.dims[i - 1])
        pivots = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                               for r in step.rows]).rref()[1]
        free = [c for c in range(step.ncols) if c not in pivots]
        assert all(f.rows[c] == (Q(0),) * f.ncols for c in free)


@st.composite
def _surjective_towers(draw):
    """Random linear towers of 1 to 5 levels: each step is a row-echelon
    block with a nonzero diagonal, so of full row rank, with its
    columns permuted."""
    dims = [draw(st.integers(1, 3))]
    for _ in range(draw(st.integers(0, 4))):
        dims.append(dims[-1] + draw(st.integers(0, 2)))
    entry = st.builds(Q, st.integers(-3, 3), st.integers(1, 4))
    pivot = st.builds(Q, st.integers(1, 3) | st.integers(-3, -1), st.integers(1, 4))
    steps = []
    for r, c in zip(dims, dims[1:]):
        rows = [[Q(0)] * a + [draw(pivot)] + [draw(entry) for _ in range(c - a - 1)]
                for a in range(r)]
        perm = draw(st.permutations(range(c)))
        steps.append(RM([[row[p] for p in perm] for row in rows]))
    return pfd.LinearTower(dims, steps)


def _dense_product(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Q(0)) for col in zip(*B.rows)]
            for row in A.rows]


@settings(max_examples=60, deadline=None)
@given(_surjective_towers())
def test_tower_splitting_identities_on_random_surjective_towers(T):
    split = pfd.tower_splitting(T)
    assert split.verify()
    for i in range(1, T.length):
        step, f, K = T.steps[i - 1], split.sections[i], split.kernel_bases[i]
        n = T.dims[i - 1]
        assert _dense_product(step, f) == [[Q(int(r == c)) for c in range(n)] for r in range(n)]
        assert K.ncols == T.dims[i] - n
        assert all(x == 0 for row in _dense_product(step, K) for x in row)
    assert sum(split.tilde_dim(i) for i in range(T.length)) == T.dims[-1]


def _tampered(M, r, c, delta):
    rows = [list(row) for row in M.rows]
    rows[r][c] += delta
    return RM(rows)


def _reassemble(split, kernels, start):
    """Lifts from level `start` up, rebuilt from the given kernel bases
    as tower_splitting assembles them."""
    lifts = list(split.lifts)
    for i in range(start, len(lifts)):
        pushed = split.sections[i].matmul(lifts[i - 1])
        lifts[i] = RM([list(p) + list(k) for p, k in zip(pushed.rows, kernels[i].rows)])
    return pfd.TowerSplitting(split.tower, kernels, split.sections, lifts)


def test_tower_splitting_verify_rejects_tampering():
    T = pfd.LinearTower([1, 2, 4, 5], [
        RM([[Q(1), Q(-1)]]),
        RM([[Q(1), Q(0), Q(2), Q(0)], [Q(0), Q(1), Q(1), Q(-1)]]),
        RM([[Q(1), Q(0), Q(0), Q(0), Q(1)], [Q(0), Q(1), Q(0), Q(0), Q(0)],
            [Q(0), Q(0), Q(1), Q(0), Q(-2)], [Q(0), Q(0), Q(0), Q(1), Q(3)]]),
    ])
    split = pfd.tower_splitting(T)
    assert split.verify()
    mid = 2
    L = split.lifts[mid]
    for r in range(L.nrows):
        for c in range(L.ncols):
            lifts = list(split.lifts)
            lifts[mid] = _tampered(L, r, c, Q(1))
            bad = pfd.TowerSplitting(T, split.kernel_bases, split.sections, lifts)
            assert not bad.verify(), (r, c)
    assert _reassemble(split, split.kernel_bases, mid).verify()
    K = split.kernel_bases[mid]
    assert K.ncols == 2
    section = [r[0] for r in split.sections[mid].rows]
    for c in range(K.ncols):
        # the step maps a section column to a unit vector, so adding one
        # moves the kernel column out of the kernel
        rows = [list(row) for row in K.rows]
        for r in range(K.nrows):
            rows[r][c] += section[r]
        kernels = list(split.kernel_bases)
        kernels[mid] = RM(rows)
        assert not _reassemble(split, kernels, mid).verify(), c


def test_tangent_threads():
    x1, x2 = sx.base(1), sx.base(2)
    A = pfd.TowerSpec([1, 2, 3], [(x1,), (x1, x2)])
    th = pfd.Thread(A, [(Q(3),), (Q(3), Q(5)), (Q(3), Q(5), Q(7))])
    pfd.TangentThread(th, [(Q(1),), (Q(1), Q(2)), (Q(1), Q(2), Q(4))])
    with pytest.raises(pfd.ThreadError):
        pfd.TangentThread(th, [(Q(1),), (Q(2), Q(2)), (Q(2), Q(2), Q(0))])


def _nonlinear_tower():
    # level 2 -> 1 is (x1, x2) -> (x1 x2, x2), level 1 -> 0 is x1 -> x1^2
    x1, x2 = sx.base(1), sx.base(2)
    return pfd.TowerSpec([1, 2, 2], [(x1 ** 2,), (x1 * x2, x2)])


def _step_jacobian_image(tower, i, point, v):
    """The step-(i-1) Jacobian at a level-i point, as a matrix of
    derivative values, times v: the form the tangent check once used."""
    at = {sx.BaseVar(t + 1): x for t, x in enumerate(point)}
    J = RM([[sx.evaluate(sx.differentiate(e, sx.BaseVar(t + 1)), at)
             for t in range(tower.dims[i])] for e in tower.steps[i - 1]])
    return tuple(r[0] for r in J.matmul(RM([[x] for x in v])).rows)


def test_thread_on_a_nonlinear_tower():
    T = _nonlinear_tower()
    th = pfd.Thread(T, [(Q(9, 4),), (Q(3, 2), Q(3)), (Q(1, 2), Q(3))])
    assert th.points == [(Q(9, 4),), (Q(3, 2), Q(3)), (Q(1, 2), Q(3))]
    with pytest.raises(pfd.ThreadError, match="^incompatible extension at level 1"):
        pfd.Thread(T, [(Q(3, 2),), (Q(3, 2), Q(3))])
    with pytest.raises(pfd.ThreadError, match="^incompatible extension at level 2"):
        pfd.Thread(T, [(Q(9, 4),), (Q(3, 2), Q(3)), (Q(1, 2), Q(2))])


def test_tangent_thread_on_a_nonlinear_tower_is_the_jacobian_product():
    T = _nonlinear_tower()
    rng = random.Random(5)
    for _ in range(10):
        p2 = tuple(sx.random_rational(rng, 5) for _ in range(2))
        p1 = (p2[0] * p2[1], p2[1])
        th = pfd.Thread(T, [(p1[0] ** 2,), p1, p2])
        v2 = tuple(sx.random_rational(rng, 5) for _ in range(2))
        v1 = _step_jacobian_image(T, 2, p2, v2)
        v0 = _step_jacobian_image(T, 1, p1, v1)
        assert v1 == (p2[1] * v2[0] + p2[0] * v2[1], v2[1])
        pfd.TangentThread(th, [v0, v1, v2])
        with pytest.raises(pfd.ThreadError, match="^tangent vectors incompatible at level 1"):
            pfd.TangentThread(th, [(v0[0] + 1,), v1, v2])
        with pytest.raises(pfd.ThreadError, match="^tangent vectors incompatible at level 2"):
            pfd.TangentThread(th, [v0, (v1[0], v1[1] + 1), v2])


@pytest.mark.parametrize("vectors, level", [
    # a long top vector was a "shape mismatch" of the Jacobian product
    ([(Q(0),), (Q(0), Q(0)), (Q(0), Q(0), Q(0))], 2),
    ([(Q(0),), (Q(0),)], 1),
    # a level-0 vector was checked only against a level-1 one
    ([(Q(0), Q(0))], 0),
], ids=["long", "short", "level_0"])
def test_tangent_thread_refuses_a_vector_of_the_wrong_dimension(vectors, level):
    th = pfd.Thread(_nonlinear_tower(), [(Q(0),), (Q(0), Q(0)), (Q(0), Q(0))])
    with pytest.raises(pfd.ThreadError, match="^tangent vector has wrong dimension for level %d$" % level):
        pfd.TangentThread(th, vectors)


def _criterion_08_tower(rng):
    # the towers of tests/test_acceptance.py::test_criterion_08_tensor_tower_splitting
    dims = sorted(rng.randint(1, 6) for _ in range(5))
    steps = []
    for i in range(4):
        while True:
            M = RM([[Q(rng.randint(-3, 3)) for _ in range(dims[i + 1])]
                    for _ in range(dims[i])])
            if M.rank() == dims[i]:
                steps.append(M)
                break
    return pfd.LinearTower(dims, steps)


def _tower_pairs():
    rng = random.Random(88)
    pairs = [(_criterion_08_tower(rng), _criterion_08_tower(rng)) for _ in range(3)]
    # a level of dimension 0, below a 1x2 step whose second column is free
    V = pfd.LinearTower([0, 1, 2], [RM.from_int_rows([], [], range(1)), RM([[Q(2), Q(0)]])])
    W = pfd.LinearTower([1, 2, 2], [RM([[Q(1), Q(-1)]]), RM([[Q(1), Q(1, 2)], [Q(0), Q(3)]])])
    return pairs + [(V, W), (W, V)]


@pytest.mark.parametrize("pair", range(5))
def test_tensor_tower_eliminates_no_tensor_step(pair, monkeypatch):
    V, W = _tower_pairs()[pair]
    calls = []
    real = sp.Echelon.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(sp.Echelon, "__init__", counting)
    res = pfd.tensor_tower(V, W)
    assert calls == []
    monkeypatch.undo()
    # the same as the splittings of the tensor tower built by elimination
    T = pfd.LinearTower(res.tensor.dims, res.tensor.steps)
    assert T.dims == [a * b for a, b in zip(V.dims, W.dims)]
    assert T.steps == [pfd.kron(a, b) for a, b in zip(V.steps, W.steps)]
    for got, want in zip(res.tensor.echelons, T.echelons):
        assert (got.pivots, got.free, got.rank) == (want.pivots, want.free, want.rank)
    sV, sW, sT = pfd.tower_splitting(V), pfd.tower_splitting(W), pfd.tower_splitting(T)
    for got, want in ((res.left, sV), (res.right, sW), (res.diagonal, sT)):
        assert got.lifts == want.lifts
        assert got.sections == want.sections
        assert got.kernel_bases == want.kernel_bases
    assert res.left.tower is V and res.right.tower is W and res.diagonal.tower is res.tensor
    assert sV.verify() and sW.verify() and sT.verify()
    assert res.identities_hold is True and res.dim_identity_holds is True
    assert [sum(sV.tilde_dim(i) * sW.tilde_dim(j) for i in range(k + 1) for j in range(k + 1))
            for k in range(T.length)] == T.dims
