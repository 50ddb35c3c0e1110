"""Compiled evaluation batches against one-by-one evaluation.

`symexpr.Batch` compiles a fixed list of expressions once into one
integer table and reads each variable at its slot position; every exact
evaluation runs one.  A batch compiled once and evaluated at several
points must give the values, and the first error (type and message),
of `evaluate` on each expression alone and of `evaluate_many`, with a
variable that has no slot met in its turn.  A batch that keeps the last
value of each quotient must give, at every point of a sequence, what a
batch compiled afresh gives there.
"""

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from jetforge import symexpr as sx
from jetforge.mindex import MultiIndex
from jetforge.symexpr import BaseVar, EvalZeroDivision, EvaluationError, JetVar, ParamVar

X1, X2 = BaseVar(1), BaseVar(2)
U = [JetVar(1, MultiIndex(I)) for I in ((0, 0), (1, 0), (0, 1))]
A = ParamVar("a")
VARS = [X1, X2] + U + [A]
VALUES = st.sampled_from([Q(0), Q(0), Q(1), Q(-1), Q(2), Q(1, 3), Q(-5, 2)])
COEFS = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4)])


# quotients written nested over x1, x2, u[0]; `inverse` clears each to
# one quotient, 1/(1 + 1/x1) to x1/(1 + x1)
NESTED = [sx.inverse(1 + sx.inverse(sx.base(1))),
          sx.inverse(sx.base(2) + sx.inverse(sx.base(1) - sx.Expr.variable(U[0])))]
ZERO_DIVISION = (EvalZeroDivision, "division by zero while evaluating a quotient")


@st.composite
def batches(draw, nested=()):
    """Expressions over variables and quotients, with shared objects,
    zero and constants among them."""
    pool = [sx.Expr.variable(v) for v in VARS]
    pool.append(sx.inverse(sx.base(1) - sx.base(2)))
    pool.append(sx.inverse(sx.base(1) + sx.Expr.variable(U[0])))
    pool.extend(nested)
    made = []
    for _ in range(draw(st.integers(1, 4))):
        e = sx.ZERO
        for _ in range(draw(st.integers(0, 3))):
            term = sx.Expr.const(draw(COEFS))
            for _ in range(draw(st.integers(0, 3))):
                term = term * draw(st.sampled_from(pool))
            e = e + term
        made.append(e)
    extras = [sx.ZERO, sx.Expr.const(Q(-7, 3))]
    picks = st.sampled_from(made + extras)
    return [draw(picks) for _ in range(draw(st.integers(1, 8)))]


@st.composite
def points(draw):
    """Values for the variables, now and then one left out."""
    out = {v: draw(VALUES) for v in VARS}
    if draw(st.integers(0, 3)) == 0:
        del out[draw(st.sampled_from(VARS))]
    return out


@st.composite
def point_pairs(draw):
    """Two points that assign the same variables."""
    first = draw(points())
    return first, {v: draw(VALUES) for v in first}


@st.composite
def walks(draw):
    """Points in turn whose quotient inputs x1, x2, u[0] are taken from
    a pool of at most three, so that they repeat, alternate and change,
    while the other variables are drawn afresh; now and then every
    point leaves out the same variable."""
    pool = draw(st.lists(st.tuples(VALUES, VALUES, VALUES), min_size=1, max_size=3))
    left_out = draw(st.sampled_from([None, None, None, X1, U[0], A]))
    walk = []
    for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=8)):
        point = dict(zip((X1, X2, U[0]), pool[i]))
        point.update({v: draw(VALUES) for v in (U[1], U[2], A)})
        point.pop(left_out, None)
        walk.append(point)
    return walk


def _slotted(exprs, point):
    """The batch of exprs with a slot for each variable of point, in
    VARS order, and the values of point in slot order."""
    order = [v for v in VARS if v in point]
    return sx.Batch(exprs, {v: pos for pos, v in enumerate(order)}), [point[v] for v in order]


def _outcome(fn):
    """The values of fn(), or the type and message of its evaluation error."""
    try:
        return fn()
    except EvaluationError as err:
        return type(err), str(err)


def _one_by_one(exprs, point):
    return _outcome(lambda: [sx.evaluate(e, point) for e in exprs])


@settings(max_examples=150, deadline=None)
@given(batches(), point_pairs())
def test_one_batch_at_two_points_equals_one_by_one(exprs, pair):
    first, second = pair
    batch, _ = _slotted(exprs, first)
    assert len(batch.entries) == len(exprs)
    for point in (first, second, first):
        _, values = _slotted(exprs, point)
        assert _outcome(lambda: batch.at(values)) == _one_by_one(exprs, point)
        assert _outcome(lambda: sx.evaluate_many(exprs, point)) == _one_by_one(exprs, point)


@settings(max_examples=150, deadline=None)
@given(batches(), points(), points())
def test_slot_reading_equals_assignment_reading(exprs, first, second):
    # slots for the variables the first point assigns; the rest are
    # evaluated in their turn, and a variable there raises
    order = [v for v in VARS if v in first]
    batch, _ = _slotted(exprs, first)
    for point in (first, second):
        values = [point.get(v, Q(0)) for v in order]
        reads = dict(zip(order, values))
        assert (_outcome(lambda: batch.at(values))
                == _outcome(lambda: sx.evaluate_many(exprs, reads))
                == _one_by_one(exprs, reads))


@settings(max_examples=150, deadline=None)
@given(batches(NESTED), walks())
def test_kept_quotient_values_equal_a_fresh_batch_at_every_point(exprs, walk):
    batch, _ = _slotted(exprs, walk[0])
    for point in walk:
        fresh, values = _slotted(exprs, point)
        assert _outcome(lambda: batch.at(values)) == _outcome(lambda: fresh.at(values))


def test_a_nested_quotient_keys_its_value_on_the_inputs_it_reads(monkeypatch):
    computed = []
    exact = sx._exact_compound

    def counting(a, inner):
        computed.append(a)
        return exact(a, inner)

    monkeypatch.setattr(sx, "_exact_compound", counting)
    batch = sx.Batch([NESTED[0] * sx.base(2)], {X1: 0, X2: 1})
    (_, _, inner), = batch.special
    assert inner.inputs == (0,) and batch.inputs == (0, 1)
    assert batch.at([Q(1), Q(3)]) == [Q(3, 2)]
    assert len(computed) == 1 and inner.memo == ([Q(1)], Q(1, 2))
    # x2 changes, x1 does not: the quotient is not computed again
    assert batch.at([Q(1), Q(5)]) == [Q(5, 2)]
    assert len(computed) == 1
    assert batch.at([Q(2), Q(5)]) == [Q(10, 3)]
    assert len(computed) == 2 and inner.memo == ([Q(2)], Q(1, 3))
    for _ in range(2):
        assert _outcome(lambda: batch.at([Q(-1), Q(5)])) == ZERO_DIVISION
    assert inner.memo == ([Q(2)], Q(1, 3))
    # a quotient in a primitive's argument: the primitive has no exact
    # value, the quotient keeps its own, and the argument batch reads
    # the quotient's inputs
    batch = sx.Batch([sx.prim("exp", sx.inverse(1 + sx.base(1))) * sx.base(2)], {X1: 0, X2: 1})
    (_, _, arg), = batch.special
    (_, _, payload), = arg.special
    assert arg.read == () and arg.inputs == payload.inputs == (0,)
    transcendental = (EvaluationError, "exact evaluation of transcendental primitive 'exp'")
    for x1, want in ((Q(1), transcendental), (Q(-1), ZERO_DIVISION), (Q(1), transcendental)):
        del computed[:]
        assert _outcome(lambda: batch.at([x1, Q(5)])) == want
    assert computed == [batch.atoms[1]]
    assert arg.memo is None and payload.memo == ([Q(1)], Q(1, 2))


def test_an_argument_that_fails_raises_at_every_call():
    q = sx.inverse(sx.base(1) - sx.base(2))
    batch = sx.Batch([q], {X1: 0, X2: 1})
    assert batch.at([Q(3), Q(1)]) == [Q(1, 2)]
    # a zero argument after a value kept under another key
    for _ in range(2):
        assert _outcome(lambda: batch.at([Q(3), Q(3)])) == ZERO_DIVISION
    assert batch.at([Q(3), Q(1)]) == [Q(1, 2)]
    # an exact primitive, and an argument with an unassigned variable
    for e, message in ((sx.prim("sin", sx.base(1)), "exact evaluation of transcendental "
                        "primitive 'sin'"),
                       (sx.inverse(sx.base(1) + sx.Expr.variable(A)), "no value assigned to a")):
        batch = sx.Batch([e], {X1: 0})
        for _ in range(2):
            assert _outcome(lambda: batch.at([Q(1)])) == (EvaluationError, message)
        assert batch.special[0][2].memo is None


def test_repeated_objects_each_get_an_entry():
    e = sx.base(1) * sx.base(2) + 1
    exprs = [e, sx.ZERO, e, sx.ZERO, sx.as_expr(3), e]
    batch = sx.Batch(exprs, {X1: 0, X2: 1})
    assert len(batch.entries) == len(exprs)
    assert not hasattr(batch, "out")
    # the repeats add no atom or power
    assert batch.atoms == (X1, X2) and len(batch.powers) == 2
    assert batch.at([Q(2), Q(1, 2)]) == [2, 0, 2, 0, 3, 2]
    assert sx.Batch([sx.ZERO, sx.as_expr(Q(1, 2))], {}).at([]) == [0, Q(1, 2)]


def test_first_error_is_met_in_turn():
    q = sx.inverse(sx.base(1) - sx.base(2))
    exprs = [sx.base(1) + 1, q * sx.base(1), sx.Expr.variable(A)]
    point = {X1: Q(3), X2: Q(3)}
    want = (EvalZeroDivision, "division by zero while evaluating a quotient")
    assert _outcome(lambda: sx.evaluate_many(exprs, point)) == want
    assert _outcome(lambda: sx.Batch(exprs, {X1: 0, X2: 1}).at([Q(3), Q(3)])) == want
    # the unassigned variable comes first once the quotient is fine
    want = (EvaluationError, "no value assigned to a")
    assert _outcome(lambda: sx.evaluate_many(exprs, {X1: Q(3), X2: Q(1)})) == want
    assert _outcome(lambda: sx.Batch(exprs, {X1: 0, X2: 1}).at([Q(3), Q(1)])) == want
    assert _one_by_one(exprs, {X1: Q(3), X2: Q(1)}) == want
    # with no slots at all every atom is met in its turn
    want = (EvaluationError, "no value assigned to x1")
    assert _outcome(lambda: sx.Batch(exprs, {}).at([])) == want


def test_batch_of_degrees_3000_and_0_matches_a_per_term_reference():
    # the entries use the powers D^e of the common denominator only at
    # e = 0, 1499, 2999 and 3000, far apart
    x1, x2 = sx.base(1), sx.base(2)
    exprs = [x1 ** 3000 - 2 * x1 ** 1500 * x2 + x2 * Q(1, 3) - 5, sx.Expr.const(Q(7, 2))]
    values = {X1: Q(3, 2), X2: Q(-5, 7)}
    want = [sum((c * _term_value(mono, values) for mono, c in e.terms()), Q(0))
            for e in exprs]
    assert sx.Batch(exprs, {X1: 0, X2: 1}).at([values[X1], values[X2]]) == want
    assert want[1] == Q(7, 2)


def _term_value(mono, values):
    out = Q(1)
    for v, exp in mono:
        out *= values[v] ** exp
    return out
