"""Expression evaluation and calculus against independent references.

Batched evaluation (`evaluate_many`) must agree with evaluating each
expression alone, values and errors alike, in exact and float mode,
and with a plain recursive evaluator written here.  Exact evaluation
runs over integers (one common denominator per point, one table
compiled per call), so it is also checked against the plain per-term
loop over `Fraction`, and float mode against the same loop over floats,
bit for bit.  `differentiate`, `total_derivative` and `substitute` are
checked against sympy over QQ on random polynomials and quotients;
sympy is a test-only oracle and jetforge never imports it.  Operator
plans differentiate once and reuse the result at every point, so a
wrong derivative would be wrong everywhere.
"""

import math
import os
from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetforge import cli
from jetforge import jetcalc as jc
from jetforge import symexpr as sx
from jetforge.mindex import MultiIndex
from jetforge.symexpr import (
    BaseVar,
    EvalZeroDivision,
    EvaluationError,
    JetVar,
    ParamVar,
    PrimCall,
    Recip,
)

X1, X2 = BaseVar(1), BaseVar(2)
U = [JetVar(1, MultiIndex(I)) for I in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1))]
A = ParamVar("a")
VARS = [X1, X2, A] + U
COEFS = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4), Q(5, 3)])
# zeros are frequent, so quotient payloads vanish in some draws
VALUES = st.sampled_from([Q(0), Q(0), Q(1), Q(-1), Q(2), Q(1, 3), Q(-5, 2)])


@st.composite
def polynomials(draw, variables, max_terms=4, max_degree=3, coefs=COEFS):
    e = sx.ZERO
    for _ in range(draw(st.integers(0, max_terms))):
        term = sx.Expr.const(draw(coefs))
        for _ in range(draw(st.integers(0, max_degree))):
            term = term * sx.Expr.variable(draw(st.sampled_from(variables)))
        e = e + term
    return e


@st.composite
def factor_pools(draw):
    """Variables plus up to two quotients by base-variable polynomials
    and, sometimes, a sine: the factors expressions are built from."""
    pool = [sx.Expr.variable(v) for v in VARS]
    for _ in range(draw(st.integers(0, 2))):
        payload = draw(polynomials([X1, X2], max_terms=3, max_degree=2))
        if not payload.is_constant():
            pool.append(sx.inverse(payload))
    if draw(st.booleans()):
        pool.append(sx.prim("sin", draw(polynomials([X1, A], max_terms=2, max_degree=1))))
    return pool


@st.composite
def expression_batches(draw):
    pool = draw(factor_pools())
    batch = []
    for _ in range(draw(st.integers(1, 5))):
        e = sx.ZERO
        for _ in range(draw(st.integers(0, 3))):
            term = sx.Expr.const(draw(COEFS))
            for _ in range(draw(st.integers(0, 3))):
                term = term * draw(st.sampled_from(pool))
            e = e + term
        batch.append(e)
    return batch


@st.composite
def assignments(draw):
    """Values for every variable, except one left out now and then."""
    out = {v: draw(VALUES) for v in VARS}
    if draw(st.integers(0, 4)) == 0:
        del out[draw(st.sampled_from(VARS))]
    return out


def _naive(e, assignment):
    """Exact per-term, per-atom evaluation with no memo; quotient
    payloads are evaluated again at every occurrence."""
    total = Q(0)
    for mono, c in e.terms():
        val = c
        for a, exp in mono:
            val = val * _naive_atom(a, assignment) ** exp
        total = total + val
    return total


def _naive_atom(a, assignment):
    if isinstance(a, PrimCall):
        _naive(a.arg, assignment)
        raise EvaluationError("transcendental")
    if isinstance(a, Recip):
        inner = _naive(a.payload, assignment)
        if inner == 0:
            raise EvalZeroDivision("zero payload")
        return 1 / inner
    if a not in assignment:
        raise EvaluationError("unassigned")
    return Q(assignment[a])


def _outcome(fn):
    """The value of fn(), or the type of the evaluation error it raised."""
    try:
        return fn()
    except EvaluationError as err:
        return type(err)


def _one_by_one(batch, assignment, exact):
    return _outcome(lambda: [sx.evaluate(e, assignment, exact=exact) for e in batch])


def _batched(batch, assignment, exact):
    return _outcome(lambda: sx.evaluate_many(batch, assignment, exact=exact))


@settings(max_examples=150, deadline=None)
@given(expression_batches(), assignments(), st.booleans())
def test_batched_evaluation_agrees_with_one_by_one(batch, assignment, exact):
    before = dict(assignment)
    got = _batched(batch, assignment, exact)
    assert got == _one_by_one(batch, assignment, exact)
    assert assignment == before
    if not exact:
        return
    # exact values do not depend on the order of terms, so the plain
    # evaluator must give them too
    naive = _outcome(lambda: [_naive(e, assignment) for e in batch])
    if isinstance(got, list):
        assert got == naive
    else:
        # term order may decide which of two faults is met first
        assert isinstance(naive, type) and issubclass(naive, EvaluationError)


@settings(max_examples=100, deadline=None)
@given(expression_batches(), assignments(), assignments(), st.booleans())
def test_batched_values_never_leak_between_calls(batch, first, second, exact):
    _batched(batch, first, exact)
    assert _batched(batch, second, exact) == _one_by_one(batch, second, exact)
    # each expression of a batch alone, after the batch, is unaffected too
    for e in batch:
        assert _batched([e], second, exact) == _outcome(
            lambda: [sx.evaluate(e, second, exact=exact)])


def test_batched_quotient_with_vanishing_payload_raises():
    q = sx.inverse(sx.base(1) - sx.base(2))
    batch = [sx.base(1) + 1, q * sx.base(1), q]
    point = {X1: Q(3), X2: Q(3)}
    for exact in (True, False):
        assert _batched(batch, point, exact) is EvalZeroDivision
        assert _batched(batch[:1], point, exact) == [4]
    # the same quotient off the diagonal is fine, and its value is not
    # carried over from the failed call
    assert sx.evaluate_many(batch, {X1: Q(3), X2: Q(1)}) == [4, Q(3, 2), Q(1, 2)]


def test_batched_primitive_needs_float_mode():
    batch = [sx.base(1), sx.prim("sin", sx.base(1)) + 1]
    point = {X1: Q(0)}
    assert _batched(batch, point, True) is EvaluationError
    assert sx.evaluate_many(batch, point, exact=False) == [0.0, 1.0]


def test_batched_unassigned_variable_raises():
    batch = [sx.base(1), sx.base(1) * sx.base(2)]
    assert _batched(batch, {X1: Q(1)}, True) is EvaluationError
    assert _batched(batch, {X1: Q(1)}, False) is EvaluationError
    assert sx.evaluate_many(batch[:1], {X1: Q(1)}) == [1]


def test_batched_shared_atoms_take_each_assignment_anew():
    q = sx.inverse(sx.base(1) ** 2 + 1)
    batch = [q, q * sx.base(1), q ** 2]
    assert sx.evaluate_many(batch, {X1: Q(1)}) == [Q(1, 2), Q(1, 2), Q(1, 4)]
    assert sx.evaluate_many(batch, {X1: Q(2)}) == [Q(1, 5), Q(2, 5), Q(1, 25)]
    assert sx.evaluate_many([], {X1: Q(2)}) == []


# ---------------------------------------------------------------------------
# the integer kernel against the plain per-term loop

# large numerators and denominators next to small ones, so the common
# denominator of a point mixes factors of very different sizes
BIG = st.builds(Q, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 25))
MIXED = st.one_of(VALUES, BIG)
# values of one size, so float sums round differently in another order
MODERATE = st.builds(Q, st.integers(-50, 50), st.integers(1, 13))
BIG_COEFS = st.one_of(
    COEFS, st.builds(Q, st.integers(1, 10 ** 15), st.integers(1, 10 ** 12)),
    st.builds(Q, st.integers(-10 ** 15, -1), st.integers(1, 10 ** 12)))


def _plain(e, assignment, exact=True):
    """One Fraction (or float) operation per multiply and add, terms in
    stored order, atoms evaluated again at each occurrence."""
    total = Q(0) if exact else 0.0
    for mono, c in e._terms.items():
        val = c if exact else float(c)
        for a, k in mono:
            x = _plain_atom(a, assignment, exact)
            val = val * (x if k == 1 else x ** k)
        total = total + val
    return total


def _plain_atom(a, assignment, exact):
    if isinstance(a, PrimCall):
        inner = _plain(a.arg, assignment, exact)
        if exact:
            raise EvaluationError("transcendental")
        return {"sin": math.sin, "cos": math.cos, "exp": math.exp}[a.name](inner)
    if isinstance(a, Recip):
        inner = _plain(a.payload, assignment, exact)
        if inner == 0:
            raise EvalZeroDivision("zero payload")
        return 1 / inner if exact else 1.0 / inner
    if a not in assignment:
        raise EvaluationError("unassigned")
    return Q(assignment[a]) if exact else float(assignment[a])


def _float_outcome(fn):
    """Floats by their bits (hex), or the type of the error raised."""
    try:
        return [x.hex() for x in fn()]
    except (EvaluationError, OverflowError) as err:
        return type(err)


@st.composite
def wide_batches(draw):
    """Expressions over one shared pool of factors (variables, up to
    two quotients with large coefficients, sometimes a sine) raised to
    exponents up to 6, with the zero and a constant expression mixed in
    now and then."""
    pool = [sx.Expr.variable(v) for v in VARS]
    for _ in range(draw(st.integers(0, 2))):
        payload = draw(polynomials([X1, X2, A], max_terms=3, max_degree=2, coefs=BIG_COEFS))
        if not payload.is_constant():
            pool.append(sx.inverse(payload))
    if draw(st.booleans()):
        pool.append(sx.prim("sin", draw(polynomials([X1, A], max_terms=2, max_degree=1))))
    batch = []
    for _ in range(draw(st.integers(1, 5))):
        e = sx.ZERO
        for _ in range(draw(st.integers(0, 4))):
            term = sx.Expr.const(draw(BIG_COEFS))
            for _ in range(draw(st.integers(0, 3))):
                term = term * draw(st.sampled_from(pool)) ** draw(st.integers(1, 6))
            e = e + term
        batch.append(e)
    if draw(st.booleans()):
        batch.insert(draw(st.integers(0, len(batch))), sx.ZERO)
    if draw(st.booleans()):
        batch.insert(draw(st.integers(0, len(batch))), sx.Expr.const(draw(BIG_COEFS)))
    return batch


@st.composite
def mixed_points(draw, values=MIXED):
    out = {v: draw(values) for v in VARS}
    if draw(st.integers(0, 4)) == 0:
        del out[draw(st.sampled_from(VARS))]
    return out


def _fresh(e):
    """An equal expression that has not been evaluated yet."""
    return sx._wrap(dict(e._terms))


def _looks(batch):
    return [(str(e), hash(e), e.terms(), list(e._terms.items())) for e in batch]


@settings(max_examples=200, deadline=None)
@given(wide_batches(), mixed_points())
def test_exact_kernel_matches_the_plain_fraction_loop(batch, point):
    looks = _looks(batch)
    want = _outcome(lambda: [_plain(e, point) for e in batch])
    assert _batched(batch, point, True) == want
    assert _one_by_one(batch, point, True) == want
    # compiling a table changes nothing an expression shows
    assert _looks(batch) == looks
    assert all(e == _fresh(e) and hash(e) == hash(_fresh(e)) for e in batch)


@settings(max_examples=100, deadline=None)
@given(wide_batches(), mixed_points(), mixed_points())
def test_cached_tables_do_not_depend_on_the_point(batch, first, second):
    assert _batched(batch, first, True) == _outcome(lambda: [_plain(e, first) for e in batch])
    want = _outcome(lambda: [_plain(e, second) for e in batch])
    assert _batched(batch, second, True) == want
    assert _batched([_fresh(e) for e in batch], second, True) == want


def test_one_expression_at_two_common_denominators():
    q = sx.inverse(sx.base(1) + sx.base(2))
    e = sx.base(1) ** 6 / 3 + q * sx.base(2) ** 2 - 5
    integral = {X1: Q(2), X2: Q(3)}
    huge = {X1: Q(1, 7), X2: Q(-5, 10 ** 20 + 1)}
    for point in (integral, huge, integral):
        assert sx.evaluate(e, point) == _plain(e, point)
    assert sx.evaluate(e, integral) == Q(64, 3) + Q(9, 5) - 5
    assert sx.evaluate_many([sx.ZERO, sx.Expr.const(Q(-7, 9))], huge) == [0, Q(-7, 9)]


FAULTS = {
    # (factor, error type, part of its message): a quotient whose
    # payload vanishes at the point, a variable the point leaves out,
    # a transcendental primitive in exact mode
    "zero payload": (sx.inverse(sx.param("a") - 3), EvalZeroDivision, "division by zero"),
    "unassigned": (sx.jet(1, (1, 1)), EvaluationError, "no value assigned to u[(1,1)]"),
    "primitive": (sx.prim("sin", sx.base(1)), EvaluationError, "primitive 'sin'"),
}


def _error(fn):
    try:
        fn()
    except EvaluationError as err:
        return type(err), str(err)
    return None


@settings(max_examples=100, deadline=None)
@given(st.lists(polynomials(U[:4] + [X1, X2], coefs=BIG_COEFS), min_size=1, max_size=4),
       st.permutations(list(FAULTS)), st.integers(1, 3), st.data())
def test_first_fault_in_a_later_expression_decides_the_error(clean, kinds, nfaults, data):
    q = sx.inverse(sx.base(1) ** 2 + 1)
    clean = [e * q + c for e, c in zip(clean, [1, -2, Q(1, 3), 7])]
    # the first faulty expression meets its faults in the order of
    # `kinds`; each one after it holds one of the other kinds
    faulty = [clean[-1] + sx.sum_times_atoms(
        [(None, FAULTS[k][0] * clean[0]) for k in kinds[:nfaults]])]
    faulty += [clean[0] + FAULTS[k][0] * clean[0] for k in kinds[1:]]
    point = {v: data.draw(MIXED) for v in [X1, X2] + U[:4]}
    point[A] = Q(3)
    batch = clean + faulty
    _, kind, text = FAULTS[kinds[0]]
    got = _error(lambda: sx.evaluate_many(batch, point))
    assert got[0] is kind and text in got[1]
    assert got == _error(lambda: [sx.evaluate(e, point) for e in batch])
    assert _outcome(lambda: [_plain(e, point) for e in batch]) is kind
    # the expressions before the faulty ones have the loop's values
    assert sx.evaluate_many(clean, point) == [_plain(e, point) for e in clean]


# ---------------------------------------------------------------------------
# the kernel at points where atoms vanish: terms holding a zero-valued
# atom are skipped, and must be worth nothing

NONZERO = st.one_of(st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 3), Q(-5, 2)]),
                    st.builds(Q, st.integers(1, 10 ** 30), st.integers(1, 10 ** 20)),
                    st.builds(Q, st.integers(-10 ** 30, -1), st.integers(1, 10 ** 20)))
SLOTS = {v: pos for pos, v in enumerate(VARS)}


@st.composite
def quotient_polynomials(draw):
    """Rational polynomials over the variables and up to two quotients
    by polynomials in x1, x2, a, each factor raised to up to 4."""
    pool = [sx.Expr.variable(v) for v in VARS]
    for _ in range(draw(st.integers(0, 2))):
        payload = draw(polynomials([X1, X2, A], max_terms=3, max_degree=2, coefs=BIG_COEFS))
        if not payload.is_constant():
            pool.append(sx.inverse(payload))
    batch = []
    for _ in range(draw(st.integers(1, 5))):
        e = sx.ZERO
        for _ in range(draw(st.integers(0, 5))):
            term = sx.Expr.const(draw(BIG_COEFS))
            for _ in range(draw(st.integers(0, 4))):
                term = term * draw(st.sampled_from(pool)) ** draw(st.integers(1, 4))
            e = e + term
        batch.append(e)
    return batch


@st.composite
def points_with_zeros(draw):
    """Every variable assigned: a random subset of them 0, the rest not."""
    zero = draw(st.sets(st.sampled_from(VARS)))
    return {v: Q(0) if v in zero else draw(NONZERO) for v in VARS}


def _zero_at(*zero):
    return {v: Q(0) if v in zero else Q(2) for v in VARS}


X1E, X2E, AE = sx.base(1), sx.base(2), sx.param("a")


@settings(max_examples=200, deadline=None)
@given(quotient_polynomials(), points_with_zeros())
@example([X1E * X2E + 3, sx.Expr.variable(U[0]) ** 2 * AE - Q(1, 2)], _zero_at(*VARS))
@example([X1E ** 3 * X2E + X2E ** 2 - X1E ** 4, X1E ** 2], _zero_at(X1))
@example([X1E * sx.inverse(X2E + 1) + AE, sx.inverse(X2E + 1) ** 2 * X1E], _zero_at(X1))
@example([AE + 1, X1E * sx.inverse(X2E - AE)], _zero_at(X1, X2, A))
def test_kernel_at_zero_atoms_matches_the_plain_fraction_loop(batch, point):
    want = _outcome(lambda: [_plain(e, point) for e in batch])
    at = lambda: sx.Batch(batch, SLOTS).at([point[v] for v in VARS])
    many = lambda: sx.evaluate_many(batch, point)
    if isinstance(want, list):
        assert at() == many() == [sx.evaluate(e, point) for e in batch] == want
    else:
        # a vanishing payload raises though its term holds a zero factor
        assert want is EvalZeroDivision
        assert _error(at) == _error(many) == (
            EvalZeroDivision, "division by zero while evaluating a quotient")


@settings(max_examples=150, deadline=None)
@given(wide_batches(), st.one_of(mixed_points(), mixed_points(MODERATE)))
# any other order of the terms rounds this sum differently
@example([sx.base(1) + sx.base(2) + Q(1, 10 ** 17)], {X1: Q(1), X2: Q(-1)})
def test_float_mode_is_the_plain_float_loop_bit_for_bit(batch, point):
    want = _float_outcome(lambda: [_plain(e, point, False) for e in batch])
    assert _float_outcome(lambda: sx.evaluate_many(batch, point, exact=False)) == want
    assert _float_outcome(lambda: [sx.evaluate(e, point, exact=False) for e in batch]) == want


# ---------------------------------------------------------------------------
# calculus against sympy


def _symbol(v):
    if isinstance(v, BaseVar):
        return sympy.Symbol("x%d" % v.i)
    if isinstance(v, ParamVar):
        return sympy.Symbol(v.name)
    return sympy.Symbol("u%d_%s" % (v.alpha, "_".join(map(str, v.index))))


def _to_sympy(e):
    out = sympy.Integer(0)
    for mono, c in e.terms():
        term = sympy.Rational(c.numerator, c.denominator)
        for a, exp in mono:
            base = 1 / _to_sympy(a.payload) if isinstance(a, Recip) else _symbol(a)
            term = term * base ** exp
        out = out + term
    return out


def _same(ours, theirs):
    # over one denominator the difference is zero iff its numerator
    # expands to zero; `cancel` alone can leave an unevaluated
    # -1/8 + 1/8 (sympy 1.14, difference of 2 + (x1 + 1/2)^3 and its
    # expansion)
    return sympy.expand(sympy.numer(sympy.together(_to_sympy(ours) - theirs))) == 0


def _sympy_total_derivative(e, i):
    # D_i = d/dx_i + sum over jet coordinates u^alpha_I of
    # u^alpha_{I + 1_i} d/du^alpha_I
    f = _to_sympy(e)
    out = sympy.diff(f, _symbol(BaseVar(i)))
    for v in e.free_vars():
        if isinstance(v, JetVar):
            up = JetVar(v.alpha, v.index.add_unit(i))
            out = out + _symbol(up) * sympy.diff(f, _symbol(v))
    return out


RING = polynomials(VARS, max_terms=3, max_degree=2)


@settings(max_examples=80, deadline=None)
@given(RING, RING, RING)
@example(sx.base(1) - sx.jet(1, (0, 0)), sx.base(1) + sx.jet(1, (0, 0)), sx.ZERO)
def test_expr_ring_axioms(a, b, c):
    # the sums and products below build equal values with their terms
    # inserted in different orders; == and hash must not see the order
    pairs = [
        (a + b, b + a), (a * b, b * a),
        ((a + b) + c, a + (b + c)), ((a * b) * c, a * (b * c)),
        (a * (b + c), a * b + a * c), ((a + b) * c, a * c + b * c),
        (a - a, sx.ZERO), (a + sx.ZERO, a), (sx.ZERO + a, a),
        (a * sx.ONE, a), (sx.ONE * a, a), (a * sx.ZERO, sx.ZERO), (-(-a), a),
    ]
    for left, right in pairs:
        assert left == right, (left, right)
        assert hash(left) == hash(right), (left, right)
        assert len({left, right}) == 1
    assert (a - a).is_zero() and a != a + sx.ONE
    # values that happen to be equal hash alike too
    for x, y in ((a, b), (a * b, a + b), (a * b, c)):
        if x == y:
            assert hash(x) == hash(y)


@st.composite
def rational_expressions(draw):
    """A polynomial plus, half the time, a polynomial over a base-only
    payload, as in the operators built from a metric inverse."""
    e = draw(polynomials(VARS))
    if draw(st.booleans()):
        payload = draw(polynomials([X1, X2], max_terms=3, max_degree=2))
        if not payload.is_constant():
            e = e + draw(polynomials(VARS, max_terms=2)) * sx.inverse(payload) ** draw(
                st.integers(1, 2))
    return e


@settings(max_examples=60, deadline=None)
@given(rational_expressions(), st.sampled_from(VARS))
@example(sx.base(1) ** 3 * sx.jet(1, (1, 0)) ** 2, X1)
def test_differentiate_matches_sympy(e, v):
    assert _same(sx.differentiate(e, v), sympy.diff(_to_sympy(e), _symbol(v)))


@settings(max_examples=60, deadline=None)
@given(rational_expressions(), st.sampled_from([1, 2]))
@example(sx.base(2) * sx.jet(1, (1, 1)) * sx.jet(1, (0, 0)), 2)
def test_total_derivative_matches_sympy(e, i):
    assert _same(jc.total_derivative(e, i), _sympy_total_derivative(e, i))


@settings(max_examples=40, deadline=None)
@given(rational_expressions(), st.sampled_from(VARS), polynomials([X1, X2, U[0]]))
def test_substitute_matches_sympy(e, v, replacement):
    # a substitution that zeroes a quotient payload has no value
    if any(isinstance(a, Recip) and sx.substitute(a.payload, {v: replacement}).is_zero()
           for mono, _ in e.terms() for a, _ in mono):
        return
    ours = sx.substitute(e, {v: replacement})
    assert _same(ours, _to_sympy(e).subs(_symbol(v), _to_sympy(replacement)))


# ---------------------------------------------------------------------------
# one-dict sums keep the terms and the order of repeated `+`


def _atom_derivative_reference(a, v):
    # the chain rule of one atom, through its own recursion rather than
    # the partials walk of the code under test
    if not isinstance(a, (Recip, PrimCall)):
        return sx.ONE if a == v else sx.ZERO
    if isinstance(a, Recip):
        r = sx.Expr.variable(a)
        return -_differentiate_by_repeated_add(a.payload, v) * r * r
    inner = _differentiate_by_repeated_add(a.arg, v)
    if inner.is_zero():
        return sx.ZERO
    rule = sx._REGISTRY[a.name].derivative
    if rule is None:
        raise sx.DifferentiationError("primitive %r has no registered derivative rule" % a.name)
    return rule(a.arg) * inner


def _differentiate_by_repeated_add(e, v):
    out = sx.ZERO
    for mono, c in e._terms.items():
        for idx, (a, exp) in enumerate(mono):
            da = _atom_derivative_reference(a, v)
            if da.is_zero():
                continue
            rest = list(mono)
            if exp == 1:
                rest.pop(idx)
            else:
                rest[idx] = (a, exp - 1)
            out = out + sx._wrap({tuple(rest): c * exp}) * da
    return out


def _total_derivative_by_repeated_add(e, i):
    out = sx.differentiate(e, BaseVar(i))
    for v in e.jet_vars():
        out = out + sx.Expr.variable(JetVar(v.alpha, v.index.add_unit(i))) * sx.differentiate(e, v)
    return out


def _items(e):
    return list(e._terms.items())


@settings(max_examples=100, deadline=None)
@given(rational_expressions(), st.sampled_from(VARS), st.sampled_from([1, 2]))
def test_derivative_sums_keep_the_order_of_repeated_addition(e, v, i):
    assert _items(sx.differentiate(e, v)) == _items(_differentiate_by_repeated_add(e, v))
    assert _items(jc.total_derivative(e, i)) == _items(_total_derivative_by_repeated_add(e, i))


@settings(max_examples=100, deadline=None)
@given(expression_batches(), st.data())
def test_sum_exprs_keeps_the_order_of_repeated_addition(batch, data):
    # negated copies make terms cancel and come back at the end
    batch = batch + [-e for e in data.draw(st.lists(st.sampled_from(batch), max_size=3))] + batch
    out = sx.ZERO
    for e in batch:
        out = out + e
    assert _items(sx.sum_times_atoms([(None, e) for e in batch])) == _items(out)


# ---------------------------------------------------------------------------
# one walk for every first partial keeps the terms and the order of
# differentiating by one variable at a time


def _total_derivative_reference(e, i):
    # built on the per-variable reference above, not on `differentiate`,
    # which shares the walk of `partials`
    out = _differentiate_by_repeated_add(e, BaseVar(i))
    for v in e.jet_vars():
        up = sx.Expr.variable(JetVar(v.alpha, v.index.add_unit(i)))
        out = out + up * _differentiate_by_repeated_add(e, v)
    return out


@settings(max_examples=100, deadline=None)
@given(rational_expressions(), st.sampled_from([1, 2]))
@example(sx.prim("sin", sx.base(1) * sx.jet(1, (1, 0))) * sx.jet(1, (0, 0)) ** 2
         + sx.inverse(sx.base(1) + sx.base(2)) * sx.jet(1, (0, 1)), 1)
def test_partials_keep_the_terms_and_order_of_one_variable_at_a_time(e, i):
    d = sx.partials(e, VARS)
    assert list(d) == VARS
    for v in VARS:
        assert _items(d[v]) == _items(_differentiate_by_repeated_add(e, v))
    assert _items(jc.total_derivative(e, i)) == _items(_total_derivative_reference(e, i))


def _reference_prolongation(h, l):
    # D_I h_beta = D_i D_{I - 1_i} h_beta with i the first positive axis,
    # the composition order of `prolong_op`, each D_i by the reference
    levels = {MultiIndex.zero(h.m): list(h.components)}
    out = []
    for I in jc.JetChartSpec(h.m, h.n, l).indices:
        if I.degree:
            i = next(ax + 1 for ax, e in enumerate(I) if e > 0)
            levels[I] = [_total_derivative_reference(c, i) for c in levels[I.sub_unit(i)]]
        out.extend(levels[I])
    return out


CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(CORPUS) if f.endswith(".jf")))
def test_corpus_prolongations_match_the_reference_term_for_term(name):
    with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
        h = cli.parse_problem_file(fh.read()).operator
    got = jc.prolong_op(h, 2).components
    want = _reference_prolongation(h, 2)
    assert list(got) == want
    assert [_items(c) for c in got] == [_items(c) for c in want]


def test_primitive_without_derivative_rule_fails_only_where_it_is_reached():
    # D_1 never differentiates the argument x2; D_2 does, and fails
    sx.register_primitive("norule")
    try:
        e = sx.prim("norule", sx.base(2)) * sx.jet(1, (1, 0)) + sx.jet(1, (0, 0)) ** 2
        d1 = jc.total_derivative(e, 1)
        assert sx.format_expr(d1) == "2*u[(0,0)]*u[(1,0)] + u[(2,0)]*norule(x2)"
        with pytest.raises(sx.DifferentiationError,
                           match="^primitive 'norule' has no registered derivative rule$"):
            jc.total_derivative(e, 2)
    finally:
        del sx._REGISTRY["norule"]
