import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetforge import symexpr as sx
from jetforge.symexpr import (
    BaseVar,
    EvalZeroDivision,
    Expr,
    ExprContext,
    ExprError,
    JetVar,
    ParseError,
)
from jetforge.mindex import MultiIndex

from random_exprs import random_polynomial


def _ctx(m=2, order=2, **kw):
    return ExprContext(m, order=order, **kw)


def test_constants_fold():
    e = sx.as_expr(Q(1, 2)) + sx.as_expr(Q(1, 3))
    assert e.is_constant()
    assert e.constant_value() == Q(5, 6)
    assert (e - e).is_zero()


def test_polynomial_arithmetic():
    x1, x2 = sx.base(1), sx.base(2)
    e = (x1 + x2) ** 2
    assert e == x1 * x1 + 2 * x1 * x2 + x2 * x2
    assert (e - x1 ** 2 - x2 ** 2 - 2 * x1 * x2).is_zero()


def test_differentiate_product_rule():
    x1, x2 = sx.base(1), sx.base(2)
    u = sx.jet(1, (1, 0))
    e = x1 ** 3 * u + x2
    d = sx.differentiate(e, BaseVar(1))
    assert d == 3 * x1 ** 2 * u


def test_differentiate_chain_rule_primitive():
    x1 = sx.base(1)
    e = sx.prim("sin", x1 ** 2)
    d = sx.differentiate(e, BaseVar(1))
    assert d == 2 * x1 * sx.prim("cos", x1 ** 2)


def test_custom_primitive_with_named_derivative():
    sx.register_primitive("sq_test", derivative=lambda a: 2 * a)
    e = sx.prim("sq_test", sx.base(1))
    assert sx.differentiate(e, BaseVar(1)) == 2 * sx.base(1)
    sx.register_primitive("K_test'")
    sx.register_primitive("K_test", derivative=lambda a: sx.prim("K_test'", a))
    d = sx.differentiate(sx.prim("K_test", sx.base(1) ** 2), BaseVar(1))
    assert d == 2 * sx.base(1) * sx.prim("K_test'", sx.base(1) ** 2)


def test_substitute_is_simultaneous():
    x1, x2 = sx.base(1), sx.base(2)
    e = x1 + x2
    out = sx.substitute(e, {BaseVar(1): x2, BaseVar(2): x1})
    assert out == x1 + x2


def test_evaluate_exact_and_zero_division():
    x1 = sx.base(1)
    e = sx.inverse(x1 + 1)
    assert sx.evaluate(e, {BaseVar(1): Q(1)}) == Q(1, 2)
    with pytest.raises(EvalZeroDivision):
        sx.evaluate(e, {BaseVar(1): Q(-1)})


def test_quotients_do_not_cancel_structurally_but_clear():
    x1 = sx.base(1)
    p = x1 + 1
    e = p * sx.inverse(p) - 1
    assert not e.is_zero()
    assert sx.is_identically_zero(e)


def test_clear_denominators_rebuilds_value():
    rng = random.Random(5)
    x1, x2 = sx.base(1), sx.base(2)
    e = (x1 + 2) * sx.inverse(x2 ** 2 + 1) + x2 * sx.inverse((x2 ** 2 + 1) ** 2)
    num, den = sx.clear_denominators(e)
    assert not num.has_recip()
    for _ in range(8):
        a = {BaseVar(1): sx.random_rational(rng, 6), BaseVar(2): sx.random_rational(rng, 6)}
        lhs = sx.evaluate(e, a) * sx.evaluate(den, a)
        assert lhs == sx.evaluate(num, a)


def test_inverse_of_rational_expression():
    x1 = sx.base(1)
    e = sx.inverse(x1) + 1
    inv = sx.inverse(e)
    assert sx.is_identically_zero(e * inv - 1)
    with pytest.raises(ExprError):
        sx.inverse(sx.prim("sin", sx.inverse(x1)) + 1)


def test_parser_round_trip_on_random_expressions():
    rng = random.Random(11)
    ctx = _ctx()
    atoms = [BaseVar(1), BaseVar(2), JetVar(1, MultiIndex((1, 0))), JetVar(1, MultiIndex((0, 2)))]
    for _ in range(25):
        e = random_polynomial(rng, atoms, degree=3, terms=5, bound=7)
        back = sx.parse_expr(sx.format_expr(e), ctx)
        assert back == e


def test_parser_jet_syntax_and_errors():
    ctx = _ctx()
    e = sx.parse_expr("u[(2,0)] - u[(0,2)]", ctx)
    assert e == sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))
    with pytest.raises(ParseError):
        sx.parse_expr("u[(3,0)]", ctx)
    with pytest.raises(ParseError):
        sx.parse_expr("x3", ctx)
    with pytest.raises(ParseError):
        sx.parse_expr("notdeclared + 1", ctx)


def test_parser_rational_vs_decimal_literals():
    ctx = _ctx()
    e, dec = sx.parse_expr_flagged("3/4 * x1", ctx)
    assert not dec
    assert e == Q(3, 4) * sx.base(1)
    e2, dec2 = sx.parse_expr_flagged("0.25 * x1", ctx)
    assert dec2
    assert e2 == Q(1, 4) * sx.base(1)


def test_parse_covectors_only_when_allowed():
    # covectors are never declared in problem files, so xi1 is undeclared
    with pytest.raises(ParseError):
        sx.parse_expr("xi1", _ctx())


def test_exact_evaluation_refuses_transcendentals():
    e = sx.prim("sin", sx.base(1))
    with pytest.raises(sx.EvaluationError):
        sx.evaluate(e, {BaseVar(1): Q(1)}, exact=True)
    v = sx.evaluate(e, {BaseVar(1): 0.0}, exact=False)
    assert abs(v) < 1e-12


def test_jet_vars_and_max_degree():
    e = sx.jet(1, (2, 0)) * sx.base(1) + sx.jet(1, (1, 1))
    vs = e.jet_vars()
    assert JetVar(1, MultiIndex((2, 0))) in vs
    assert e.max_jet_degree() == 2


def test_power_and_coefficient_extraction():
    x1 = sx.base(1)
    u = sx.jet(1, (2, 0))
    v = JetVar(1, MultiIndex((2, 0)))
    e = 3 * u * x1 + u ** 2 - 5
    assert sx.differentiate(e, v) == 3 * x1 + 2 * u
    assert sx.differentiate(x1 + 2 * u, v) == sx.as_expr(2)


def test_atom_free_values_are_their_constants():
    x = BaseVar(1)
    consts = [sx.ZERO, sx.as_expr(Q(-7, 3)), sx.as_expr(5) * sx.as_expr(Q(1, 10))]
    assert sx.evaluate_many(consts, {}) == [Q(0), Q(-7, 3), Q(1, 2)]
    assert all(type(v) is Q for v in sx.evaluate_many(consts, {}))
    assert sx.evaluate(consts[1], {x: 2}) == Q(-7, 3)
    # with an atom among them the values are the same, and a missing
    # atom still raises after the constants before it
    assert sx.evaluate_many(consts + [Expr.variable(x)], {x: 2}) == [Q(0), Q(-7, 3), Q(1, 2), Q(2)]
    with pytest.raises(sx.EvaluationError, match="no value assigned"):
        sx.evaluate_many(consts + [Expr.variable(x)], {})


_SMALL_RATIONALS = st.fractions(min_value=-2, max_value=2, max_denominator=3)
_HASHABLE_VALUES = st.one_of(
    st.integers(-2, 2),
    _SMALL_RATIONALS,
    st.builds(sx.as_expr, _SMALL_RATIONALS),
    # c0 + c1*x1 is a constant when c1 is 0
    st.builds(lambda c0, c1: c0 + c1 * sx.base(1), _SMALL_RATIONALS, st.integers(0, 1)),
)


@settings(max_examples=200, deadline=None)
@given(_HASHABLE_VALUES, _HASHABLE_VALUES)
@example(sx.ONE, 1)
@example(Q(1, 2), sx.as_expr(Q(1, 2)))
@example(sx.ZERO, 0)
def test_equal_values_hash_equal(a, b):
    # a constant expression equals its int or Fraction, so the two must
    # find each other in a set or as dict keys
    if a == b:
        assert hash(a) == hash(b)
    assert (a in {b}) == (a == b)


@pytest.mark.parametrize("atom, field", [
    (sx.BaseVar(1), "i"),
    (sx.JetVar(1, (1, 0)), "alpha"),
    (sx.ParamVar("c"), "name"),
    (sx.CovectorVar(2), "i"),
    (sx.PrimCall("sin", sx.base(1)), "arg"),
    (sx.Recip(sx.base(1) + 1), "payload"),
], ids=lambda x: type(x).__name__ if isinstance(x, sx.Atom) else x)
def test_atoms_are_immutable(atom, field):
    before = (getattr(atom, field), atom.key, hash(atom))
    for name in (field, "key", "_hash", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(atom, name, 0)
    assert (getattr(atom, field), atom.key, hash(atom)) == before


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 6), st.integers(1, 40))
def test_random_rational_is_the_randint_fraction_on_the_same_stream(seed, bound, count):
    rng, ref = random.Random(seed), random.Random(seed)
    got = [sx.random_rational(rng, bound) for _ in range(count)]
    assert got == [Q(ref.randint(-bound, bound), ref.randint(1, bound)) for _ in range(count)]
    assert rng.random() == ref.random()


def test_random_rational_is_the_choice_form_with_the_same_state():
    for bound in range(1, 17):
        rows = sx._rational_table(bound)
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            got = [sx.random_rational(rng, bound) for _ in range(5)]
            assert got == [ref.choice(ref.choice(rows)) for _ in range(5)]
            assert rng.getstate() == ref.getstate()
