"""Seeded random expressions for the tests that draw them, and
hypothesis strategies for expressions with quotients and faults and for
points with zero coordinates and mixed denominators."""

from fractions import Fraction as Q

from hypothesis import strategies as st

from jetforge import symexpr as sx
from jetforge.mindex import MultiIndex
from jetforge.symexpr import BaseVar, JetVar, ParamVar


def random_polynomial(rng, variables, degree=2, terms=3, bound=5):
    """Random polynomial expression in the given variables: each of the
    terms is a coefficient sx.random_rational(rng, bound) times up to
    degree factors drawn from variables."""
    variables = list(variables)
    out = sx.ZERO
    for _ in range(terms):
        mono = sx.ONE
        for _ in range(rng.randint(0, degree)):
            mono = mono * sx.Expr.variable(rng.choice(variables))
        out = out + sx.Expr.const(sx.random_rational(rng, bound)) * mono
    return out


# the variables a point assigns: quotient payloads read x1, x2 and a
# only, so the u's can change while every quotient's inputs stay
PAYLOAD_VARS = [BaseVar(1), BaseVar(2), ParamVar("a")]
VARS = PAYLOAD_VARS + [JetVar(1, MultiIndex(I)) for I in ((0, 0), (1, 0), (0, 1))]
# factors that fail when met: a primitive in exact mode and a variable
# no point assigns
FAULTS = [sx.prim("sin", sx.base(1)), sx.jet(1, (1, 1))]

COEFS = st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 4), Q(5, 6)])
RATIONALS = st.one_of(st.sampled_from([Q(0), Q(0), Q(1), Q(-1), Q(2), Q(1, 3), Q(-5, 2)]),
                      st.builds(Q, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 6)))


@st.composite
def quotient_exprs(draw, faults=False):
    """A list of expressions over `VARS` and up to two quotients by
    polynomials in x1, x2, a, with zero and constant expressions among
    them and the same object now and then twice; with faults, the
    factors of `FAULTS` may occur too."""
    pool = [sx.Expr.variable(v) for v in VARS]
    for _ in range(draw(st.integers(0, 2))):
        payload = sx.ZERO
        for _ in range(draw(st.integers(1, 3))):
            term = sx.Expr.const(draw(COEFS))
            for _ in range(draw(st.integers(0, 2))):
                term = term * sx.Expr.variable(draw(st.sampled_from(PAYLOAD_VARS)))
            payload = payload + term
        if not payload.is_constant():
            pool.append(sx.inverse(payload))
    if faults:
        pool += FAULTS
    made = []
    for _ in range(draw(st.integers(1, 4))):
        e = sx.ZERO
        for _ in range(draw(st.integers(0, 4))):
            term = sx.Expr.const(draw(COEFS))
            for _ in range(draw(st.integers(0, 3))):
                term = term * draw(st.sampled_from(pool)) ** draw(st.integers(1, 3))
            e = e + term
        made.append(e)
    picks = st.sampled_from(made + [sx.ZERO, sx.Expr.const(Q(-7, 3))])
    return [draw(picks) for _ in range(draw(st.integers(1, 6)))]


@st.composite
def points(draw):
    """Values for `VARS`, in that order: rationals of all sizes, 0 among
    them."""
    return [draw(RATIONALS) for _ in VARS]
