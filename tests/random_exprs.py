"""Seeded random expressions for the tests that draw them."""

from jetforge import symexpr as sx


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
