"""Operator symbols: the top-order part of an equation as a polynomial
in a covector.

The symbol of an operator collects the coefficients of its highest
derivative slots.  For the wave operator the symbol is xi1^2 - xi2^2,
whose zeros are the characteristic directions.  For linear operators
the jet-chart symbol and the classical coefficient-table symbol must
agree; that diagram is checked exactly on random rational samples.
"""

import random
from fractions import Fraction as Q

from jetforge import jetcalc as jc
from jetforge import symbols as sy
from jetforge import symexpr as sx

h = jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))])
S = sy.symbol_of(h)
print("symbol entries of the wave operator:")
for (alpha, beta, I), c in S.items():
    print("  alpha=%d beta=%d I=%s coeff=%s" % (alpha, beta, tuple(I), sx.format_expr(c)))

# characteristic covectors are the light-cone directions
chart = h.chart()
jets = {(1, I): Q(0) for I in chart.jet_indices()}
a = jc.JetPoint(chart, (Q(0), Q(0)), jets)
for xi in ((1, 1), (1, -1), (1, 0), (0, 1)):
    val = sy.symbol_value(S, 1, a, xi)
    tag = "characteristic" if val == 0 else "non-characteristic, sigma=%s" % val
    print("  xi=%s: %s" % (xi, tag))

# the linear symbol diagram commutes exactly
rng = random.Random(3)
pts, covs = [], []
for _ in range(20):
    jets = {(1, I): sx.random_rational(rng, 4) for I in chart.jet_indices()}
    pts.append(jc.JetPoint(chart, (sx.random_rational(rng, 4), sx.random_rational(rng, 4)), jets))
    covs.append((sx.random_rational(rng, 4), sx.random_rational(rng, 4)))
rep = sy.check_linear_symbol_diagram(h, pts, covs)
print("\n%s" % rep)
assert rep.passed

# nonlinear operators have jet-dependent symbols
nl = jc.DiffOp(2, 1, 2, [sx.jet(1, (0, 0)) * sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))])
Snl = sy.symbol_of(nl)
print("nonlinear principal coefficient at u20:",
      sx.format_expr(Snl[(1, 1, (2, 0))]))
