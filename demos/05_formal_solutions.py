"""Truncated formal power-series solutions, built order by order.

Starting from a rational jet on the equation variety, each lift fills
in the next derivative order; the free parameters consumed along the
way are exactly the Cauchy data the equation leaves undetermined.  The
result is an exact truncated Taylor series whose residual vanishes to
the verified depth.
"""

from fractions import Fraction as Q

from jetforge import formal as fm
from jetforge import integrability as ig
from jetforge import jetcalc as jc
from jetforge import symexpr as sx

x1, x2 = sx.base(1), sx.base(2)

curved = ig.MetricSpec(2, {(1, 1): sx.ONE - x2 ** 2 * Q(1, 4),
                           (2, 2): sx.as_expr(Q(-1)) - x1 ** 2 * Q(1, 4)})
h = ig.make_klein_gordon(curved, F1=1, F2=1, K=lambda e: e ** 3)

seed_pt = ig.sample_prolonged_points(h, 0, 1, seed=11)[0]
sol = fm.formal_solve(h, seed_pt, 6, policy="random", seed=5)
print("series to order 6 around", sol.base)
coefficients = sol.coefficients()
for (I, num, den) in coefficients[:10]:
    print("  coeff x^%s = %s/%s" % (I, num, den))
print("  ... (%d coefficients total)" % len(coefficients))
print("free parameters per order:", sol.free_counts)

rep = fm.verify_residual(sol, 4)
print(rep.summary())
assert rep.passed

# explicit free data can steer the series onto a known solution
wave = jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))])
poly = (x1 + x2) ** 3
psi = jc.SectionPoly(2, [poly])
b = jc.jet_of_section(psi, (Q(0), Q(0)), 2)
free = {}
for N in (3, 4):
    jp = jc.jet_of_section(psi, (Q(0), Q(0)), N)
    for I in jp.chart.jet_indices():
        if I.degree == N:
            free[(1, I)] = jp[(1, I)]
steered = fm.formal_solve(wave, b, 4, policy="explicit", free_table=free)
assert steered.top_jet == jc.jet_of_section(psi, (Q(0), Q(0)), 4)
print("\nsteered series reproduces the cubic solution exactly:")
print("  ", sx.format_expr(steered.section().components[0]))
