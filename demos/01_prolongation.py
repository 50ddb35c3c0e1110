"""Jets, total derivatives, and prolongation of a differential operator.

A differential operator lives on a jet chart: coordinates are the base
variables x_i and the derivative slots u[alpha][I].  Prolonging an
operator appends all total derivatives up to a chosen order, which is
how one passes from an equation on J^k to the induced equations on
J^(k+l).  This script walks through the wave operator and checks the
prolonged equations against an honest polynomial solution.
"""

from fractions import Fraction as Q

from jetforge import jetcalc as jc
from jetforge import symexpr as sx

x1, x2 = sx.base(1), sx.base(2)

# the scalar wave operator u_tt - u_xx on the plane
h = jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))])
print("operator:", sx.format_expr(h.components[0]))

# total derivatives act on any jet expression
f = sx.jet(1, (1, 0)) * sx.jet(1, (0, 1))
print("D_1 of u10*u01:", sx.format_expr(jc.total_derivative(f, 1)))

# prolong twice: one equation becomes six
P = jc.prolong_op(h, 2)
print("\nprolongation to order 2 has %d components:" % len(P.components))
for lbl, comp in zip(P.labels, P.components):
    print("  D_%s h = %s" % (lbl[1], sx.format_expr(comp)))

# a genuine solution: any function of x1 + x2 solves the wave equation
psi = jc.SectionPoly(2, [(x1 + x2) ** 4])
for l in range(3):
    assignment = jc.section_jet_assignment(psi, 2 + l)
    vals = [sx.substitute(c, assignment) for c in jc.prolong_op(h, l).components]
    assert all(sx.is_identically_zero(v) for v in vals)
print("\nall prolonged equations vanish identically on j^k of (x1+x2)^4")

# J^(k+l) embeds in J^l(J^k): an iterated jet relabels an ordinary one
io = jc.IotaReindex(2, 1, 2, 1)
jp = jc.jet_of_section(psi, (Q(1), Q(2)), 3)
emb = io.point_embed(jp)
# slot 3 of the order-2 chart is u_(0,1); its x1-derivative is u_(1,1)
assert emb[(3, (1, 0))] == jp[(1, (1, 1))]
g = sx.jet(3, (1, 0)) * sx.jet(1, (0, 1))
assert sx.evaluate(g, emb.assignment()) == sx.evaluate(io.pull_expr(g), jp.assignment())
print("\niota: J^3 -> J^1(J^2) relabels u_(1,1) as the x1-derivative of slot u_(0,1)")

# a non-solution leaves a residual
bad = jc.SectionPoly(2, [x1 ** 2])
res = jc.residual_of_section(h, bad, [(Q(0), Q(0)), (Q(1), Q(2))])
print("residual of x1^2 at two points:", res)
assert any(v != 0 for row in res for v in row)
