"""Projective-limit towers: threads, the calculus of local objects, and
exact splittings of linear towers.

A tower is a finite prefix of a projective system of charts.  Points of
the limit are threads; functions, vector fields, and forms on the limit
are local objects pulled back from a finite level.  The jet tower is
the main example: its threads over a section are the section's jets,
total derivatives become vector fields of finite type, and the
contact structure lives in its local one-forms.  Linear towers split
into kernel pieces, with exact lift matrices certifying the
decomposition levelwise.
"""

import random
from fractions import Fraction as Q

from jetforge import jetcalc as jc
from jetforge import pfd
from jetforge import spencer as sp
from jetforge import symexpr as sx

RM = sp.RationalMatrix

# --- the jet tower and its threads ---
jt = pfd.JetTower(2, 1, 6)
psi = jc.SectionPoly(2, [(sx.base(1) + sx.base(2)) ** 3])
th = jt.thread_of_section(psi, (Q(1), Q(2)), 5)
print("thread of a cubic section through 5 levels, dims:",
      [len(p) for p in th.points])

# --- tangent threads: the velocity of the family psi + t*phi at t = 0 ---
# the base point stays put, and each jet slot moves with phi's jet
phi = jc.SectionPoly(2, [sx.base(1) * sx.base(2)])
vel = [(Q(0), Q(0)) + jt.point_to_tuple(jc.jet_of_section(phi, (Q(1), Q(2)), i))[2:]
       for i in range(5)]
pfd.TangentThread(th, vel)
print("d/dt of the threads of psi + t*phi is a tangent thread")
try:
    pfd.TangentThread(th, [vel[0], (Q(1),) + vel[1][1:]])
except pfd.ThreadError as err:
    print("a vector that moves the base point at level 1 only is refused:", err)
else:
    raise AssertionError("incompatible tangent vectors were accepted")

# --- total derivatives as finite-type vector fields ---
D1 = pfd.total_derivative_field(jt, 1)
D2 = pfd.total_derivative_field(jt, 2)
f = pfd.LocalFunction(1, jt.to_tower_expr(sx.jet(1, (1, 0)) * sx.jet(1, (0, 1)), 1))
print("D1 applied to a level-1 function lands on level", pfd.vf_apply(D1, f).level)
br = pfd.lie_bracket(D1, D2, 1)
assert all(e.is_zero() for e in br.component_map(1))
print("[D1, D2] = 0, as total derivatives commute")

# --- the contact form is annihilated by total derivatives ---
tw = jt.tower
theta = pfd.LocalForm(tw, 1, 1, {(1,): -sx.base(4), (2,): -sx.base(5), (3,): sx.ONE})
c = pfd.contract(D1, theta)
assert c.is_zero()
print("contraction of D1 with the contact form du - u10 dx1 - u01 dx2 vanishes")

# --- d is a differential and satisfies the Leibniz rule ---
alpha = pfd.LocalForm(tw, 1, 1, {(1,): sx.base(4), (3,): sx.base(1) * sx.base(5)})
assert pfd.d(pfd.d(alpha)).is_zero()
print("d(d(alpha)) = 0")

# --- Borel realization: any jet data comes from an honest section ---
rng = random.Random(9)
chart = jc.JetChartSpec(2, 1, 4)
data = {(1, I): sx.random_rational(rng, 5) for I in chart.jet_indices()}
sec = pfd.borel_realize(2, 1, data, (Q(0), Q(0)), 4)
back = jc.jet_of_section(sec, (Q(0), Q(0)), 4)
assert all(back[k] == v for k, v in data.items())
print("random order-4 jet data realized by a polynomial section, exactly")

# --- equation subtowers ---
wave = jc.DiffOp(2, 1, 2, [sx.jet(1, (2, 0)) - sx.jet(1, (0, 2))])
E = pfd.EquationSubtower(wave)
print("equation subtower dimensions:", [E.dimension(l) for l in range(2, 6)])

# --- splitting a tensor product of linear towers ---
V = pfd.LinearTower([1, 2, 3], [RM([[Q(1), Q(0)]]),
                                RM([[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)]])])
W = pfd.LinearTower([2, 3, 4], [
    RM([[Q(1), Q(1), Q(0)], [Q(0), Q(1), Q(1)]]),
    RM([[Q(1), Q(0), Q(0), Q(2)], [Q(0), Q(1), Q(0), Q(0)], [Q(0), Q(0), Q(1), Q(1)]]),
])
res = pfd.tensor_tower(V, W)
assert res.identities_hold and res.dim_identity_holds
print("tensor tower dims %s split into kernel pieces %s x %s" % (
    res.tensor.dims,
    [res.left.tilde_dim(i) for i in range(3)],
    [res.right.tilde_dim(i) for i in range(3)],
))
