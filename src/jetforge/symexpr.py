"""Exact symbolic expressions over base, jet, parameter, and covector variables.

Expressions are kept in a normal form at all times: a sum of monomials
with rational coefficients, where a monomial is a product of atoms with
positive integer exponents.  Atoms are variables, opaque primitive
applications like sin(...) or a registered K(...), and reciprocals of
polynomial expressions (the quotient node).  Only the polynomial and
rational structure is canonicalized; primitive applications stay opaque,
so structural equality is exact precisely where the linear algebra
downstream needs it (coefficient extraction, zero tests) without doing
general simplification.

Coefficients are `fractions.Fraction` throughout, so every code path
that feeds a rank or kernel computation stays exact as long as the
expression is free of transcendental primitives.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .mindex import MultiIndex


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """A syntax error: `message` says what is wrong and `pos`, when
    given, is its offset in `text`; str() is the message followed by
    that offset."""

    def __init__(self, message, text=None, pos=None):
        super().__init__(message if pos is None else "%s (at position %d)" % (message, pos))
        self.message = message
        self.pos = pos
        self.text = text


class EvaluationError(ExprError):
    pass


class EvalZeroDivision(EvaluationError):
    """A quotient payload evaluated to zero at the requested point."""


class DifferentiationError(ExprError):
    pass


# ---------------------------------------------------------------------------
# atoms

_RANK_BASE = 0
_RANK_JET = 1
_RANK_PARAM = 2
_RANK_COVECTOR = 3
_RANK_PRIM = 4
_RANK_RECIP = 5


class Atom:
    """Common behavior for the multiplicative building blocks of monomials.

    Atoms are immutable: `_set_key` and the constructors write their
    fields through `object.__setattr__`, and any other assignment raises.
    """

    __slots__ = ("key", "_hash")

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def _set_key(self, key):
        # the key never changes, so neither does its hash
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        return self is other or (isinstance(other, Atom) and self.key == other.key)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        return atom_str(self)


class VarRef(Atom):
    """A plain variable: base x_i, jet u^alpha_I, parameter, or covector xi_i."""

    __slots__ = ()


class BaseVar(VarRef):
    __slots__ = ("i",)

    def __init__(self, i):
        if i < 1:
            raise ValueError("base axis must be >= 1")
        object.__setattr__(self, "i", int(i))
        self._set_key((_RANK_BASE, (self.i,)))


class JetVar(VarRef):
    __slots__ = ("alpha", "index")

    def __init__(self, alpha, index):
        if not isinstance(index, MultiIndex):
            index = MultiIndex(index)
        if alpha < 1:
            raise ValueError("fiber component must be >= 1")
        object.__setattr__(self, "alpha", int(alpha))
        object.__setattr__(self, "index", index)
        deg, neg = index.graded_lex_key()
        self._set_key((_RANK_JET, (deg,) + neg + (self.alpha,)))


class ParamVar(VarRef):
    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", str(name))
        self._set_key((_RANK_PARAM, (self.name,)))


class CovectorVar(VarRef):
    __slots__ = ("i",)

    def __init__(self, i):
        if i < 1:
            raise ValueError("covector axis must be >= 1")
        object.__setattr__(self, "i", int(i))
        self._set_key((_RANK_COVECTOR, (self.i,)))


class PrimCall(Atom):
    """Opaque application of a registered analytic primitive to one argument."""

    __slots__ = ("name", "arg")

    def __init__(self, name, arg):
        arg = as_expr(arg)
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "arg", arg)
        self._set_key((_RANK_PRIM, (self.name, arg.sort_key())))


class Recip(Atom):
    """Reciprocal of a reciprocal-free expression (the quotient node).

    The payload is normalized to have leading coefficient 1, so that
    equal quotients get equal atoms.
    """

    __slots__ = ("payload",)

    def __init__(self, payload):
        payload = as_expr(payload)
        if payload.is_zero():
            raise ZeroDivisionError("division by the zero expression")
        if payload.has_recip():
            raise ExprError("nested quotients are not supported")
        object.__setattr__(self, "payload", payload)
        self._set_key((_RANK_RECIP, (payload.sort_key(),)))


# ---------------------------------------------------------------------------
# expressions


def _merge_monomials(m1, m2):
    # both sorted by atom key; exponents are positive so nothing cancels
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        if a1.key == a2.key:
            out.append((a1, e1 + e2))
            i += 1
            j += 1
        elif a1.key < a2.key:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


class Expr:
    """Immutable normalized expression; all arithmetic returns new values."""

    __slots__ = ("_terms", "_key")

    def __init__(self, terms=None):
        self._terms = dict(terms) if terms else {}
        self._key = None

    @classmethod
    def const(cls, value):
        c = Fraction(value)
        if c == 0:
            return ZERO
        return _wrap({(): c})

    @classmethod
    def variable(cls, v):
        if not isinstance(v, Atom):
            raise TypeError("expected an atom, got %r" % (v,))
        return _wrap({((v, 1),): Fraction(1)})

    # -- inspection

    def terms(self):
        """Canonically ordered (monomial, coefficient) pairs."""
        return sorted(self._terms.items(), key=lambda mc: _mono_key(mc[0]))

    def sort_key(self):
        if self._key is None:
            self._key = tuple(
                (_mono_key(m), (c.numerator, c.denominator)) for m, c in self.terms()
            )
        return self._key

    def is_zero(self):
        return not self._terms

    def is_constant(self):
        return all(m == () for m in self._terms)

    def constant_value(self):
        if not self.is_constant():
            raise ExprError("not a constant: %s" % self)
        return self._terms.get((), Fraction(0))

    def has_recip(self):
        return any(
            isinstance(a, Recip) or (isinstance(a, PrimCall) and a.arg.has_recip())
            for m in self._terms
            for a, _ in m
        )

    def has_primitive(self):
        for m in self._terms:
            for a, _ in m:
                if isinstance(a, PrimCall):
                    return True
                if isinstance(a, Recip) and a.payload.has_primitive():
                    return True
        return False

    def free_vars(self):
        out = set()
        for m in self._terms:
            for a, _ in m:
                if isinstance(a, VarRef):
                    out.add(a)
                elif isinstance(a, PrimCall):
                    out |= a.arg.free_vars()
                elif isinstance(a, Recip):
                    out |= a.payload.free_vars()
        return out

    def jet_vars(self):
        return sorted(
            (v for v in self.free_vars() if isinstance(v, JetVar)), key=lambda v: v.key
        )

    def degree(self):
        """The largest total degree of a term, every atom counted with
        its exponent: the dmax to which `Batch` raises a denominator."""
        return max((sum(e for _, e in m) for m in self._terms), default=0)

    def max_jet_degree(self):
        degs = [v.index.degree for v in self.free_vars() if isinstance(v, JetVar)]
        return max(degs, default=-1)

    # -- arithmetic

    def __add__(self, other):
        terms = dict(self._terms)
        for m, c in as_expr(other)._terms.items():
            _add_term(terms, m, c)
        return _wrap(terms)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-as_expr(other))

    def __rsub__(self, other):
        return as_expr(other) + (-self)

    def __mul__(self, other):
        other = as_expr(other)
        if not self._terms or not other._terms:
            return ZERO
        terms = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                _add_term(terms, _merge_monomials(m1, m2), c1 * c2)
        return _wrap(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return inverse(self) ** (-n)
        result = ONE
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def __truediv__(self, other):
        return self * inverse(as_expr(other))

    def __rtruediv__(self, other):
        return as_expr(other) * inverse(self)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = as_expr(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.sort_key() == other.sort_key()

    def __hash__(self):
        # a constant equals its Fraction (ZERO equals 0), so it hashes as one
        terms = self._terms
        if not terms:
            return 0
        if len(terms) == 1 and () in terms:
            return hash(terms[()])
        return hash(self.sort_key())

    def __str__(self):
        return format_expr(self)

    def __repr__(self):
        return "Expr(%s)" % format_expr(self)


def _wrap(terms):
    """The expression of `terms`, a term dict without zero coefficients
    (or None), which it takes over."""
    if not terms:
        # the shared zero, not a new empty expression per result
        return ZERO
    e = Expr.__new__(Expr)
    e._terms = terms
    e._key = None
    return e


def _add_term(terms, m, c):
    """Add the nonzero term c*m into `terms` in place: a new monomial
    goes in last, a sum that cancels leaves."""
    s = terms.get(m)
    if s is None:
        terms[m] = c
    else:
        s += c
        if s:
            terms[m] = s
        else:
            del terms[m]


def sum_times_atoms(parts):
    """Sum of a*e over the (a, e) pairs of parts, a an atom or None for
    1, accumulated into one dict: the same terms in the same order as
    adding the products left to right with `+`, without building them
    or copying the running sum (each term of e takes one more factor a,
    its coefficient as it is)."""
    terms = {}
    for a, e in parts:
        factor = () if a is None else ((a, 1),)
        for m, c in e._terms.items():
            _add_term(terms, _merge_monomials(factor, m), c)
    return _wrap(terms)


def drop_factors(e, atoms):
    """e with the atoms of the set `atoms` set to 0 where they are
    factors: the terms that have one of them as a factor are dropped,
    by one pass over the terms, which keep their order.  An atom inside
    a quotient payload or primitive argument is left as it is."""
    terms = {m: c for m, c in e._terms.items() if atoms.isdisjoint([a for a, _ in m])}
    return e if len(terms) == len(e._terms) else _wrap(terms)


def _mono_key(m):
    return tuple((a.key, e) for a, e in m)


ZERO = Expr()
ONE = Expr({(): Fraction(1)})


def as_expr(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, Atom):
        return Expr.variable(x)
    if isinstance(x, (int, Fraction)):
        return Expr.const(x)
    raise TypeError("cannot coerce %r to an expression" % (x,))


def base(i):
    return Expr.variable(BaseVar(i))


def jet(alpha, index):
    return Expr.variable(JetVar(alpha, index))


def param(name):
    return Expr.variable(ParamVar(name))


def covector(i):
    return Expr.variable(CovectorVar(i))


def inverse(e):
    """1/e.  Monomials invert factorwise; rational expressions are
    cleared to a single quotient; general sums become one Recip atom."""
    e = as_expr(e)
    if e.is_zero():
        raise ZeroDivisionError("division by the zero expression")
    items = e.terms()
    if len(items) == 1:
        mono, c = items[0]
        out = Expr.const(Fraction(1) / c)
        for a, exp in mono:
            if isinstance(a, Recip):
                out = out * a.payload**exp
            else:
                out = out * Expr.variable(Recip(Expr.variable(a))) ** exp
        return out
    if e.has_recip():
        p, d = clear_denominators(e)
        if p.has_recip():
            raise ExprError("cannot invert quotients inside primitive arguments")
        return d * inverse(p)
    lead = items[0][1]
    return Expr.const(Fraction(1) / lead) * Expr.variable(Recip(e * Fraction(1, 1) / lead))


def det(grid):
    """Determinant of a square grid of expressions, by cofactor
    expansion along the first row (zero entries skipped); 1 for the
    empty grid."""
    n = len(grid)
    if n == 0:
        return ONE
    total = ZERO
    for c in range(n):
        if grid[0][c].is_zero():
            continue
        minor = [[grid[r][cc] for cc in range(n) if cc != c] for r in range(1, n)]
        sign = -1 if c % 2 else 1
        total = total + sign * grid[0][c] * det(minor)
    return total


# ---------------------------------------------------------------------------
# primitive registry


class PrimitiveDef:
    def __init__(self, name, derivative=None, float_impl=None):
        self.name = name
        self.derivative = derivative  # callable Expr -> Expr, or None
        self.float_impl = float_impl  # callable float -> float, or None


_REGISTRY = {}


def register_primitive(name, derivative=None, float_impl=None):
    """Register a univariate smooth primitive.

    `derivative` is a callable mapping the argument expression to the
    derivative expression; without one, differentiating the primitive
    is an error.
    """
    _REGISTRY[name] = PrimitiveDef(name, derivative, float_impl)


def primitive_registered(name):
    return name in _REGISTRY


def registry_state():
    """The registered primitives as a hashable value.  Each registration
    makes a new PrimitiveDef, so the value changes whenever a rule
    does: a cache of what was built under the registry keys on it."""
    return tuple(_REGISTRY.items())


def prim(name, arg):
    if name not in _REGISTRY:
        raise ExprError("unregistered primitive %r" % name)
    return Expr.variable(PrimCall(name, as_expr(arg)))


register_primitive("sin", derivative=lambda a: prim("cos", a), float_impl=math.sin)
register_primitive("cos", derivative=lambda a: -prim("sin", a), float_impl=math.cos)
register_primitive("exp", derivative=lambda a: prim("exp", a), float_impl=math.exp)


# ---------------------------------------------------------------------------
# calculus


def partials(e, variables):
    """{v: de/dv} for each variable v in `variables`, by one walk over
    the terms of e.

    Each monomial is walked once: every factor that is a requested
    variable, or a quotient or primitive atom whose argument holds one,
    puts its chain-rule term c*exp*(rest)*d(atom) into the bucket of
    each such variable.  A quotient or primitive atom is differentiated
    once per call, by one recursive walk over its argument.  Each
    partial has the terms, in the same order, of differentiating e by v
    alone.  A primitive without a derivative rule raises
    DifferentiationError when a requested variable occurs in its
    argument; the error raised is the one differentiating by the
    variables one by one, in order, meets first.  The dict lists the
    variables in the order given.
    """
    e = as_expr(e)
    variables = tuple(variables)
    for v in variables:
        if not isinstance(v, VarRef):
            raise TypeError("differentiation variable must be a VarRef")
    buckets, errors = _partial_terms(e, frozenset(variables))
    for v in variables:
        if v in errors:
            raise errors[v]
    return {v: _wrap(buckets.get(v)) for v in variables}


def _partial_terms(e, wanted):
    """The walk of `partials`: ({v: term dict of de/dv}, {v: first
    error}) over the variables v in `wanted` that occur in e."""
    buckets = {}
    errors = {}
    memo = {}  # quotient or primitive atom -> {v: nonzero d(atom)/dv}
    for mono, c in e._terms.items():
        for idx, (a, exp) in enumerate(mono):
            if isinstance(a, VarRef):
                if a not in wanted:
                    continue
                da = None
            else:
                da = memo.get(a)
                if da is None:
                    da = memo[a] = _compound_partials(a, wanted, errors)
                if not da:
                    continue
            if exp == 1:
                rest = mono[:idx] + mono[idx + 1:]
                c1 = c
            else:
                rest = mono[:idx] + ((a, exp - 1),) + mono[idx + 1:]
                c1 = c * exp
            if da is None:
                _add_term(buckets.setdefault(a, {}), rest, c1)
                continue
            for v, dv in da.items():
                terms = buckets.setdefault(v, {})
                for m2, c2 in dv._terms.items():
                    _add_term(terms, _merge_monomials(rest, m2), c1 * c2)
    return buckets, errors


def _compound_partials(a, wanted, errors):
    """{v: d(a)/dv} for a quotient or primitive atom a, nonzero ones
    only, over the variables in `wanted` that occur in its argument;
    the error of each variable that has one goes into `errors`, unless
    an earlier one is there."""
    arg = _argument(a)
    inner, inner_errors = _partial_terms(arg, wanted)
    for v, err in inner_errors.items():
        errors.setdefault(v, err)
    out = {}
    for v, terms in inner.items():
        if not terms or v in inner_errors:
            continue
        if isinstance(a, Recip):
            r = Expr.variable(a)
            out[v] = -_wrap(terms) * r * r
            continue
        rule = _REGISTRY[a.name].derivative
        if rule is None:
            errors.setdefault(v, DifferentiationError(
                "primitive %r has no registered derivative rule" % a.name))
            continue
        da = rule(arg) * _wrap(terms)
        if not da.is_zero():
            out[v] = da
    return out


def differentiate(e, v):
    """Exact partial derivative of e with respect to the variable v:
    the one-variable case of `partials`."""
    return partials(e, (v,))[v]


def substitute(e, bindings):
    """Simultaneous substitution of expressions for variables."""
    e = as_expr(e)
    if not bindings:
        return e
    bindings = {v: as_expr(x) for v, x in bindings.items()}
    out = ZERO
    for mono, c in e._terms.items():
        term = Expr.const(c)
        for a, exp in mono:
            term = term * _substitute_atom(a, bindings) ** exp
            if term.is_zero():
                break
        out = out + term
    return out


def _substitute_atom(a, bindings):
    if isinstance(a, VarRef):
        return bindings.get(a, Expr.variable(a))
    if isinstance(a, PrimCall):
        return Expr.variable(PrimCall(a.name, substitute(a.arg, bindings)))
    if isinstance(a, Recip):
        return inverse(substitute(a.payload, bindings))
    raise TypeError(a)


def evaluate(e, assignment, exact=True):
    """Evaluate at a point.  Exact mode returns a Fraction and refuses
    transcendental primitives; float mode returns a float.  The same as
    evaluate_many([e], assignment, exact)[0]."""
    return evaluate_many([e], assignment, exact)[0]


def evaluate_many(exprs, assignment, exact=True):
    """Values of several expressions at one point, in order.

    Exact mode compiles the expressions into one `Batch` whose slots
    are the assignment's variables, reads it once at the assignment's
    values as one `integer_row`, and returns each value as a Fraction.
    Float mode sums term by term; each distinct atom is evaluated once
    per call and its value reused wherever it occurs again, inside
    quotient payloads and primitive arguments too.  Nothing is kept
    between calls, and values and errors are those of evaluating the
    expressions one by one.
    """
    exprs = [as_expr(e) for e in exprs]
    if not exact:
        memo = {}
        return [_float_terms(e, assignment, memo) for e in exprs]
    slots = {v: pos for pos, v in enumerate(assignment)}
    nums, den = Batch(exprs, slots).at(*integer_row(assignment.values()))
    return [Fraction(x, den) for x in nums]


def integer_row(values):
    """Rational values (ints, Fractions, or what `Fraction` takes) as one
    integer row over one positive denominator: (nums, den), den the lcm
    of their denominators, so the row is in lowest terms."""
    values = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in values]
    den = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


class Batch:
    """A fixed list of expressions compiled once for exact evaluation,
    with each variable atom read from the position `slots` ({variable
    atom: position}) gives it.  Every exact evaluation runs one.

    A point comes in as one integer row over one positive denominator,
    as a `jetcalc.JetPoint` holds its coordinates, and the values go out
    the same way: integers over one denominator, with no Fraction formed
    and no gcd taken.  The table lists the atoms in the order evaluating
    the expressions one by one meets them, their distinct (value
    position, exponent) powers, and one entry (coefs, gaps, monos) per
    expression given, in order, so an Expr given twice is compiled
    twice.  The values of the atoms with a slot come first, then those
    of the others, in that order.  With L (`den`) the lcm of the
    coefficient denominators of all the expressions and dmax the largest
    total degree of their monomials, term t of an entry has coefficient
    coefs[t] / L and total degree dmax minus its gap, the exponent
    numbered gaps[t] among those the entries use, and monos[t] lists the
    positions of its powers.  So with atom values n / D every value is
    the sum of coefs[t] * D^gap * its powers of n, over the one
    denominator L * D^dmax.

    An evaluation (`at`) computes each power once, of D only those
    whose exponent is a gap or dmax, each from the one before (`dsteps`,
    the steps between them), and sums each entry over the integers.
    Terms that hold an atom of value 0 are skipped, not multiplied out;
    when no atom is 0 that costs one membership test per evaluation.

    Atoms that have no slot are evaluated in their turn: a quotient or
    primitive from its argument, by a batch of its own over the same
    slots, a variable not at all ("no value assigned").  Evaluating
    atoms is the only step that can fail, so the first error is the one
    evaluating the expressions one by one meets.  A quotient's value
    p / q joins the slotted values over D = lcm(den, q), the
    denominator of the row.

    `inputs` are the slot positions a batch reads, its own and those of
    the arguments nested in it.  An argument batch keeps in `memo`,
    which only `at` writes, its inputs as an integer row in lowest terms
    and the compound value (p, q), q > 0, last computed from them, so a
    compound value repeats wherever its inputs do (an operator's
    base-only coefficients, say, over one base point, whatever the
    denominator of the rest of the point), without its argument being
    evaluated again.  Only a value is kept: a primitive, and an argument
    that is 0 or reads an unassigned variable, raise at every call.
    """

    __slots__ = ("atoms", "powers", "entries", "den", "dsteps", "read", "special", "inputs",
                 "memo")

    def __init__(self, exprs, slots):
        atoms = {}
        powers = {}
        compiled = []
        for e in exprs:
            terms = []
            for mono, c in e._terms.items():
                d = 0
                ps = []
                for f in mono:
                    p = powers.get(f)
                    if p is None:
                        p = powers[f] = len(powers)
                        atoms.setdefault(f[0], len(atoms))
                    ps.append(p)
                    d += f[1]
                terms.append((c, d, tuple(ps)))
            compiled.append(terms)
        L = self.den = math.lcm(*[c.denominator for terms in compiled for c, _, _ in terms])
        dmax = max([d for terms in compiled for _, d, _ in terms], default=0)
        # the exponents of the powers of D that the entries use, and
        # the steps between them
        exps = sorted({0, dmax}.union(*[[dmax - d for _, d, _ in terms] for terms in compiled]))
        self.dsteps = tuple([b - a for a, b in zip(exps, exps[1:])])
        at = {e: i for i, e in enumerate(exps)}
        self.entries = tuple([(tuple([c.numerator * (L // c.denominator) for c, _, _ in terms]),
                               tuple([at[dmax - d] for _, d, _ in terms]),
                               tuple([ps for _, _, ps in terms])) for terms in compiled])
        # the values go in slotted atoms first, then the others
        order = [a for a in atoms if a in slots] + [a for a in atoms if a not in slots]
        place = {a: i for i, a in enumerate(order)}
        self.atoms = tuple(atoms)
        self.powers = tuple([(place[a], k) for a, k in powers])
        self.read = tuple([slots[a] for a in order if a in slots])
        self.special = tuple([(a, None if isinstance(a, VarRef) else Batch([_argument(a)], slots))
                              for a in order if a not in slots])
        self.inputs = tuple(sorted(set(self.read).union(
            *[inner.inputs for _, inner in self.special if inner is not None])))
        self.memo = None

    def at(self, nums, den):
        """Exact values at the point whose coordinate at slot position p
        is nums[p] / den, den > 0: (values, D), the values as the
        integers values[i] over the one positive denominator D."""
        vals = [nums[p] for p in self.read]
        if self.special:
            # the atoms without a slot, in turn, each over its own
            # denominator
            compound = []
            for a, inner in self.special:
                if inner is None:
                    raise _unassigned(a)
                key = [nums[p] for p in inner.inputs]
                g = math.gcd(den, *key)
                key = (key, den) if g == 1 else ([x // g for x in key], den // g)
                memo = inner.memo
                if memo is None or memo[0] != key:
                    memo = inner.memo = (key, _exact_compound(a, *inner.at(nums, den)))
                compound.append(memo[1])
            D = math.lcm(den, *[q for _, q in compound])
            if D != den:
                vals = [x * (D // den) for x in vals]
            vals += [p * (D // q) for p, q in compound]
            den = D
        return self._run(vals, den)

    def _run(self, nums, D):
        f = [nums[i] if k == 1 else nums[i] ** k for i, k in self.powers].__getitem__
        dpow = [1]
        for s in self.dsteps:
            dpow.append(dpow[-1] * D ** s)
        # the powers of zero-valued atoms; a term holding one is 0
        zero = None
        if 0 in nums:
            zero = {p for p, (i, _) in enumerate(self.powers) if not nums[i]}
        res = []
        for coefs, gaps, monos in self.entries:
            total = 0
            if zero is None:
                for c, g, mono in zip(coefs, gaps, monos):
                    total += math.prod(map(f, mono), start=c * dpow[g])
            else:
                for c, g, mono in zip(coefs, gaps, monos):
                    if zero.isdisjoint(mono):
                        total += math.prod(map(f, mono), start=c * dpow[g])
            res.append(total)
        return res, self.den * dpow[-1]


def _argument(a):
    """The argument of a primitive atom, the payload of a quotient."""
    return a.arg if isinstance(a, PrimCall) else a.payload


def _unassigned(a):
    return EvaluationError("no value assigned to %s" % atom_str(a))


def _exact_compound(a, nums, den):
    """The exact value (p, q), q > 0 and in lowest terms, of a primitive
    or quotient atom whose argument (payload) has the value nums[0] /
    den."""
    if isinstance(a, PrimCall):
        raise EvaluationError("exact evaluation of transcendental primitive %r" % a.name)
    num, = nums
    if not num:
        raise EvalZeroDivision("division by zero while evaluating a quotient")
    g = math.gcd(num, den)
    if num < 0:
        g = -g
    return den // g, num // g


def _float_terms(e, assignment, memo):
    total = 0.0
    for mono, c in e._terms.items():
        val = float(c)
        for a, exp in mono:
            x = memo.get(a)
            if x is None:
                x = memo[a] = _float_atom(a, assignment, memo)
            val = val * (x if exp == 1 else x**exp)
        total = total + val
    return total


def _float_atom(a, assignment, memo):
    if isinstance(a, VarRef):
        try:
            v = assignment[a]
        except KeyError:
            raise _unassigned(a) from None
        return float(v)
    if isinstance(a, PrimCall):
        inner = _float_terms(a.arg, assignment, memo)
        impl = _REGISTRY[a.name].float_impl
        if impl is None:
            raise EvaluationError("primitive %r has no numeric implementation" % a.name)
        return impl(inner)
    if isinstance(a, Recip):
        inner = _float_terms(a.payload, assignment, memo)
        if inner == 0:
            raise EvalZeroDivision("division by zero while evaluating a quotient")
        return 1.0 / inner
    raise TypeError(a)


def clear_denominators(e, payloads=None):
    """Rewrite e == p / d with p free of quotient atoms.

    Returns (p, d) where d is the product of the distinct quotient
    payloads raised to their maximal exponents across the terms of e,
    or of the given `payloads` table (from `quotient_payloads`, which
    must cover those of e), so that several expressions can be cleared
    by one d.  Quotients hidden inside opaque primitive arguments are
    left alone.  Multiplying by d is injective on rational expressions
    (the payloads are nonzero by construction), so e == 0 iff p == 0.
    """
    e = as_expr(e)
    if payloads is None:
        payloads = quotient_payloads(e)
    if not payloads:
        return e, ONE
    order = sorted(payloads)
    out = ZERO
    for mono, c in e._terms.items():
        seen = {}
        plain = []
        for a, exp in mono:
            if isinstance(a, Recip):
                seen[a.payload.sort_key()] = exp
            else:
                plain.append((a, exp))
        term = _wrap({tuple(plain): c})
        for k in order:
            payload, top = payloads[k]
            deficit = top - seen.get(k, 0)
            if deficit:
                term = term * payload**deficit
        out = out + term
    d = ONE
    for k in order:
        payload, top = payloads[k]
        d = d * payload**top
    return out, d


def quotient_payloads(*exprs):
    """Distinct quotient payloads at the top level of the expressions,
    keyed by the payload sort key, with the maximal exponent seen across
    their terms."""
    out = {}
    for e in exprs:
        for mono in as_expr(e)._terms:
            for a, exp in mono:
                if isinstance(a, Recip):
                    k = a.payload.sort_key()
                    if k not in out or exp > out[k][1]:
                        out[k] = (a.payload, exp)
    return out


def is_identically_zero(e):
    """Sound zero test for rational expressions: clears quotients, then
    tests the structural normal form.  With opaque primitives present a
    False result may still be semantically zero; True is always correct."""
    p, _ = clear_denominators(e)
    return p.is_zero()


# ---------------------------------------------------------------------------
# printing


def _format_index(I):
    return "(" + ",".join(str(e) for e in I) + ")"


def atom_str(a):
    if isinstance(a, BaseVar):
        return "x%d" % a.i
    if isinstance(a, CovectorVar):
        return "xi%d" % a.i
    if isinstance(a, ParamVar):
        return a.name
    if isinstance(a, JetVar):
        head = "u" if a.alpha == 1 else "u%d" % a.alpha
        return "%s[%s]" % (head, _format_index(a.index))
    if isinstance(a, PrimCall):
        return "%s(%s)" % (a.name, format_expr(a.arg))
    if isinstance(a, Recip):
        return "1/(%s)" % format_expr(a.payload)
    raise TypeError(a)


def _format_term(mono, c):
    num = []
    den = []
    for a, exp in mono:
        if isinstance(a, Recip):
            s = "(%s)" % format_expr(a.payload)
            den.append(s if exp == 1 else "%s^%d" % (s, exp))
        else:
            s = atom_str(a)
            num.append(s if exp == 1 else "%s^%d" % (s, exp))
    parts = []
    if c != 1 or not num:
        parts.append(str(c))
    parts.extend(num)
    text = "*".join(parts)
    for d in den:
        text += "/%s" % d
    return text


def format_expr(e):
    e = as_expr(e)
    items = e.terms()
    if not items:
        return "0"
    chunks = []
    for mono, c in items:
        if c < 0 and chunks:
            chunks.append(" - ")
            chunks.append(_format_term(mono, -c))
        else:
            if chunks:
                chunks.append(" + ")
            chunks.append(_format_term(mono, c))
    return "".join(chunks)


# ---------------------------------------------------------------------------
# parsing


class ExprContext:
    """Declarations an expression is parsed against: dimensions, chart
    order and parameter names."""

    def __init__(self, m, n=1, order=0, params=()):
        self.m = m
        self.n = n
        self.order = order
        self.params = set(params)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*'*)"
    r"|(?P<punct>\*\*|[()\[\],+\-*/^]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        msr = _TOKEN_RE.match(text, pos)
        if msr is None or msr.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError("unexpected character %r" % text[pos], text, pos)
        if msr.lastgroup is not None:
            kind = msr.lastgroup
            value = msr.group(kind)
            tokens.append((kind, value, msr.start(kind)))
        pos = msr.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, ctx):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0
        self.saw_decimal = False

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError("expected %r, found %r" % (value, val or "end"), self.text, pos)

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input %r" % val, self.text, pos)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if val == "+":
                self.next()
                e = e + self.term()
            elif val == "-":
                self.next()
                e = e - self.term()
            else:
                return e

    def term(self):
        e = self.power()
        while True:
            kind, val, pos = self.peek()
            if val == "*":
                self.next()
                e = e * self.power()
            elif val == "/":
                self.next()
                rhs = self.power()
                try:
                    e = e / rhs
                except ZeroDivisionError:
                    raise ParseError("division by zero", self.text, pos)
            else:
                return e

    def power(self):
        e = self.unary()
        kind, val, _ = self.peek()
        if val in ("^", "**"):
            self.next()
            e = e ** self.int_literal()
        return e

    def int_literal(self):
        sign = 1
        kind, val, pos = self.peek()
        if val == "-":
            self.next()
            sign = -1
        kind, val, pos = self.next()
        if kind != "number" or "." in val:
            raise ParseError("expected an integer exponent", self.text, pos)
        return sign * int(val)

    def unary(self):
        kind, val, _ = self.peek()
        if val == "-":
            self.next()
            return -self.unary()
        if val == "+":
            self.next()
            return self.unary()
        return self.postfix()

    def postfix(self):
        kind, val, pos = self.next()
        if kind == "number":
            if "." in val:
                self.saw_decimal = True
                return Expr.const(Fraction(val))
            return Expr.const(int(val))
        if val == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            return self.name(val, pos)
        raise ParseError("unexpected token %r" % (val or "end"), self.text, pos)

    def name(self, name, pos):
        ctx = self.ctx
        if name == "u" or (re.fullmatch(r"u\d+", name) and self.peek()[1] == "["):
            alpha = 1 if name == "u" else int(name[1:])
            return self.jet_variable(alpha, pos)
        mbase = re.fullmatch(r"x(\d+)", name)
        if mbase:
            i = int(mbase.group(1))
            if not 1 <= i <= ctx.m:
                raise ParseError("base variable %s out of range 1..%d" % (name, ctx.m), self.text, pos)
            return base(i)
        if name in ctx.params:
            if self.peek()[1] == "(":
                raise ParseError("parameter %r takes no arguments" % name, self.text, pos)
            return param(name)
        if self.peek()[1] == "(":
            return self.call(name, pos)
        raise ParseError("undeclared identifier %r" % name, self.text, pos)

    def call(self, name, pos):
        self.expect("(")
        args = [self.expr()]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        if primitive_registered(name):
            if len(args) != 1:
                raise ParseError("primitive %r takes one argument" % name, self.text, pos)
            return prim(name, args[0])
        raise ParseError("undeclared identifier %r" % name, self.text, pos)

    def jet_variable(self, alpha, pos):
        ctx = self.ctx
        self.expect("[")
        self.expect("(")
        entries = [self.int_entry()]
        while self.peek()[1] == ",":
            self.next()
            if self.peek()[1] == ")":
                break
            entries.append(self.int_entry())
        self.expect(")")
        self.expect("]")
        if alpha > ctx.n:
            raise ParseError("fiber component u%d exceeds fiber dimension %d" % (alpha, ctx.n), self.text, pos)
        if len(entries) != ctx.m:
            raise ParseError(
                "jet index %s has %d entries, expected %d" % (tuple(entries), len(entries), ctx.m),
                self.text, pos,
            )
        I = MultiIndex(entries)
        if I.degree > ctx.order:
            raise ParseError(
                "jet index %s exceeds order %d" % (_format_index(I), ctx.order),
                self.text, pos,
            )
        return jet(alpha, I)

    def int_entry(self):
        kind, val, pos = self.next()
        if kind != "number" or "." in val:
            raise ParseError("expected a nonnegative integer", self.text, pos)
        return int(val)


def parse_expr(text, ctx):
    """Parse an expression against the declared context.

    Raises ParseError with a position for syntax errors, undeclared
    identifiers, and jet indices beyond the declared order.
    """
    return _Parser(text, ctx).parse()


def parse_expr_flagged(text, ctx):
    """Like parse_expr but also reports whether a decimal literal occurred
    (decimal literals force float mode file-wide in the DSL)."""
    p = _Parser(text, ctx)
    e = p.parse()
    return e, p.saw_decimal


# ---------------------------------------------------------------------------
# seeded rational sampling (shared by property tests and samplers)


@functools.cache
def _rational_table(bound):
    """The rows (n/1, ..., n/bound) for n = -bound..bound, built once per
    bound."""
    return tuple(tuple(Fraction(n, d) for d in range(1, bound + 1))
                 for n in range(-bound, bound + 1))


def random_rational(rng, bound):
    """Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) read
    from the shared table by rng.choice(rng.choice(rows)), which draws
    the same values, in order, and leaves rng in the same state."""
    return rng.choice(rng.choice(_rational_table(bound)))
