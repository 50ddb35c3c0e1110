"""Multi-index algebra for jet coordinates and symmetric-power bases.

A multi-index I = (i_1, ..., i_m) labels the jet coordinate u^alpha_I
(the partial derivative d^|I| / dx^I) as well as the monomial xi^I in the
symmetric power Sym^|I| of covectors.  Everything downstream that is
indexed by multi-indices (prolongation components, symbol matrices,
kernel bases) uses one canonical enumeration order, defined here, so
that pivoting and golden outputs are reproducible.
"""

from __future__ import annotations

import math


class MultiIndex(tuple):
    """Exponent tuple in N^m.

    The length of the tuple is the base dimension m; it is carried
    explicitly and mixing lengths raises instead of broadcasting.
    """

    def __new__(cls, entries):
        entries = tuple(int(e) for e in entries)
        if any(e < 0 for e in entries):
            raise ValueError("multi-index entries must be nonnegative: %r" % (entries,))
        return super().__new__(cls, entries)

    @classmethod
    def _trusted(cls, entries):
        """A multi-index from entries known to be nonnegative ints:
        internal arithmetic skips the conversion and the sign scan."""
        return tuple.__new__(cls, entries)

    @property
    def degree(self):
        return sum(self)

    def add(self, other):
        if not isinstance(other, MultiIndex):
            other = MultiIndex(other)
        if len(other) != len(self):
            raise ValueError("dimension mismatch: %d vs %d" % (len(self), len(other)))
        return MultiIndex._trusted([a + b for a, b in zip(self, other)])

    def graded_lex_key(self):
        # degree ascending, then lexicographic with the first axis dominant:
        # (1,0) sorts before (0,1).
        return (self.degree, tuple(-e for e in self))

    def add_unit(self, i):
        """I + 1_i (1-based axis)."""
        if not 1 <= i <= len(self):
            raise ValueError("axis %d out of range 1..%d" % (i, len(self)))
        return MultiIndex._trusted(self[: i - 1] + (self[i - 1] + 1,) + self[i:])

    def sub_unit(self, i):
        """I - 1_i; raises when the entry is already zero."""
        if not 1 <= i <= len(self):
            raise ValueError("axis %d out of range 1..%d" % (i, len(self)))
        if self[i - 1] == 0:
            raise ValueError("cannot decrement axis %d of %r" % (i, tuple(self)))
        return MultiIndex._trusted(self[: i - 1] + (self[i - 1] - 1,) + self[i:])

    @classmethod
    def zero(cls, m):
        return cls._trusted((0,) * m)

    @classmethod
    def unit(cls, m, i):
        """1_i, the multi-index with a single 1 in axis i (1-based)."""
        if not 1 <= i <= m:
            raise ValueError("axis %d out of range 1..%d" % (i, m))
        return cls._trusted([1 if j == i - 1 else 0 for j in range(m)])


def _compositions(total, parts):
    # weak compositions of `total` into `parts` slots, first slot largest
    # first; this realizes the lexicographic part of the canonical order.
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def enumerate_indices(m, q):
    """All I in N^m with |I| = q, in graded lexicographic order: weight
    on earlier axes comes first, e.g. (2,0), (1,1), (0,2).  Empty for
    q < 0.  Several degrees in a row are the `indices` of a jet chart.
    """
    if m < 1:
        raise ValueError("base dimension must be >= 1")
    if q < 0:
        return []
    return [MultiIndex._trusted(c) for c in _compositions(q, m)]


def factorial(I: MultiIndex):
    """I! = product of the entrywise factorials."""
    out = 1
    for e in I:
        out *= math.factorial(e)
    return out


def multinomial(I: MultiIndex):
    """|I|! / I!, the number of ways to realize the monomial xi^I."""
    return math.factorial(MultiIndex(I).degree) // factorial(I)

