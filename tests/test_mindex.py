import math

import pytest

from jetforge import jetcalc as jc
from jetforge.mindex import (
    MultiIndex,
    enumerate_indices,
    factorial,
    multinomial,
)


def test_graded_lex_order_m2():
    got = [tuple(I) for I in jc.JetChartSpec(2, 1, 2).indices]
    assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_graded_lex_order_m3_degree2():
    got = [tuple(I) for I in enumerate_indices(3, 2)]
    assert got == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def test_enumeration_counts_match_binomials():
    for m in range(1, 5):
        for k in range(0, 6):
            n_exact = len(enumerate_indices(m, k))
            assert n_exact == math.comb(m + k - 1, k)
            n_upto = sum(len(enumerate_indices(m, d)) for d in range(k + 1))
            assert n_upto == math.comb(m + k, k)


def test_sorted_graded_lex_is_idempotent_permutation():
    ordered = list(jc.JetChartSpec(3, 1, 3).indices)
    shuffled = list(reversed(ordered))
    assert sorted(shuffled, key=MultiIndex.graded_lex_key) == ordered


def test_factorial_and_multinomial_values():
    assert factorial(MultiIndex((2, 1))) == 2
    assert factorial(MultiIndex((3, 2))) == 12
    assert multinomial(MultiIndex((1, 1))) == 2
    assert multinomial(MultiIndex((2, 1))) == 3
    assert multinomial(MultiIndex((2, 2))) == 6
    assert multinomial(MultiIndex((0, 0))) == 1


def test_add_and_units():
    I = MultiIndex((1, 0, 2))
    assert tuple(I.add(MultiIndex((0, 1, 0)))) == (1, 1, 2)
    assert tuple(I.add_unit(2)) == (1, 1, 2)
    assert tuple(I.sub_unit(3)) == (1, 0, 1)
    with pytest.raises(ValueError):
        I.sub_unit(2)


def test_offset_returns_none_at_boundary():
    # A unit step off the nonnegative orthant, or along an axis out of
    # range, is refused by add_unit/sub_unit.
    J = MultiIndex((0, 1))
    with pytest.raises(ValueError):
        J.sub_unit(1)
    assert tuple(J.sub_unit(2)) == (0, 0)
    assert tuple(J.add_unit(1)) == (1, 1)
    with pytest.raises(ValueError):
        J.add_unit(3)
    with pytest.raises(ValueError):
        J.sub_unit(3)


def test_degree_and_keys():
    I = MultiIndex((2, 0, 1))
    assert I.degree == 3
    assert len(I) == 3
    a = MultiIndex((1, 0)).graded_lex_key()
    b = MultiIndex((0, 1)).graded_lex_key()
    assert a < b


@pytest.mark.parametrize("m,n,k", [(1, 1, 4), (2, 2, 3), (3, 1, 3), (4, 1, 2)])
def test_chart_indices_concatenate_the_degrees(m, n, k):
    # a jet chart's indices are every degree d <= k in turn, each in
    # the one graded-lex enumeration of that degree
    indices = jc.JetChartSpec(m, n, k).indices
    assert list(indices) == [I for d in range(k + 1) for I in enumerate_indices(m, d)]
    assert len(indices) == math.comb(m + k, k)


def test_enumeration_is_empty_below_degree_zero_and_refuses_m_below_one():
    assert enumerate_indices(2, -1) == []
    assert enumerate_indices(3, 0) == [MultiIndex.zero(3)]
    with pytest.raises(ValueError, match="base dimension"):
        enumerate_indices(0, 1)
