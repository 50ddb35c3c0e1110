import math

import pytest

from jetforge.mindex import (
    GradedIndexRange,
    MultiIndex,
    dim_F,
    enumerate_indices,
    factorial,
    multinomial,
)


def test_graded_lex_order_m2():
    got = [tuple(I) for I in enumerate_indices(GradedIndexRange(2, 0, 2))]
    assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_graded_lex_order_m3_degree2():
    got = [tuple(I) for I in enumerate_indices(GradedIndexRange(3, 2, 2))]
    assert got == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def test_enumeration_counts_match_binomials():
    for m in range(1, 5):
        for k in range(0, 6):
            n_exact = len(list(enumerate_indices(GradedIndexRange(m, k, k))))
            assert n_exact == math.comb(m + k - 1, k)
            n_upto = dim_F(GradedIndexRange(m, 0, k))
            assert n_upto == math.comb(m + k, k)


def test_sorted_graded_lex_is_idempotent_permutation():
    rng = GradedIndexRange(3, 0, 3)
    ordered = list(enumerate_indices(rng))
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
