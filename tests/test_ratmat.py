"""Exact rational linear algebra: the kit every other module leans on.

Claims covered:
    - matrix product/power agree with naive definitions, exactly
    - rref produces a reduced echelon basis with the right rank
    - inverse() really inverts over Q and refuses singular input
    - char_poly matches hand-computed polynomials (companion, diagonal)
    - polynomial division, gcd, square-free part, and zero-root stripping
      behave on exact integer/rational coefficients
"""

from fractions import Fraction

import pytest

from sftlab import ratmat
from sftlab.errors import InternalInvariantViolation


F = Fraction


def test_mat_mul_matches_naive():
    a = ratmat.frac_matrix([[1, 2], [3, 4]])
    b = ratmat.frac_matrix([[5, 6], [7, 8]])
    assert ratmat.mat_mul(a, b) == ratmat.frac_matrix([[19, 22], [43, 50]])


def test_mat_pow_by_squaring_matches_repeated_mul():
    a = ratmat.frac_matrix([[1, 1], [1, 0]])
    by_mul = ratmat.identity(2)
    for n in range(8):
        assert ratmat.mat_pow(a, n) == by_mul
        by_mul = ratmat.mat_mul(by_mul, a)


def test_mat_pow_rejects_negative():
    with pytest.raises(ValueError):
        ratmat.mat_pow(ratmat.identity(2), -1)


def test_vec_mat_is_row_vector_convention():
    a = ratmat.frac_matrix([[0, 1], [2, 3]])
    assert ratmat.vec_mat((F(1), F(1)), a) == (F(2), F(4))


def test_rref_full_rank():
    basis, pivots = ratmat.rref(ratmat.frac_matrix([[2, 0], [1, 1]]))
    assert basis == ratmat.identity(2)
    assert pivots == (0, 1)


def test_rref_rank_deficient():
    # rank one: second row is twice the first
    basis, pivots = ratmat.rref(ratmat.frac_matrix([[1, 2], [2, 4]]))
    assert basis == ((F(1), F(2)),)
    assert pivots == (0,)


def test_rref_pivot_columns_are_standard_basis():
    m = ratmat.frac_matrix([[1, 2, 3], [0, 1, 4], [1, 3, 7]])
    basis, pivots = ratmat.rref(m)
    for i, row in enumerate(basis):
        for j, p in enumerate(pivots):
            assert row[p] == (1 if i == j else 0)


def test_inverse_roundtrip_exact():
    a = ratmat.frac_matrix([[1, 1], [1, 0]])
    inv = ratmat.inverse(a)
    assert ratmat.mat_mul(a, inv) == ratmat.identity(2)
    assert ratmat.mat_mul(inv, a) == ratmat.identity(2)
    assert inv == ratmat.frac_matrix([[0, 1], [1, -1]])


def test_inverse_rejects_singular():
    with pytest.raises(InternalInvariantViolation):
        ratmat.inverse(ratmat.frac_matrix([[1, 2], [2, 4]]))


def test_char_poly_companion():
    # companion matrix of t^3 - 5t^2 - 6t + 1
    c = [[5, 6, -1], [1, 0, 0], [0, 1, 0]]
    assert ratmat.char_poly(c) == [1, -5, -6, 1]


def test_char_poly_small_cases():
    assert ratmat.char_poly([[2]]) == [1, -2]
    assert ratmat.char_poly([[1, 1], [1, 0]]) == [1, -1, -1]
    assert ratmat.char_poly([[2, 0], [0, 3]]) == [1, -5, 6]


def test_char_poly_fraction_entries():
    a = ratmat.frac_matrix([[F(1, 2), 0], [0, F(1, 3)]])
    assert ratmat.char_poly(a) == [F(1), F(-5, 6), F(1, 6)]


def test_poly_derivative():
    p = [1, -1, -1]  # t^2 - t - 1
    assert ratmat.poly_derivative(p) == [2, -1]
    assert ratmat.poly_derivative([7]) == [0]


def test_poly_divmod_exact_division():
    quot, rem = ratmat.poly_divmod([1, 0, -1], [1, -1])  # (t^2-1)/(t-1)
    assert quot == [F(1), F(1)]
    assert rem == [F(0)]


def test_poly_divmod_with_remainder():
    quot, rem = ratmat.poly_divmod([1, 0, 0], [1, -1])  # t^2 = (t+1)(t-1) + 1
    assert quot == [F(1), F(1)]
    assert rem == [F(1)]


def test_poly_gcd_common_factor():
    # gcd((t-1)(t+1), (t-1)^2) = t - 1, returned monic
    g = ratmat.poly_gcd([1, 0, -1], [1, -2, 1])
    assert g == [F(1), F(-1)]


def test_poly_gcd_coprime():
    g = ratmat.poly_gcd([1, 0, -1], [1, 0, -2])
    assert g == [F(1)]


def test_squarefree_part_removes_multiplicity():
    # (t-1)^2 (t-2) = t^3 - 4t^2 + 5t - 2  ->  (t-1)(t-2) = t^2 - 3t + 2
    assert ratmat.squarefree_part([1, -4, 5, -2]) == [1, -3, 2]


def test_squarefree_part_of_squarefree_is_primitive_copy():
    assert ratmat.squarefree_part([2, -2]) == [1, -1]


def test_strip_zero_roots():
    assert ratmat.strip_zero_roots([1, -5, -6, 1]) == (0, [1, -5, -6, 1])
    assert ratmat.strip_zero_roots([1, -1, 0, 0]) == (2, [1, -1])
    assert ratmat.strip_zero_roots([1]) == (0, [1])
