"""Polynomial, series, and combinatorial-number primitives."""

import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztt.exact import (
    Poly,
    Series,
    _over_lcm,
    bell_complete,
    bernoulli,
    binomial,
    det_exact,
    falling_factorial,
    format_rational,
    gen_binomial,
    parse_rational,
    stirling_first_unsigned,
    stirling_second,
    zeta_even_coeff,
)

F = Fraction


def test_poly_trims_and_compares():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([]) == Poly([0, 0])
    assert Poly([3]) == 3
    assert Poly([0, 1]) != Poly([1])


def test_poly_arithmetic():
    p = Poly([1, 2])
    q = Poly([3, 0, 1])
    assert p + q == Poly([4, 2, 1])
    assert p - q == Poly([-2, 2, -1])
    assert p * q == Poly([3, 6, 1, 2])
    assert -p == Poly([-1, -2])
    assert 2 * p == p * 2 == Poly([2, 4])


def test_poly_eval_and_coefficient():
    p = Poly([1, -3, 2])
    assert p(F(2)) == 3
    assert p(F(1, 2)) == 0
    assert p.coefficient(1) == -3
    assert p.coefficient(7) == 0
    assert Poly([])(F(5)) == 0


def test_integer_arithmetic_stays_integer():
    p, q = Poly([1, -2, 3]), Poly([0, 4])
    for poly in (p * q, p + q, p - q, 3 * p):
        assert all(type(c) is int for c in poly.coeffs), poly
    s = Series(3, [Poly([1]), p]) * Series(3, [Poly([1]), q])
    assert all(type(c) is int for poly in s.coeffs for c in poly.coeffs)
    assert type(bell_complete([2, 3, 5], 3)) is int
    assert bell_complete([2, 3, 5], 3) == bell_complete([F(2), F(3), F(5)], 3) == 31


def test_series_truncation():
    a = Series(2, [1, 1, 1])
    b = Series(2, [1, -1])
    c = a * b
    assert c.coeffs == (F(1), F(0), F(0))
    with pytest.raises(ValueError):
        a * Series(3, [1, 0, 0, 0])


@pytest.mark.parametrize("ring", [int, F, lambda c: Poly([c])], ids=["int", "Fraction", "Poly"])
def test_series_keeps_its_ring(ring):
    kind = type(ring(1))
    # sparse operands: the product skips the zero terms of the right factor
    a = Series(3, [ring(1), ring(0), ring(2)])
    b = Series(3, [ring(0), ring(3), ring(0), ring(5)])
    c = a * b
    assert c.coeffs == tuple(ring(x) for x in (0, 3, 0, 11))
    assert (b * a).coeffs == c.coeffs
    for s in (a, b, c, a * Series.one(3)):
        assert all(type(x) is kind for x in s.coeffs), s
    assert Series.one(3).coeffs == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        a * Series(2, [ring(1)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=6),
       st.lists(st.integers(-9, 9), max_size=6),
       st.integers(-4, 4))
def test_poly_mul_is_eval_homomorphism(a, b, x):
    p, q = Poly(a), Poly(b)
    t = F(x)
    assert (p * q)(t) == p(t) * q(t)
    assert (p + q)(t) == p(t) + q(t)


def test_binomial_table_and_reflection():
    for n in range(12):
        for k in range(12):
            assert binomial(n, k) == comb(n, k)
    assert binomial(5, -1) == 0
    # negative upper index: C(-n,k) = (-1)^k C(n+k-1,k)
    assert binomial(-3, 2) == 6
    assert binomial(-1, 5) == -1
    assert isinstance(binomial(-3, 2), int)


def test_gen_binomial_rational_argument():
    assert gen_binomial(F(1, 2), 2) == F(-1, 8)
    assert gen_binomial(F(7, 2), 0) == 1
    assert gen_binomial(5, 2) == 10


def test_falling_factorial():
    assert falling_factorial(6, 3) == 120
    assert falling_factorial(F(1, 2), 2) == F(-1, 4)
    assert falling_factorial(4, 0) == 1
    assert isinstance(falling_factorial(6, 3), int)


def test_stirling_numbers():
    # row n=4 of the unsigned first kind: 0, 6, 11, 6, 1
    assert [stirling_first_unsigned(4, k) for k in range(5)] == [0, 6, 11, 6, 1]
    assert [stirling_second(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert stirling_second(0, 0) == 1
    assert stirling_first_unsigned(0, 0) == 1
    assert stirling_second(3, 5) == 0
    # recurrence spot check at a larger index
    assert stirling_second(10, 3) == 9330
    assert stirling_first_unsigned(10, 3) == 1172700
    # rows are built bottom-up, so a large n meets no recursion limit
    assert stirling_second(1500, 3) == (3**1500 - 3 * 2**1500 + 3) // 6
    assert stirling_first_unsigned(1500, 1) == factorial(1499)
    with pytest.raises(ValueError, match="needs n >= 0"):
        stirling_second(-1, 0)
    with pytest.raises(ValueError, match="k must be an integer"):
        stirling_first_unsigned(5, 2.0)


def test_bernoulli_numbers():
    known = {0: F(1), 1: F(-1, 2), 2: F(1, 6), 4: F(-1, 30), 6: F(1, 42),
             8: F(-1, 30), 3: F(0), 5: F(0)}
    for m, v in known.items():
        assert bernoulli(m) == v


def test_zeta_even_coefficients():
    # zeta(2j) = coeff * pi^(2j)
    assert zeta_even_coeff(1) == F(1, 6)
    assert zeta_even_coeff(2) == F(1, 90)
    assert zeta_even_coeff(3) == F(1, 945)


def test_bell_complete():
    with pytest.raises(ValueError):
        bell_complete([F(2)], 3)
    # B_3(1,1,1) = 5 (Bell number); with x2 = x3 = 0 it collapses to x1^3
    assert bell_complete([F(1), F(1), F(1)], 3) == 5
    assert bell_complete([F(3), F(0), F(0)], 3) == 27
    assert bell_complete([], 0) == 1


def test_det_exact():
    assert det_exact([[F(1), F(2)], [F(3), F(4)]]) == -2
    assert det_exact([[F(2)]]) == 2
    assert det_exact([]) == 1
    # needs pivoting
    assert det_exact([[F(0), F(1)], [F(1), F(0)]]) == -1
    # int and Fraction entries mixed in one matrix
    mixed = [[2, F(1, 2), 0], [F(-3, 4), 3, F(5, 6)], [1, F(1, 3), 5]]
    assert det_exact(mixed) == _leibniz_det(mixed) == F(2285, 72)
    assert type(det_exact(mixed)) is F
    # a matrix whose first pivot is zero
    swap = [[0, F(1, 2), 1], [F(3, 2), 2, F(-1, 3)], [F(1, 5), 0, 3]]
    assert det_exact(swap) == _leibniz_det(swap)
    assert det_exact(swap) != 0
    # singular: no pivot left in the second column after the first step
    assert det_exact([[1, 2, 3], [2, 4, 5], [3, 6, 7]]) == 0


def test_over_lcm():
    assert _over_lcm([3, -2, 0]) == (1, [3, -2, 0])
    assert _over_lcm([F(-5, 7)]) == (7, [-5])
    assert _over_lcm([]) == (1, [])
    # D is the lcm 12 of 4, 6 and 3, not their product 72
    assert _over_lcm([F(1, 4), F(-5, 6), 2, F(2, 3)]) == (12, [3, -10, 24, 8])


def _leibniz_det(rows):
    """Determinant as the signed sum over permutations, for small matrices."""
    total = F(0)
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        term = F(-1) ** inversions
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


_entries = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=5))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_exact_equals_leibniz(rows):
    # small integer ranges make zero pivots, and singular matrices, common
    assert det_exact(rows) == _leibniz_det(rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5))
def test_det_of_permuted_identity(n):
    rows = [[F(1) if j == (i + 1) % n else F(0) for j in range(n)]
            for i in range(n)]
    assert det_exact(rows) in (1, -1)


def test_rational_round_trip():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == -2
    assert parse_rational("0.25") == F(1, 4)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(8, 4)) == "2"
    assert format_rational(5) == "5"
    # past the interpreter's int-to-str digit limit, against str() with
    # the limit lifted
    big = F(10**5000 + 1, 3**9000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(big)
    finally:
        sys.set_int_max_str_digits(limit)
    assert format_rational(big) == expected
    assert format_rational(-big) == "-" + expected
    assert format_rational(big.numerator) == expected.split("/")[0]
    with pytest.raises(ValueError):
        parse_rational("three")


def test_parse_rational_caps_literal_size():
    # each refused literal is at most one step past a cap, so it is cheap
    # to build even where the caps are missing
    assert parse_rational("1e1000") == 10**1000
    assert parse_rational("-" + "9" * 1000) == 1 - 10**1000
    assert parse_rational("1E-1000") == F(1, 10**1000)
    for text in ("1e1001", "1e-1001", "2.5E+1001", "1" * 1001,
                 "0." + "1" * 1000, "1/" + "3" * 1000):
        with pytest.raises(ValueError):
            parse_rational(text)
