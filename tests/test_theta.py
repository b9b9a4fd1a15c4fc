"""The five polynomial constructions and their closed-form relatives."""

import itertools
import json
import math
import operator
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ztt.distributions import (
    _mzv_dp_float,
    bezier_coeffs,
    d_n_pmf,
    hypergeom_moments,
    hypergeom_pmf,
    limit_scan,
    marginal_mass,
    marginal_moments,
    marginal_pmf,
    marginal_zeta_pgf,
    moments,
    negbin_pmf,
    pmf_from_masses,
    pmf_moments,
    poisson_pmf,
    s_pmf,
    sum_theorem_pmf,
)
from ztt.exact import (Poly, Series, binomial, stirling_first_unsigned, stirling_second,
                       zeta_even_coeff)
from ztt.oracle import compositions, theta_bruteforce, theta_marginal_bruteforce
from ztt.theta import (
    ALGORITHMS,
    _bernstein_to_power,
    _divide_exact,
    _elementary_scaled,
    _factor_product,
    _homogeneous_scaled,
    _newton_eh,
    _newton_identity,
    _power_sums_scaled,
    _strict_block,
    GradedValue,
    ThetaPoly,
    closed_form_ones_bivariate,
    complete_homogeneous,
    elementary_symmetric,
    multiple_harmonic,
    partition_series,
    prodinger_half,
    theta_infinite_zeta,
    theta_bell,
    theta_convolution,
    theta_det,
    theta_multi_eval,
    theta_newton,
    theta_newton_ladder,
    theta_ordered_partitions,
    theta_partial_fraction,
    theta_product,
    theta_qt,
    zeta_star_ones,
    zeta_t_ones,
)
from ztt.verify import random_customs
from ztt.weights import (
    CustomWeights,
    LinearWeights,
    OnesWeights,
    QModifiedWeights,
    WeightConfigError,
    ZetaWeights,
    _scaled_weights,
    power_sum,
    weight_at,
)

F = Fraction
BUILTINS = (OnesWeights(), LinearWeights(), ZetaWeights(1), ZetaWeights(2))


def test_theta_poly_container():
    tp = theta_newton(OnesWeights(), 3, 2)
    assert tp.poly == Poly([3, 3])
    assert tp.at(F(1, 2)) == F(9, 2)
    assert tp.total() == 6
    assert tp.coefficients == (F(3), F(3))
    with pytest.raises(ValueError):
        theta_newton(OnesWeights(), 0, 2)
    with pytest.raises(ValueError):
        theta_newton(OnesWeights(), 3, -1)


def test_all_algorithms_small_grid():
    for seq in BUILTINS:
        for n in range(1, 6):
            for k in range(0, 6):
                polys = {name: fn(seq, n, k).poly
                         for name, fn in ALGORITHMS.items()}
                vals = set(polys.values())
                assert len(vals) == 1, (seq, n, k, polys)
                assert polys["newton"] == theta_bruteforce(seq, n, k)


# builtins, a custom list with repeated values, and a q-scaled family
CROSS_CHECK_WEIGHTS = BUILTINS + (
    CustomWeights((F(3, 4), F(5), F(3, 4), F(2, 9), F(5))),
    QModifiedWeights(ZetaWeights(1), F(2, 3)),
)


@pytest.mark.parametrize("seq", CROSS_CHECK_WEIGHTS,
                         ids=("ones", "linear", "zeta1", "zeta2", "custom", "qzeta1"))
def test_scaled_cross_check_routes_equal_references(seq):
    # product, bell, det and qt run on L-scaled integers; the Fraction
    # convolution and the oracle referee them, and the result is Fractions
    for n in range(1, 6):
        for k in range(0, 6):
            ref = theta_convolution(seq, n, k).poly
            assert ref == theta_bruteforce(seq, n, k), (seq, n, k)
            for fn in (theta_product, theta_bell, theta_det):
                poly = fn(seq, n, k).poly
                assert poly == ref, (fn.__name__, seq, n, k)
                assert all(type(c) is Fraction for c in poly.coeffs), (fn.__name__, poly)
            for q in (F(1, 2), F(2)):
                poly = theta_qt(seq, n, k, q).poly
                assert poly == theta_bruteforce(seq, n, k, q=q), (seq, n, k, q)
                assert poly == theta_convolution(QModifiedWeights(seq, q), n, k).poly
                assert all(type(c) is Fraction for c in poly.coeffs), poly


def test_integer_arguments_refuse_bool_and_float():
    for call in (lambda: multiple_harmonic(3, (True, 2)),
                 lambda: multiple_harmonic(3.0, (2,)),
                 lambda: theta_infinite_zeta(2, True),
                 lambda: theta_infinite_zeta(2.0, 2),
                 lambda: theta_newton(ZetaWeights(1), True, 2),
                 lambda: theta_product(ZetaWeights(1), True, 2),
                 lambda: theta_newton(ZetaWeights(1), 3, 2.0),
                 lambda: theta_ordered_partitions(True, 3, 2),
                 lambda: zeta_star_ones(3, 2.0),
                 lambda: zeta_star_ones(True, 2)):
        with pytest.raises(ValueError, match="must be an integer"):
            call()


@pytest.mark.parametrize("call", [
    lambda: weight_at(LinearWeights(), True),
    lambda: weight_at(LinearWeights(), 2.0),
    lambda: power_sum(LinearWeights(), True, 2),
    lambda: power_sum(LinearWeights(), 3, True),
    lambda: power_sum(LinearWeights(), 3.0, 2),
    lambda: theta_bruteforce(OnesWeights(), True, 2),
    lambda: theta_bruteforce(OnesWeights(), 2.0, 2),
    lambda: theta_bruteforce(OnesWeights(), 2, True),
    lambda: elementary_symmetric(OnesWeights(), True, 2),
    lambda: elementary_symmetric(OnesWeights(), 2.0, 2),
    lambda: elementary_symmetric(OnesWeights(), 2, 2.0),
    lambda: complete_homogeneous(OnesWeights(), True, 2),
    lambda: complete_homogeneous(OnesWeights(), 2.0, 2),
    lambda: complete_homogeneous(OnesWeights(), 2, True),
    lambda: partition_series(True, 3),
    lambda: marginal_pmf(3, True),
    lambda: marginal_mass(3, 2, True),
    lambda: moments(OnesWeights(), 3, 2, True),
    lambda: d_n_pmf(True, 1),
    lambda: d_n_pmf(3, True),
    lambda: sum_theorem_pmf(True, 3),
    lambda: bezier_coeffs(True, 3),
    lambda: negbin_pmf(True, 0.5, 3),
    lambda: theta_marginal_bruteforce(OnesWeights(), 3, 2, True),
    lambda: marginal_zeta_pgf(3, 2, True, 0),
    lambda: list(compositions(True)),
    lambda: GradedValue(True, 1),
    lambda: moments(OnesWeights(), 3, 2, 2.0),
    lambda: pmf_moments(pmf_from_masses(0, [1, 1]), 2.0),
    lambda: marginal_moments(3, 2, 2.0),
    lambda: hypergeom_moments(4, 2, 2, 2.0),
    lambda: poisson_pmf(1.0, 2.5),
    lambda: limit_scan("dn_zeta1", [10.7]),
    lambda: hypergeom_pmf(4, True, 2),
], ids=["weight_at-bool", "weight_at-float", "power_sum-bool-n", "power_sum-bool-j",
        "power_sum-float-n", "bruteforce-bool-n", "bruteforce-float-n", "bruteforce-bool-k",
        "e-bool-n", "e-float-n", "e-float-k", "h-bool-n", "h-float-n", "h-bool-k",
        "partition_series-bool-n", "marginal_pmf-bool-k", "marginal_mass-bool-j",
        "moments-bool-smax", "d_n_pmf-bool-n", "d_n_pmf-bool-exponent",
        "sum_theorem-bool-n", "bezier-bool-n", "negbin-bool-r",
        "marginal_bruteforce-bool-i", "marginal_zeta_pgf-bool-i", "compositions-bool-k",
        "graded-bool-weight", "moments-float-smax", "pmf_moments-float-smax",
        "marginal_moments-float-smax", "hypergeom_moments-float-smax",
        "poisson-float-cutoff", "limit_scan-float-point", "hypergeom_pmf-bool-K"])
def test_integer_guard_reaches_weights_oracle_and_references(call):
    # the one guard of ztt.exact, below every module: bool and float refused
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: moments(OnesWeights(), 3, 2, 0), "needs s_max >= 1, got 0"),
    (lambda: sum_theorem_pmf(3, 3), "needs k >= 4, got 3"),
    (lambda: marginal_pmf(1, 2), "needs n >= 2, got 1"),
    (lambda: theta_marginal_bruteforce(OnesWeights(), 0, 2, 1), "needs n >= 1, got 0"),
    (lambda: multiple_harmonic(3, (0,)), "needs every index >= 1, got 0"),
], ids=["moments-smax", "sum_theorem-k", "marginal-n", "marginal_bruteforce-n",
        "multiple_harmonic-index"])
def test_integer_guard_range_message(call, message):
    # the lower bound is the guard's too, and its message names it
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_support_window():
    # coefficients live between max(0, k-n) and k-1
    for n in range(1, 6):
        for k in range(1, 8):
            poly = theta_newton(OnesWeights(), n, k).poly
            assert poly.degree == k - 1
            low = max(0, k - n)
            assert all(poly.coefficient(i) == 0 for i in range(low))
            assert poly.coefficient(low) != 0


def test_newton_ladder_prefix_consistency():
    seq = ZetaWeights(1)
    ladder = theta_newton_ladder(seq, 4, 6)
    assert len(ladder) == 7
    assert ladder[0] == Poly([1])
    for k in range(7):
        assert ladder[k] == theta_newton(seq, 4, k).poly


def test_endpoints_ones():
    for n in range(1, 12):
        ladder = theta_newton_ladder(OnesWeights(), n, 8)
        for k in range(9):
            assert ladder[k](F(0)) == binomial(n, k)
            assert ladder[k](F(1)) == binomial(n + k - 1, k)


def test_endpoints_linear():
    for n in range(1, 8):
        ladder = theta_newton_ladder(LinearWeights(), n, 6)
        for k in range(7):
            assert ladder[k](F(0)) == stirling_first_unsigned(n + 1, n + 1 - k)
            assert ladder[k](F(1)) == stirling_second(n + k, n)


def test_partial_fraction():
    seq = CustomWeights((F(1), F(2), F(5, 3)))
    for n in (1, 2, 3):
        for k in (1, 2, 4):
            poly = theta_newton(seq, n, k).poly
            for t0 in (F(1, 3), F(1), F(7, 2)):
                assert theta_partial_fraction(seq, n, k, t0) == poly(t0)
    assert theta_partial_fraction(seq, 3, 0, F(1, 2)) == 1
    with pytest.raises(ValueError):
        theta_partial_fraction(seq, 3, 2, F(0))
    with pytest.raises(ValueError, match="pairwise distinct"):
        theta_partial_fraction(OnesWeights(), 2, 2, F(1, 2))
    repeated = CustomWeights((F(1, 2), F(3), F(1, 2)))
    with pytest.raises(ValueError, match="pairwise distinct"):
        theta_partial_fraction(repeated, 3, 2, F(1, 2))
    # only a_1..a_n are read, and those are distinct at n = 2
    value = theta_newton(repeated, 2, 2).at(F(1, 2))
    assert theta_partial_fraction(repeated, 2, 2, F(1, 2)) == value


def test_multiple_harmonic():
    assert multiple_harmonic(5, ()) == 1
    assert multiple_harmonic(3, (1,)) == F(11, 6)
    # depth 1: the generalized harmonic numbers H_n^(s)
    assert multiple_harmonic(4, (1,)) == F(25, 12)
    assert multiple_harmonic(3, (2,)) == F(49, 36)
    assert multiple_harmonic(0, (1,)) == 0
    # strict double sum over 3 >= a > b >= 1
    assert multiple_harmonic(3, (1, 1)) == F(1, 2) + F(1, 3) + F(1, 6)
    assert multiple_harmonic(2, (1, 1, 1)) == 0
    assert multiple_harmonic(0, (2,)) == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12), st.lists(st.integers(1, 4), max_size=13),
       st.integers(1, 13), st.integers(0, 40))
@example(5, [], 1, 40)
@example(2, [1, 2, 3], 2, 40)
@example(12, [1] * 12 + [2], 7, 40)
def test_strict_step_against_chain_sums(n, idx, cut, n_float):
    # every chain n >= l_1 > ... > l_d >= 1, summed term by term: this shares
    # nothing with _strict_block, the step multiple_harmonic and the float
    # helpers run
    chains = itertools.combinations(range(n, 0, -1), len(idx))
    want = sum((math.prod(Fraction(1, l**s) for l, s in zip(chain, idx)) for chain in chains),
               Fraction(0))
    assert multiple_harmonic(n, idx) == want
    # two blocks chain through the carried values to the same sums
    vals = [Fraction(1)] + [Fraction(0)] * len(idx)
    for ms in (range(1, min(cut, n + 1)), range(min(cut, n + 1), n + 1)):
        _strict_block([[Fraction(1, m**s) for m in ms] for s in reversed(idx)], vals)
    assert vals[-1] == want
    # floats, on indices >= 2 and N <= 40 outer indices: a term m^-s is
    # within 2 roundings, its product with the inner level one more, and the
    # level's sum of at most N positive terms N - 1 more, so a suffix of
    # depth d is within d (N + 2) 2^-53 relative of its exact value
    big = [s + 1 for s in idx]
    for j, got in enumerate(_mzv_dp_float(big, n_float)):
        exact = multiple_harmonic(n_float, big[j:])
        assert abs(Fraction(got) - exact) <= (len(big) - j) * (n_float + 2) * 2**-53 * exact, j


def test_zeta_star_and_t_values():
    assert zeta_star_ones(2, 2) == F(7, 4)
    assert zeta_star_ones(3, 2) == F(85, 36)
    for n in range(1, 9):
        ladder = theta_newton_ladder(ZetaWeights(1), n, 6)
        for k in range(1, 7):
            assert zeta_t_ones(n, k, 1) == zeta_star_ones(n, k)
            assert zeta_t_ones(n, k, F(1, 2)) == ladder[k](F(1, 2))
            assert zeta_t_ones(n, k, F(1, 2)) == prodinger_half(n, k)
            assert zeta_t_ones(n, k, F(2)) == ladder[k](F(2))
    # depth-k chain over a single index collapses to t^(k-1)
    for k in range(1, 6):
        assert zeta_t_ones(1, k, F(3)) == F(3) ** (k - 1)
    assert zeta_t_ones(2, 0, F(1)) == 1
    with pytest.raises(ValueError):
        zeta_t_ones(2, 2, F(0))
    with pytest.raises(ValueError):
        prodinger_half(2, 0)


def test_ordered_partition_sum():
    for m in (1, 2):
        for n in range(1, 6):
            for k in range(0, 6):
                lhs = theta_ordered_partitions(m, n, k)
                rhs = theta_product(ZetaWeights(m), n, k)
                assert lhs.poly == rhs.poly


def test_multi_eval_collapse_and_symmetry():
    seq = ZetaWeights(1)
    poly = theta_newton(seq, 3, 4).poly
    for t0 in (F(0), F(1), F(2, 5)):
        assert theta_multi_eval(seq, 3, 4, (t0, t0, t0)) == poly(t0)
    # equal weights make the per-value variables exchangeable
    ones = OnesWeights()
    tvec = (F(1, 2), F(3), F(0))
    ref = theta_multi_eval(ones, 3, 4, tvec)
    assert theta_multi_eval(ones, 3, 4, (F(3), F(0), F(1, 2))) == ref
    assert theta_multi_eval(ones, 3, 4, (F(0), F(1, 2), F(3))) == ref
    with pytest.raises(ValueError):
        theta_multi_eval(seq, 3, 4, (F(1), F(1)))


def test_qt_refinement():
    seq = OnesWeights()
    for q in (F(1, 2), F(1), F(3)):
        for n in range(1, 5):
            for k in range(0, 5):
                direct = theta_qt(seq, n, k, q).poly
                wrapped = theta_newton(QModifiedWeights(seq, q), n, k).poly
                assert direct == wrapped
    assert theta_qt(seq, 2, 2, F(1, 2)).poly == Poly([F(1, 8), F(5, 16)])
    with pytest.raises(ValueError):
        theta_qt(seq, 2, 2, F(0))


def test_partition_series_values():
    assert partition_series(3, 6) == (1, 1, 2, 3, 4, 5, 7)
    assert partition_series(1, 4) == (1, 1, 1, 1, 1)
    assert partition_series(6, 6) == (1, 1, 2, 3, 5, 7, 11)
    assert partition_series(0, 3) == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        partition_series(-1, 3)
    with pytest.raises(ValueError):
        partition_series(3, -1)


def test_graded_value_algebra():
    a = GradedValue(2, F(1, 6))
    b = GradedValue(2, F(1, 3))
    assert a + b == GradedValue(2, F(1, 2))
    assert a * b == GradedValue(4, F(1, 18))
    assert a / b == F(1, 2)
    zero = GradedValue(3, F(0))
    assert a + zero == a
    assert zero + a == a
    with pytest.raises(ValueError):
        a + GradedValue(3, F(1))
    assert a != GradedValue(3, F(1, 6))
    assert GradedValue(5, F(0)) == GradedValue(9, F(0))


def test_infinite_zeta_values():
    assert theta_infinite_zeta(2, 2, 0) == GradedValue(2, F(1, 120))
    assert theta_infinite_zeta(2, 2, 1) == GradedValue(2, F(7, 360))
    for k in range(1, 6):
        want = GradedValue(k, F(1, factorial(2 * k + 1)))
        assert theta_infinite_zeta(2, k, 0) == want
    poly = theta_infinite_zeta(2, 2)
    assert poly.coefficient(0) == GradedValue(2, F(1, 120))
    assert poly.coefficient(1) == GradedValue(2, F(1, 90))
    # weight-4 depth-2 values at m=4
    assert theta_infinite_zeta(4, 2, 0) + theta_infinite_zeta(4, 1, 0) * 0 \
        == theta_infinite_zeta(4, 2, 0)
    with pytest.raises(ValueError):
        theta_infinite_zeta(3, 2, 0)
    with pytest.raises(ValueError):
        theta_infinite_zeta(0, 2, 0)


def test_infinite_zeta_closed_form_endpoints():
    # theta_infinite_zeta(2, k) = sum_a zeta*({2}_a) zeta({2}_{k-a}) t^a (1-t)^(k-a),
    # with zeta({2}_j) = pi^(2j)/(2j+1)! and zeta*({2}_a) = 2(1 - 2^(1-2a)) zeta(2a)
    # from sin(pi x)/(pi x) = prod_m (1 - x^2/m^2) (Hoffman 1992)
    def star(a):
        return F(1) if a == 0 else 2 * (1 - F(2) ** (1 - 2 * a)) * zeta_even_coeff(a)

    for t in (F(1, 3), F(2), F(-5, 7)):
        for k in range(13):
            want = sum(star(a) / factorial(2 * (k - a) + 1) * t**a * (1 - t) ** (k - a)
                       for a in range(k + 1))
            assert theta_infinite_zeta(2, k, t) == GradedValue(k, want), (t, k)
    # the two Newton identities on p_j = zeta(2j) give the endpoints themselves
    zetas = [None] + [GradedValue(j, zeta_even_coeff(j)) for j in range(1, 13)]
    hs, es = _newton_eh(zetas, 12, GradedValue(0, 1), operator.truediv)
    for a in range(13):
        assert hs[a] == GradedValue(a, star(a)), a
        assert es[a] == GradedValue(a, F(1, factorial(2 * a + 1))), a


def test_infinite_zeta_pinned():
    # every coefficient for m in {2, 4, 6} and k <= 10, recorded from the
    # earlier alpha-list ladder, which multiplied dense alpha_j(t) lists
    pinned = json.loads((Path(__file__).parent / "golden" / "theta_infinite_zeta.json").read_text())
    for m, rows in pinned.items():
        m = int(m)
        assert len(rows) == 11
        for k, row in enumerate(rows):
            got = theta_infinite_zeta(m, k).coeffs
            assert [(c.weight, c.coeff) for c in got] == [(m * k // 2, F(c)) for c in row], (m, k)


def test_bivariate_closed_form():
    for n in range(1, 9):
        for k in range(0, 9):
            assert closed_form_ones_bivariate(n, k) == \
                theta_product(OnesWeights(), n, k).poly


def _random_weights(max_size):
    """A few distinct weights with denominators up to 97, then a list of up
    to max_size drawn from them, so that the scale L^i is large and repeated
    weights occur."""
    return st.lists(
        st.builds(F, st.integers(1, 200), st.integers(1, 97)), min_size=1, max_size=4,
    ).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=max_size))


@settings(max_examples=25, deadline=None)
@given(_random_weights(12), st.integers(0, 10))
def test_product_equals_newton_on_random_weights(vals, k):
    # every rung of the Bernstein ladder against two independent routes
    seq = CustomWeights(tuple(vals))
    n = len(vals)
    ladder = theta_newton_ladder(seq, n, k)
    assert len(ladder) == k + 1
    for i, rung in enumerate(ladder):
        assert rung == theta_convolution(seq, n, i).poly, (vals, i)
        assert rung == theta_product(seq, n, i).poly, (vals, i)


def _series_factor_product(ints, ts, tscale, k):
    """[z^k] of prod_m (1 + sum_{j=1..k} b_m^j T t_m^(j-1) z^j), one full
    truncated Series product per factor: the O(n*k^2) form of the product."""
    acc = Series.one(k)
    for b, t in zip(ints, ts):
        coeffs = [1, b * tscale][:k + 1]
        while len(coeffs) <= k:
            coeffs.append(coeffs[-1] * b * t)
        acc = acc * Series(k, coeffs)
    return acc.coefficient(k)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=7)),
       st.integers(0, 8), st.integers(1, 6), st.data())
def test_factor_product_pass_equals_series_product(ints, k, tscale, data):
    # the forward pass over each factor's geometric tail against the full
    # per-factor Series product, on integer t_m (0 included) and on the Poly t
    ts = data.draw(st.lists(st.integers(0, 4), min_size=len(ints), max_size=len(ints)),
                   label="ts")
    assert _factor_product(ints, ts, tscale, k) == _series_factor_product(ints, ts, tscale, k)
    t = [Poly((0, 1))] * len(ints)
    assert _factor_product(ints, t, tscale, k) == _series_factor_product(ints, t, tscale, k)


@pytest.mark.parametrize("algo", [theta_det, theta_bell], ids=["det", "bell"])
@settings(max_examples=25, deadline=None)
@given(_random_weights(8), st.integers(0, 10))
def test_det_equals_newton_on_random_weights(algo, vals, k):
    # theta_det and theta_bell interpolate k! L^k theta_k from its values at
    # t = 0..k-1 and share no step with Newton's identities
    seq = CustomWeights(tuple(vals))
    n = len(vals)
    assert algo(seq, n, k).poly == theta_newton(seq, n, k).poly, (vals, k)


@settings(max_examples=25, deadline=None)
@given(_random_weights(6), st.integers(1, 8))
def test_eh_kernel_laws_on_random_weights(vals, k):
    # s_pmf and moments run on the integer e/h kernel; the oracle and the
    # Newton ladder reach the same law by other routes
    seq = CustomWeights(tuple(vals))
    n = len(vals)
    law = s_pmf(seq, n, k)
    assert law == pmf_from_masses(0, theta_bruteforce(seq, n, k).coeffs), vals
    assert law == pmf_from_masses(0, theta_newton(seq, n, k).coefficients), vals
    for s_max in range(1, k + 3):
        assert moments(seq, n, k, s_max) == pmf_moments(law, s_max), (vals, s_max)


def test_zeta_star_ones_equals_complete_homogeneous():
    for n in range(0, 30):
        hs = complete_homogeneous(ZetaWeights(1), n, 12)
        for k in range(0, 13):
            assert zeta_star_ones(n, k) == hs[k], (n, k)
    for n, k in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            zeta_star_ones(n, k)


def test_custom_weights_past_their_end_refused():
    seq = CustomWeights((F(1, 2), F(3)))
    for fn in (theta_newton, s_pmf, moments):
        with pytest.raises(WeightConfigError):
            fn(seq, 3, 2)


def test_newton_ladder_against_convolution():
    for seq in (QModifiedWeights(ZetaWeights(1), F(1, 3)), ZetaWeights(2)):
        ladder = theta_newton_ladder(seq, 40, 12)
        for i, rung in enumerate(ladder):
            assert rung == theta_convolution(seq, 40, i).poly, (seq, i)


def test_newton_ladder_edges():
    a = F(5, 7)
    ladder = theta_newton_ladder(CustomWeights((a,)), 1, 6)
    assert ladder[0] == Poly([1])
    for k in range(1, 7):
        # a single index: k copies of a, with k - 1 adjacent equal pairs
        assert ladder[k] == Poly.monomial(a**k, k - 1)
    for seq in BUILTINS + (CustomWeights((F(3, 4), F(2, 9))),):
        assert theta_newton_ladder(seq, 2, 0) == [Poly([1])]
        assert theta_newton(seq, 2, 0).coefficients == (F(1),)


def test_newton_identity_refuses_inexact_division():
    # X_1 = P_1 = 1; P_1 = 1 and P_2 = 2 give 2 X_2 = P_1 X_1 + P_2 X_0 = 3,
    # odd over the integers
    assert _newton_identity([None, 1], 1, 1, _divide_exact) == [1, 1]
    with pytest.raises(ArithmeticError, match="not divisible by 2"):
        _newton_identity([None, 1, 2], 2, 1, _divide_exact)


@settings(max_examples=25, deadline=None)
@given(_random_weights(12), st.integers(0, 10))
def test_newton_identities_equal_eh_recurrences(vals, k):
    # Newton's identities on the power sums and the direct e/h recurrences
    # are two routes to the same integers H'_j = L^j h_j and E'_j = L^j e_j
    seq = CustomWeights(tuple(vals))
    n = len(vals)
    _, ints = _scaled_weights(seq, n)
    hs, es = _newton_eh(_power_sums_scaled(ints, k), k, 1, _divide_exact)
    assert hs == _homogeneous_scaled(ints, k), vals
    assert es == _elementary_scaled(ints, k), vals


@settings(max_examples=40, deadline=None)
@given(st.one_of(_random_weights(12).map(lambda vals: (CustomWeights(tuple(vals)), len(vals))),
                 st.tuples(st.sampled_from(BUILTINS), st.integers(1, 30))),
       st.integers(0, 12))
def test_power_sums_scaled_equal_fraction_power_sums(seq_n, k):
    # the integer P_j that theta_newton, theta_bell and theta_det read,
    # against the term-by-term Fraction sums that no route reads
    seq, n = seq_n
    scale, ints = _scaled_weights(seq, n)
    sums = _power_sums_scaled(ints, k)
    assert len(sums) == k + 1 and sums[0] is None
    for j in range(1, k + 1):
        assert sums[j] == power_sum(seq, n, j) * scale**j, (seq, n, j)


@settings(max_examples=25, deadline=None)
@given(_random_weights(8), st.integers(0, 12))
def test_newton_ladder_satisfies_coupled_recurrence(vals, k):
    # the paper's recurrence i theta_i = sum_j p_j (t^j - (t-1)^j) theta_{i-j},
    # on the Fraction power sums, holds for every rung as a Poly identity
    seq = CustomWeights(tuple(vals))
    n = len(vals)
    ladder = theta_newton_ladder(seq, n, k)
    alpha, shifted = [None], Poly.one()
    for j in range(1, k + 1):
        shifted = shifted * Poly([-1, 1])
        alpha.append(power_sum(seq, n, j) * (Poly.monomial(1, j) - shifted))
    for i in range(1, k + 1):
        rhs = sum((alpha[j] * ladder[i - j] for j in range(1, i + 1)), Poly())
        assert i * ladder[i] == rhs, (vals, i)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda d: st.lists(st.integers(-10**6, 10**6), min_size=d + 1, max_size=d + 1)))
def test_bernstein_to_power_expands_the_basis(coeffs):
    d = len(coeffs) - 1
    t = Poly([0, 1])
    one_minus_t = Poly([1, -1])
    want = Poly()
    for a, c in enumerate(coeffs):
        term = Poly([c])
        for _ in range(a):
            term = term * t
        for _ in range(d - a):
            term = term * one_minus_t
        want = want + term
    assert Poly(_bernstein_to_power(coeffs)) == want
    assert len(_bernstein_to_power(coeffs)) == d + 1


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6))
def test_bruteforce_matches_newton_on_zeta2(n, k):
    seq = ZetaWeights(2)
    assert theta_bruteforce(seq, n, k) == theta_newton(seq, n, k).poly


def test_partial_fraction_random_custom():
    for _, seq in random_customs(8191, 3, 4, 30):
        poly = theta_newton(seq, 4, 3).poly
        for t0 in (F(1, 2), F(2)):
            assert theta_partial_fraction(seq, 4, 3, t0) == poly(t0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.builds(F, st.integers(1, 60), st.integers(1, 30)),
                min_size=1, max_size=6, unique=True), st.integers(0, 7))
def test_partial_fraction_equals_newton_on_random_weights(vals, k):
    seq = CustomWeights(tuple(vals))
    n = len(vals)
    poly = theta_newton(seq, n, k).poly
    for t0 in (F(-3, 7), F(1, 3), F(1), F(2)):
        assert theta_partial_fraction(seq, n, k, t0) == poly(t0), (vals, k, t0)


@settings(max_examples=30, deadline=None)
@given(_random_weights(5), st.integers(0, 5), st.data())
def test_multi_eval_equals_oracle_tvec(vals, k, data):
    seq = CustomWeights(tuple(vals))
    n = len(vals)
    rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 7))
    tvec = data.draw(st.lists(rationals, min_size=n, max_size=n), label="tvec")
    assert theta_multi_eval(seq, n, k, tvec) == theta_bruteforce(seq, n, k, tvec=tvec)
    # the constant vector (t, ..., t) collapses to theta at t
    t0 = data.draw(rationals, label="t")
    assert theta_multi_eval(seq, n, k, [t0] * n) == theta_newton(seq, n, k).poly(t0)
