"""Exact laws, moments, numeric truncations, and limit-regime scans."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from ztt import distributions as dist
from ztt.distributions import (
    DEFAULT_GRIDS,
    FloatPmf,
    Pmf,
    bernoulli_sum_pmf,
    bernstein_pgf,
    bezier_coeffs,
    d_n_pmf,
    expected_sigma_zeta,
    geometric_modified_pmf,
    hypergeom_moments,
    hypergeom_pmf,
    kolmogorov_distance_to_normal,
    limit_scan,
    marginal_mass,
    marginal_moments,
    marginal_p0_closed,
    marginal_p0_variant,
    marginal_pmf,
    marginal_zeta_pgf,
    moments,
    multiset_sigma_closed_moments,
    negbin_pmf,
    pmf_from_masses,
    pmf_moments,
    poisson_pmf,
    reflected_pmf,
    s_infinity_2_exact,
    s_infinity_2_pmf,
    s_pmf,
    shifted_pmf,
    sum_theorem_pmf,
    sum_theorem_r_pmf,
    truncated_mzv_numeric,
    tv_distance,
)
from ztt.exact import Poly
from ztt.oracle import compositions, theta_marginal_bruteforce
from ztt.theta import multiple_harmonic, theta_det, zeta_star_ones
from ztt.weights import OnesWeights, ZetaWeights

F = Fraction


def test_pmf_validation():
    p = Pmf(0, (F(1, 2), F(1, 2)))
    assert p.mass(0) == F(1, 2)
    assert p.mass(5) == 0
    assert list(p.support()) == [0, 1]
    with pytest.raises(ValueError):
        Pmf(0, (F(1, 2), F(1, 4)))
    with pytest.raises(ValueError):
        Pmf(0, (F(0), F(1)))
    with pytest.raises(ValueError):
        Pmf(0, (F(3, 2), F(-1, 2)))


def test_pmf_from_masses_trims_and_normalizes():
    p = pmf_from_masses(0, (F(0), F(2), F(6), F(0)))
    assert p.offset == 1
    assert p.probs == (F(1, 4), F(3, 4))
    with pytest.raises(ValueError):
        pmf_from_masses(0, (F(0),))


def test_shift_and_reflect():
    p = Pmf(0, (F(1, 4), F(3, 4)))
    assert shifted_pmf(p, 2).mass(2) == F(1, 4)
    r = reflected_pmf(p, 3)
    assert r.mass(3) == F(1, 4)
    assert r.mass(2) == F(3, 4)


def test_s_pmf_values():
    p = s_pmf(OnesWeights(), 3, 2)
    assert p == Pmf(0, (F(1, 2), F(1, 2)))
    q = s_pmf(ZetaWeights(1), 2, 2)
    assert q == Pmf(0, (F(2, 7), F(5, 7)))
    point = s_pmf(OnesWeights(), 1, 4)
    assert point.offset == 3 and point.probs == (F(1),)


def test_moments_match_pmf_moments():
    for seq in (OnesWeights(), ZetaWeights(1)):
        for n in range(1, 7):
            for k in range(1, 7):
                direct = moments(seq, n, k, 3)
                via_pmf = pmf_moments(s_pmf(seq, n, k), 3)
                assert direct == via_pmf


def test_closed_moments_hypergeometric():
    for n in range(1, 10):
        for k in range(1, 10):
            closed = multiset_sigma_closed_moments(n, k, 3)
            hyp = hypergeom_moments(n + k - 1, k - 1, k, 3)
            assert closed == hyp
            assert closed == moments(OnesWeights(), n, k, 3)
    rep = multiset_sigma_closed_moments(3, 2)
    assert rep.mean == F(1, 2)
    assert rep.variance == F(1, 4)


def test_hypergeom_pmf_agrees_with_s_pmf():
    for n in range(1, 9):
        for k in range(1, 9):
            assert hypergeom_pmf(n + k - 1, k - 1, k) == s_pmf(OnesWeights(), n, k)


def test_hypergeom_guard_edges():
    # the shared guard admits N = 0, the empty urn, in the pmf and the moments alike
    assert hypergeom_pmf(0, 0, 0) == Pmf(0, (1,))
    for s_max in (1, 2, 3):
        assert hypergeom_moments(0, 0, 0, s_max) == pmf_moments(hypergeom_pmf(0, 0, 0), s_max)
    assert (hypergeom_moments(0, 0, 0).mean, hypergeom_moments(0, 0, 0).variance) == (0, 0)
    for args in ((3, 4, 1), (3, 1, 4), (3, -1, 1), (3, 1, -1)):
        for law in (hypergeom_pmf, hypergeom_moments):
            with pytest.raises(ValueError):
                law(*args)


def test_marginal_law_against_enumeration():
    ones = OnesWeights()
    for n in range(2, 7):
        for k in range(1, 7):
            brute = theta_marginal_bruteforce(ones, n, k, 1)
            assert marginal_pmf(n, k) == pmf_from_masses(0, brute.coeffs)


def test_marginal_mass_against_enumeration():
    ones = OnesWeights()
    for n in range(2, 7):
        for k in range(1, 7):
            brute = theta_marginal_bruteforce(ones, n, k, 1)
            total = brute(F(1))
            for j in range(k + 3):
                assert marginal_mass(n, k, j) == brute.coefficient(j) / total, (n, k, j)


def test_marginal_p0_and_variant():
    for n in range(2, 9):
        for k in range(1, 9):
            assert marginal_p0_closed(n, k) == marginal_mass(n, k, 0)
    assert marginal_mass(3, 2, 0) == F(5, 6)
    assert marginal_p0_variant(3, 2) == F(2, 3)
    assert marginal_p0_variant(3, 2) != marginal_p0_closed(3, 2)


def test_marginal_moments_closed_form():
    for n in range(2, 9):
        for k in range(1, 9):
            assert marginal_moments(n, k, 3) == pmf_moments(marginal_pmf(n, k), 3)


def test_marginal_needs_two_values():
    with pytest.raises(ValueError):
        marginal_pmf(1, 3)


def test_marginal_zeta_pgf():
    total = zeta_star_ones(2, 2)
    for t0 in (F(0), F(1, 2), F(1), F(2)):
        want = (F(3, 4) + t0) / total
        assert marginal_zeta_pgf(2, 2, 1, t0) == want
    seq = ZetaWeights(1)
    for n, k, i in ((3, 2, 1), (3, 2, 3), (2, 3, 2)):
        brute = theta_marginal_bruteforce(seq, n, k, i)
        denom = zeta_star_ones(n, k)
        for t0 in (F(0), F(1), F(5, 2)):
            assert marginal_zeta_pgf(n, k, i, t0) == brute(t0) / denom


def test_bernoulli_sum_and_d_n():
    p = bernoulli_sum_pmf((F(1, 2), F(1, 3)))
    assert p == Pmf(0, (F(1, 3), F(1, 2), F(1, 6)))
    assert bernoulli_sum_pmf(()) == Pmf(0, (F(1),))
    # p = 0 adds nothing and p = 1 shifts the law by one
    assert bernoulli_sum_pmf((F(1), F(1, 2), 0, 1, F(1, 3))) == Pmf(2, p.probs)
    for bad in (F(-1, 3), F(4, 3)):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bernoulli_sum_pmf((F(1, 2), bad))
    # against the Fraction convolution, on vectors with repeats, 0s and 1s
    rng = random.Random(20261020)
    for _ in range(60):
        dens = [rng.randint(1, 6) for _ in range(rng.randint(1, 9))]
        ps = [F(rng.randint(0, d), d) for d in dens]
        masses = [F(1)]
        for q in ps:
            masses = [(1 - q) * a + q * b for a, b in zip(masses + [0], [0] + masses)]
        assert bernoulli_sum_pmf(ps) == pmf_from_masses(0, masses), ps
    d3 = d_n_pmf(3, 1)
    # pgf z(z+1)(z+2)/6: masses 1/3, 1/2, 1/6 on 1..3
    assert d3 == Pmf(1, (F(1, 3), F(1, 2), F(1, 6)))
    for n in range(1, 9):
        law = d_n_pmf(n, 1)
        for ell in range(1, n + 1):
            want = multiple_harmonic(n - 1, (1,) * (ell - 1)) / n
            assert law.mass(ell) == want
    with pytest.raises(ValueError):
        d_n_pmf(3, 3)


def test_d_n_square_factorial_moments():
    for n in range(1, 8):
        rep = pmf_moments(d_n_pmf(n, 2), 3)
        for s in (1, 2, 3):
            want = math.factorial(s) * multiple_harmonic(n, (2,) * s)
            assert rep.factorial_moments[s - 1] == want
    # the same identity with truncation n-1 is false already at n=3, s=1
    got = pmf_moments(d_n_pmf(3, 2), 1).factorial_moments[0]
    assert got == F(49, 36)
    assert multiple_harmonic(2, (2,)) == F(5, 4) != got


def test_truncated_mzv_numeric():
    val, err = truncated_mzv_numeric((2,), 1000)
    assert err < 1e-9
    assert abs(val - math.pi**2 / 6) < err + 1e-12
    val2, err2 = truncated_mzv_numeric((2, 2), 10000)
    assert abs(val2 - math.pi**4 / 120) < err2 + 1e-12
    # the terms m^-400 underflow to 0 from m = 7 on, where m^400 overflowed;
    # zeta(400, 2) is 2^-400 (1 + (2/3)^400 * 5/4 + ...)
    assert math.isclose(truncated_mzv_numeric((400, 2), 10)[0], 2.0**-400, rel_tol=1e-12)
    with pytest.raises(ValueError):
        truncated_mzv_numeric((1, 2), 100)
    with pytest.raises(ValueError):
        truncated_mzv_numeric((2,), 5)
    # int() would floor 2.5 to 2 and answer zeta(2) for the wrong index
    for indices, n_trunc in (((2.5,), 1000), ((2.0,), 1000), ((True, 2), 1000),
                             ((2,), 1000.0), ((2,), True)):
        with pytest.raises(ValueError):
            truncated_mzv_numeric(indices, n_trunc)


def _mzv_reference_cases():
    # zeta(2) at N=100 is both a single zeta value and {2}_1; keep it once
    cases = [((s,), 100) for s in (2, 3, 5)]
    cases += [((2,) * d, n_trunc) for d in range(1, 5) for n_trunc in (10, 100, 1000)]
    cases += [((4, 2), 200), ((2, 4), 200)]
    return list(dict.fromkeys(cases))


@pytest.mark.parametrize("indices,n_trunc", _mzv_reference_cases())
def test_truncated_mzv_bound_against_mpmath(indices, n_trunc):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        z3, z6 = mpmath.zeta(3), mpmath.zeta(6)
        if len(indices) == 1:
            exact = mpmath.zeta(indices[0])
        elif indices == (4, 2):
            exact = z3**2 - mpmath.mpf(4) / 3 * z6
        elif indices == (2, 4):
            exact = mpmath.mpf(25) / 12 * z6 - z3**2
        else:
            d = len(indices)
            exact = mpmath.pi ** (2 * d) / mpmath.factorial(2 * d + 1)
        val, err = truncated_mzv_numeric(indices, n_trunc)
        assert abs(mpmath.mpf(val) - exact) <= err


def test_s_infinity_2():
    exact = s_infinity_2_exact(2)
    assert exact == Pmf(0, (F(3, 7), F(4, 7)))
    approx = s_infinity_2_pmf(2, 20000)
    assert approx.error_bound < 1e-8
    assert abs(approx.mass(0) - 3 / 7) < 1e-8
    assert abs(approx.mass(1) - 4 / 7) < 1e-8
    exact3 = s_infinity_2_exact(3)
    assert sum(exact3.probs) == 1
    approx3 = s_infinity_2_pmf(3, 5000)
    for j in exact3.support():
        assert abs(approx3.mass(j) - float(exact3.mass(j))) < 1e-6
    for k, n_trunc in ((2.5, 1000), (True, 1000), (3, 5000.0), (3, True)):
        with pytest.raises(ValueError):
            s_infinity_2_pmf(k, n_trunc)
    for k in (2.0, True):
        with pytest.raises(ValueError):
            s_infinity_2_exact(k)


@pytest.mark.parametrize("n_trunc", (1000, 5000))
def test_s_infinity_2_exact_masses_within_bound(n_trunc):
    # 5000 outer indices span two blocks of the DP, so the carry is exercised
    for k in range(2, 13):
        exact = s_infinity_2_exact(k)
        approx = s_infinity_2_pmf(k, n_trunc)
        assert approx.support() == exact.support()
        # a bound near 1 would hold any masses; at k = 12 and 1000 it is 4e-3
        assert approx.error_bound < 1e-2, (k, approx.error_bound)
        for j in exact.support():
            assert abs(approx.mass(j) - exact.mass(j)) <= approx.error_bound, (k, j)


@pytest.mark.parametrize("n_trunc", (1000, 5000))
def test_s_infinity_2_depths_equal_composition_sums(n_trunc):
    # the (weight, depth) DP against one truncated_mzv_numeric per composition
    for k in range(1, 9):
        values, bounds = dist._s_infinity_2_depths(k, n_trunc)
        want_values, want_bounds = [0.0] * (k + 1), [0.0] * (k + 1)
        for c in compositions(k):
            val, err = truncated_mzv_numeric(tuple(2 * r for r in c), n_trunc)
            want_values[len(c)] += val
            want_bounds[len(c)] += err
        for depth in range(1, k + 1):
            assert abs(values[depth] - want_values[depth]) <= want_bounds[depth], (k, depth)
            assert math.isclose(bounds[depth], want_bounds[depth], rel_tol=1e-9), (k, depth)


@pytest.mark.parametrize("call", [lambda: truncated_mzv_numeric((2, 3), 50_000),
                                  lambda: s_infinity_2_pmf(6, 50_000)],
                         ids=["truncated_mzv_numeric", "s_infinity_2_pmf"])
def test_float_helpers_memory_is_flat_in_n_trunc(call):
    # both pass over m in blocks of dist._BLOCK; one list of 50,000 floats
    # alone would take 1.6 MB, and an unblocked pass holds several
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_s_infinity_2_truncated_sums_equal_theta_coefficients():
    # T[l][w] = [t^(w-l)] theta_{N;w} for 1/m^2 weights; theta_det shares no
    # step with the convolution identity the float table is read from
    n_trunc = 1000
    T = dist._sinf_truncated_sums(8, n_trunc)
    for w in range(1, 9):
        poly = theta_det(ZetaWeights(2), n_trunc, w).poly
        # row 1 is the power sum zeta_N(2w), one fsum of terms each within w
        # roundings; read off the identity it drifts by about 10 ulps here
        assert abs(Fraction(T[1][w]) - poly.coefficient(w - 1)) <= (
            (w + 2) * 2.0**-53 * poly.coefficient(w - 1)), w
        for depth in range(2, w + 1):
            allowance = 1e-15 * n_trunc * depth * math.comb(w - 1, depth - 1)
            err = abs(Fraction(T[depth][w]) - poly.coefficient(w - depth))
            assert err <= allowance, (w, depth, float(err / allowance))


def test_sum_theorem():
    p = sum_theorem_pmf(3, 5)
    assert p == Pmf(0, (F(1, 6), F(1, 3), F(1, 2)))
    assert Poly(p.probs) == bernstein_pgf(3, 5)
    assert bezier_coeffs(3, 5) == (F(1, 6), F(1, 3), F(1))
    r = sum_theorem_r_pmf(3, 5)
    assert r == Pmf(1, (F(1, 2), F(1, 3), F(1, 6)))
    with pytest.raises(ValueError):
        sum_theorem_pmf(5, 5)
    assert sum_theorem_pmf(1, 3) == Pmf(0, (F(1),))
    with pytest.raises(ValueError):
        sum_theorem_pmf(0, 3)


def test_expected_sigma_zeta():
    for n in range(1, 9):
        for k in range(1, 9):
            want = moments(ZetaWeights(1), n, k, 1).mean
            assert expected_sigma_zeta(n, k) == want
    for n, k in ((24, 15), (60, 24)):
        assert expected_sigma_zeta(n, k) == moments(ZetaWeights(1), n, k, 1).mean
    assert expected_sigma_zeta(4, 1) == 0


def test_reference_laws_normalize():
    po = poisson_pmf(1.0, 40)
    assert abs(sum(po.probs) - 1.0) < 1e-12
    nb = negbin_pmf(2, 0.5, 80)
    assert abs(sum(nb.probs) - 1.0) < 1e-10
    geo = geometric_modified_pmf(F(1), 30)
    assert sum(geo) < 1
    assert geo[1] == F(1, 8)


def test_tv_distance():
    p = Pmf(0, (F(1, 2), F(1, 2)))
    q = Pmf(0, (F(1, 4), F(3, 4)))
    assert tv_distance(p, p) == 0
    assert tv_distance(p, q) == 0.25
    assert tv_distance(p, q) == tv_distance(q, p)
    shifted = shifted_pmf(p, 5)
    assert tv_distance(p, shifted) == 1


def test_kolmogorov_distance():
    # exact match for a two-point law is bounded away from 0 but sane
    p = Pmf(0, (F(1, 2), F(1, 2)))
    d = kolmogorov_distance_to_normal(p, F(1, 2), 0.5)
    assert 0 < d < 1
    big = hypergeom_pmf(199, 99, 100)
    rep = hypergeom_moments(199, 99, 100)
    dd = kolmogorov_distance_to_normal(big, rep.mean,
                                       math.sqrt(float(rep.variance)))
    assert dd < 0.06


def test_limit_scan_shapes():
    for regime in DEFAULT_GRIDS:
        rows = limit_scan(regime, DEFAULT_GRIDS[regime][:2])
        assert len(rows) == 2
        assert all(r.regime == regime for r in rows)
        assert rows[1].distance < rows[0].distance
    with pytest.raises(ValueError):
        limit_scan("nope")
    with pytest.raises(ValueError):
        limit_scan("poisson_multiset", ())
    for point in (0, -5):
        with pytest.raises(ValueError, match=f"needs grid point >= 1, got {point}"):
            limit_scan("poisson_multiset", (100, point))


def test_regime_table_keeps_its_bounds():
    # pins the verify bounds and grid minima against a silent weakening of an entry
    assert {name: r.final_below for name, r in dist.REGIMES.items()
            if r.final_below is not None} == {
        "normal_multiset": 0.05, "dn_zeta1": 0.01, "geometric_marginal": 0.05}
    assert {name: r.grid_min for name, r in dist.REGIMES.items() if r.grid_min != 1} == {
        "normal_multiset": 2, "geometric_marginal": 2, "sum_theorem_negbin": 2}
    assert DEFAULT_GRIDS == {name: r.grid for name, r in dist.REGIMES.items()}
    assert len(dist.REGIMES) == 7


def test_float_pmf_container():
    fp = FloatPmf(2, (0.5, 0.5))
    assert fp.mass(2) == 0.5
    assert fp.mass(9) == 0.0
    assert list(fp.support()) == [2, 3]
