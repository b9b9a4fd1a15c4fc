"""Acceptance gate: fourteen end-to-end checks, one test and one line each.

Each test prints "ACCEPTANCE NN <label>: PASS (x.xs)" (or FAIL) so a -s run
reads as a checklist.  Checks 1, 2, and 7 also enforce wall-clock budgets.

Every identity that `ztt verify` also checks runs through the same check
function in `ztt.verify`, here at the committed sizes; each must return None.
"""

import time
from fractions import Fraction
from functools import partial
from math import factorial, isqrt, pi

from ztt import distributions as dist
from ztt import verify as V
from ztt.distributions import (
    d_n_pmf,
    hypergeom_moments,
    hypergeom_pmf,
    moments,
    multiset_sigma_closed_moments,
    pmf_moments,
    s_infinity_2_exact,
    s_infinity_2_pmf,
    s_pmf,
)
from ztt.theta import multiple_harmonic, theta_infinite_zeta
from ztt.weights import OnesWeights, ZetaWeights

F = Fraction
SEED = 20260817


def _report(num, label, *checks, time_limit=None):
    t0 = time.perf_counter()
    try:
        for check in checks:
            detail = check()
            assert detail is None, detail
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL "
              f"({time.perf_counter() - t0:.1f}s)")
        raise
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:02d} {label}: PASS ({dt:.1f}s)")
    if time_limit is not None:
        assert dt < time_limit, f"runtime {dt:.1f}s over the {time_limit}s cap"


def test_criterion_01_five_way_agreement():
    _report(1, "five-way algorithm agreement",
            partial(V._check_five_way, 10, 10),
            lambda: V._check_partial_fraction(V.random_customs(SEED, 5, 8, 99), 8, 8),
            time_limit=60.0)


def test_criterion_02_oracle_equivalence():
    bases = (("ones", OnesWeights()), ("zeta:1", ZetaWeights(1)))
    grid = [(n, k) for n in range(1, 7) for k in range(0, 7)]
    _report(2, "brute-force oracle equivalence",
            partial(V._check_oracle, 8, 8),
            partial(V._check_oracle_tvec, ((6, 6), (5, 7), (7, 5)), SEED + 1, 9),
            partial(V._check_oracle_q, bases, grid),
            time_limit=60.0)


def test_criterion_03_specializations():
    _report(3, "binomial / multiset / Stirling specializations",
            partial(V._check_specializations, 30, 30, lin_n=15, lin_k=15))


def test_criterion_04_bivariate_closed_form():
    _report(4, "closed bivariate form for unit weights",
            partial(V._check_bivariate, 12, 12))


def test_criterion_05_zeta_identity_suite():
    _report(5, "reciprocal-weight value identities",
            partial(V._check_zeta_values, 25, 10),
            partial(V._check_expected_sigma, 12, 12))


def test_criterion_06_hypergeometric_law():
    def run():
        for n in range(1, 21):
            for k in range(1, 21):
                assert s_pmf(OnesWeights(), n, k) == \
                    hypergeom_pmf(n + k - 1, k - 1, k)
                closed = multiset_sigma_closed_moments(n, k, 3)
                assert closed == hypergeom_moments(n + k - 1, k - 1, k, 3)
                assert closed == moments(OnesWeights(), n, k, 3)
                assert closed.mean == F(k * (k - 1), n + k - 1)
                if n + k > 2:
                    want_var = F(k * (k - 1) * n * (n - 1),
                                 (n + k - 1) ** 2 * (n + k - 2))
                    assert closed.variance == want_var

    _report(6, "hypergeometric adjacency law", run)


def test_criterion_07_poisson_regime():
    def run():
        n = 10**6
        k = 1 + isqrt(n - 1)  # ceil(sqrt(n))
        rep = multiset_sigma_closed_moments(n, k, 3)
        for fm in rep.factorial_moments:
            assert abs(fm - 1) <= F(2, 100), fm

    _report(7, "Poisson regime moments and tv decay", run,
            partial(V._check_scan, "poisson_multiset", (100, 1000, 10000)),
            time_limit=30.0)


def test_criterion_08_normal_regime():
    _report(8, "normal regime Kolmogorov distance",
            partial(V._check_scan, "normal_multiset", final_below=0.05))


def test_criterion_09_block_count_identities():
    def run():
        for n in range(1, 13):
            law = d_n_pmf(n, 1)
            for ell in range(1, n + 1):
                want = multiple_harmonic(n - 1, (1,) * (ell - 1)) / n
                assert law.mass(ell) == want

    _report(9, "block-count law identities and tv decay", run,
            partial(V._check_scan, "dn_zeta1", (10, 20, 40), final_below=0.01))


def test_criterion_10_squares_regime():
    def run():
        assert s_infinity_2_exact(2) == dist.Pmf(0, (F(3, 7), F(4, 7)))
        approx = s_infinity_2_pmf(2, 10**5)
        assert approx.error_bound < 1e-8, approx.error_bound
        assert abs(approx.mass(0) - 3 / 7) < 1e-8
        assert abs(approx.mass(1) - 4 / 7) < 1e-8
        assert float(F(1, 120)) * pi**4 == theta_infinite_zeta(2, 2, 0).to_float()
        # factorial moments of the square-reciprocal block-count law equal
        # s! times the depth-s double-index truncated value at the SAME
        # truncation; the variant with truncation n-1 fails already at
        # n = 3, s = 1, and that discrepancy is pinned here.
        for n in range(1, 11):
            rep = pmf_moments(d_n_pmf(n, 2), 3)
            for s in (1, 2, 3):
                want = factorial(s) * multiple_harmonic(n, (2,) * s)
                assert rep.factorial_moments[s - 1] == want
        fm1 = pmf_moments(d_n_pmf(3, 2), 1).factorial_moments[0]
        assert fm1 == F(49, 36)
        assert multiple_harmonic(2, (2,)) == F(5, 4) != fm1

    _report(10, "squares regime law, graded values, moment identity",
            V._check_infinite_graded, run)


def test_criterion_11_marginals():
    _report(11, "single-value marginal laws",
            partial(V._check_marginal_brute, 8, 8),
            partial(V._check_marginal_moments, 12, 12),
            partial(V._check_marginal_p0, 12, 12),
            partial(V._check_scan, "geometric_marginal", (400,), final_below=0.05))


def test_criterion_12_sum_theorem():
    _report(12, "sum-splitting law and Bernstein form",
            partial(V._check_sum_theorem, 40))


def test_criterion_13_partition_series():
    _report(13, "partition number series", V._check_partition_series)


def test_criterion_14_composition_bookkeeping():
    _report(14, "composition bookkeeping",
            partial(V._check_ordered_partitions, 12, 10, 8))
