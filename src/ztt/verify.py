"""Named self-check suites runnable from the CLI.

Four suites cover the identity layer (cross-algorithm and oracle agreement,
specialization and closed-form identities), the marginal laws, the
sum-splitting law with its Bernstein form, and the limit-regime distance
scans.  Every check returns a CheckResult instead of raising, so a run
always produces a full report; any exception inside a check is converted
into a failure carrying the message.

Each check takes its grid as arguments and returns None or a detail naming
the failing point; the suites pass the CLI sizes, the acceptance tests larger.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import distributions as dist
from . import oracle, theta
from .exact import Poly, binomial, stirling_first_unsigned, stirling_second
from .theta import GradedValue
from .weights import (
    CustomWeights,
    LinearWeights,
    OnesWeights,
    QModifiedWeights,
    ZetaWeights,
)

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


BUILTIN_WEIGHTS = (
    ("ones", OnesWeights()),
    ("linear", LinearWeights()),
    ("zeta:1", ZetaWeights(1)),
    ("zeta:2", ZetaWeights(2)),
)


def _run(name: str, fn) -> CheckResult:
    try:
        detail = fn()
    except Exception as exc:  # a crash is a failed check, not a crashed report
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    if detail is None:
        return CheckResult(name, True)
    return CheckResult(name, False, detail)


def random_customs(seed: int, count: int, size: int, hi: int):
    """count labelled custom sequences, each of size distinct values a/b with
    1 <= a, b <= hi, drawn in a fixed order from random.Random(seed)."""
    rng = random.Random(seed)
    seqs = []
    for idx in range(count):
        vals = set()
        while len(vals) < size:
            vals.add(Fraction(rng.randint(1, hi), rng.randint(1, hi)))
        seqs.append((f"custom#{idx}", CustomWeights(tuple(sorted(vals)))))
    return seqs


def _check_five_way(max_n: int, max_k: int):
    algos = tuple(theta.ALGORITHMS.items())
    for label, seq in BUILTIN_WEIGHTS:
        for n in range(1, max_n + 1):
            for k in range(0, max_k + 1):
                ref = algos[0][1](seq, n, k).poly
                for name, fn in algos[1:]:
                    got = fn(seq, n, k).poly
                    if got != ref:
                        return (f"{name} disagrees with {algos[0][0]} at "
                                f"weights={label} n={n} k={k}: {got!r} vs {ref!r}")
    return None


def _check_partial_fraction(seqs, max_n: int, max_k: int):
    points = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2))
    for label, seq in seqs:
        for n in range(1, max_n + 1):
            for k in range(1, max_k + 1):
                poly = theta.theta_newton(seq, n, k).poly
                for t0 in points:
                    lhs = theta.theta_partial_fraction(seq, n, k, t0)
                    rhs = poly(t0)
                    if lhs != rhs:
                        return (f"partial fraction off at weights={label} "
                                f"n={n} k={k} t={t0}: {lhs} vs {rhs}")
    return None


def _check_oracle(max_n: int, max_k: int):
    for label, seq in BUILTIN_WEIGHTS:
        for n in range(1, max_n + 1):
            for k in range(0, max_k + 1):
                brute = oracle.theta_bruteforce(seq, n, k)
                if brute != theta.theta_product(seq, n, k).poly:
                    return f"oracle mismatch at weights={label} n={n} k={k}"
    return None


def _check_oracle_tvec(points, seed: int, hi: int):
    rng = random.Random(seed)
    seq = ZetaWeights(1)
    for n, k in points:
        tvec = tuple(Fraction(rng.randint(0, hi), rng.randint(1, hi))
                     for _ in range(n))
        brute = oracle.theta_bruteforce(seq, n, k, tvec=tvec)
        if brute != theta.theta_multi_eval(seq, n, k, tvec):
            return f"multi-t oracle mismatch at n={n} k={k} tvec={tvec}"
    return None


def _check_oracle_q(bases, points):
    for q in (Fraction(1, 2), Fraction(1)):
        for label, seq in bases:
            for n, k in points:
                brute = oracle.theta_bruteforce(seq, n, k, q=q)
                if brute != theta.theta_qt(seq, n, k, q).poly:
                    return (f"q-refined oracle mismatch at weights={label} "
                            f"q={q} n={n} k={k}")
    return None


def _check_specializations(max_n: int, max_k: int, lin_n: int, lin_k: int):
    ones = OnesWeights()
    for n in range(1, max_n + 1):
        ladder = theta.theta_newton_ladder(ones, n, max_k)
        for k in range(0, max_k + 1):
            if ladder[k](Fraction(0)) != binomial(n, k):
                return f"ones endpoint at t=0 off at n={n} k={k}"
            if ladder[k](Fraction(1)) != binomial(n + k - 1, k):
                return f"ones endpoint at t=1 off at n={n} k={k}"
    lin = LinearWeights()
    for n in range(1, lin_n + 1):
        ladder = theta.theta_newton_ladder(lin, n, lin_k)
        for k in range(0, lin_k + 1):
            if ladder[k](Fraction(0)) != stirling_first_unsigned(n + 1, n + 1 - k):
                return f"linear endpoint at t=0 off at n={n} k={k}"
            if ladder[k](Fraction(1)) != stirling_second(n + k, n):
                return f"linear endpoint at t=1 off at n={n} k={k}"
    return None


def _check_bivariate(max_n: int, max_k: int):
    ones = OnesWeights()
    for n in range(1, max_n + 1):
        for k in range(0, max_k + 1):
            if theta.closed_form_ones_bivariate(n, k) != theta.theta_product(ones, n, k).poly:
                return f"bivariate closed form off at n={n} k={k}"
    return None


def _check_zeta_values(max_n: int, max_k: int):
    for n in range(1, max_n + 1):
        ladder = theta.theta_newton_ladder(ZetaWeights(1), n, max_k)
        for k in range(1, max_k + 1):
            if theta.zeta_t_ones(n, k, 1) != theta.zeta_star_ones(n, k):
                return f"t=1 binomial sum off at n={n} k={k}"
            half = theta.zeta_t_ones(n, k, Fraction(1, 2))
            if half != theta.prodinger_half(n, k):
                return f"half-point sums disagree at n={n} k={k}"
            if half != ladder[k](Fraction(1, 2)):
                return f"half-point value off versus theta at n={n} k={k}"
    return None


def _check_expected_sigma(max_n: int, max_k: int):
    for n in range(1, max_n + 1):
        for k in range(1, max_k + 1):
            lhs = dist.expected_sigma_zeta(n, k)
            rhs = dist.moments(ZetaWeights(1), n, k, 1).mean
            if lhs != rhs:
                return f"mean adjacency formula off at n={n} k={k}: {lhs} vs {rhs}"
    return None


def _check_ordered_partitions(count_k: int, max_n: int, max_k: int):
    for k in range(1, count_k + 1):
        if len(list(oracle.compositions(k))) != 2 ** (k - 1):
            return f"composition count off at k={k}"
    for m in (1, 2):
        for n in range(1, max_n + 1):
            for k in range(1, max_k + 1):
                lhs = theta.theta_ordered_partitions(m, n, k).poly
                rhs = theta.theta_product(ZetaWeights(m), n, k).poly
                if lhs != rhs:
                    return f"composition sum off at m={m} n={n} k={k}"
    return None


def _check_partition_series():
    if theta.partition_series(3, 4) != (1, 1, 2, 3, 4):
        return "bounded-part table off at n=3"
    expected = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
                231, 297, 385, 490, 627)
    if theta.partition_series(20, 20) != expected:
        return "partition numbers off at n=20"
    if theta.partition_series(1, 5) != (1, 1, 1, 1, 1, 1):
        return "single-part table off"
    return None


def _check_infinite_graded():
    if theta.theta_infinite_zeta(2, 2, 0) != GradedValue(2, Fraction(1, 120)):
        return "depth-2 strict value off"
    if theta.theta_infinite_zeta(2, 2, 1) != GradedValue(2, Fraction(7, 360)):
        return "depth-2 weak value off"
    for k in range(1, 7):
        want = GradedValue(k, Fraction(1, factorial(2 * k + 1)))
        if theta.theta_infinite_zeta(2, k, 0) != want:
            return f"strict {{2}}-block value off at k={k}"
    return None


def _check_q_refinement(max_n: int, max_k: int):
    for base_label, base in (("ones", OnesWeights()), ("zeta:1", ZetaWeights(1))):
        for q in (Fraction(1, 2), Fraction(2), Fraction(1)):
            wrapped = QModifiedWeights(base, q)
            for n in range(1, max_n + 1):
                for k in range(0, max_k + 1):
                    lhs = theta.theta_qt(base, n, k, q).poly
                    rhs = theta.theta_newton(wrapped, n, k).poly
                    if lhs != rhs:
                        return (f"q-refined theta differs from modified weights "
                                f"at base={base_label} q={q} n={n} k={k}")
    return None


def _check_multi_eval():
    ones = OnesWeights()
    base = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2))
    ref = theta.theta_multi_eval(ones, 4, 3, base)
    rng = random.Random(6972593)
    perm = list(base)
    for _ in range(5):
        rng.shuffle(perm)
        if theta.theta_multi_eval(ones, 4, 3, tuple(perm)) != ref:
            return f"exchangeability broken for ordering {tuple(perm)}"
    seq = ZetaWeights(1)
    poly = theta.theta_newton(seq, 3, 3).poly
    for t0 in (Fraction(0), Fraction(1, 2), Fraction(2)):
        if theta.theta_multi_eval(seq, 3, 3, (t0,) * 3) != poly(t0):
            return f"constant-vector collapse off at t={t0}"
    return None


def suite_identities(max_n: int, max_k: int):
    cap_n, cap_k = min(max_n, 6), min(max_k, 6)
    probe = (min(max_n, 4), min(max_k, 4))
    return [
        _run("five-way algorithm agreement",
             lambda: _check_five_way(max_n, max_k)),
        _run("partial-fraction evaluation",
             lambda: _check_partial_fraction(
                 [BUILTIN_WEIGHTS[2], BUILTIN_WEIGHTS[1],
                  *random_customs(74207281, 2, cap_n, 60)], cap_n, cap_k)),
        _run("brute-force oracle agreement",
             lambda: _check_oracle(cap_n, cap_k)
             or _check_oracle_tvec([probe] * 3, 43112609, 8)
             or _check_oracle_q(BUILTIN_WEIGHTS[2:3], [probe])),
        _run("endpoint specializations (binomial/Stirling)",
             lambda: _check_specializations(max_n, max_k,
                                            min(max_n, 12), min(max_k, 12))),
        _run("bivariate closed form (ones)",
             lambda: _check_bivariate(min(max_n, 10), min(max_k, 10))),
        _run("reciprocal-weight value identities",
             lambda: _check_zeta_values(max_n, max_k)),
        _run("mean adjacency closed form",
             lambda: _check_expected_sigma(min(max_n, 8), min(max_k, 8))),
        _run("composition sum and count",
             lambda: _check_ordered_partitions(10, min(max_n, 8), min(max_k, 6))),
        _run("partition table", _check_partition_series),
        _run("graded infinite values", _check_infinite_graded),
        _run("q-refinement consistency",
             lambda: _check_q_refinement(min(max_n, 5), min(max_k, 5))),
        _run("multi-variable evaluation", _check_multi_eval),
    ]


def _check_marginal_brute(max_n: int, max_k: int):
    ones = OnesWeights()
    for n in range(2, max_n + 1):
        for k in range(1, max_k + 1):
            got = dist.marginal_pmf(n, k)
            brute = oracle.theta_marginal_bruteforce(ones, n, k, 1)
            want = dist.pmf_from_masses(0, brute.coeffs)
            if got != want:
                return f"marginal law off at n={n} k={k}"
            for i in (2, n):
                other = oracle.theta_marginal_bruteforce(ones, n, k, i)
                if other != brute:
                    return f"marginal law depends on tracked value at n={n} k={k} i={i}"
    return None


def _check_marginal_moments(max_n: int, max_k: int):
    for n in range(2, max_n + 1):
        for k in range(1, max_k + 1):
            closed = dist.marginal_moments(n, k, 3)
            from_pmf = dist.pmf_moments(dist.marginal_pmf(n, k), 3)
            if closed != from_pmf:
                return f"marginal moments off at n={n} k={k}"
            scaled = closed.mean * n
            overall = dist.moments(OnesWeights(), n, k, 1).mean
            if scaled != overall:
                return f"exchangeability mean identity off at n={n} k={k}"
    return None


def _check_marginal_p0(max_n: int, max_k: int):
    for n in range(2, max_n + 1):
        for k in range(1, max_k + 1):
            if dist.marginal_p0_closed(n, k) != dist.marginal_mass(n, k, 0):
                return f"P{{0}} closed form off at n={n} k={k}"
    variant = dist.marginal_p0_variant(3, 2)
    truth = dist.marginal_mass(3, 2, 0)
    if variant != Fraction(2, 3) or truth != Fraction(5, 6):
        return (f"known-divergent P{{0}} variant not reproduced: "
                f"variant={variant} truth={truth}")
    return None


def _check_marginal_zeta():
    for t0 in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
        want = (t0 + Fraction(3, 4)) / Fraction(7, 4)
        got = dist.marginal_zeta_pgf(2, 2, 1, t0)
        if got != want:
            return f"weighted marginal pgf off at (2,2,1) t={t0}"
    seq = ZetaWeights(1)
    for n, k in ((2, 3), (3, 2), (3, 3), (4, 2)):
        total = theta.zeta_star_ones(n, k)
        for i in range(1, n + 1):
            brute = oracle.theta_marginal_bruteforce(seq, n, k, i)
            for t0 in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)):
                if dist.marginal_zeta_pgf(n, k, i, t0) != brute(t0) / total:
                    return f"weighted marginal pgf off at n={n} k={k} i={i} t={t0}"
    return None


def suite_marginals(max_n: int, max_k: int):
    return [
        _run("marginal law versus enumeration",
             lambda: _check_marginal_brute(min(max_n, 6), min(max_k, 6))),
        _run("marginal closed-form moments",
             lambda: _check_marginal_moments(min(max_n, 12), min(max_k, 12))),
        _run("marginal P{0} closed form and pinned divergent variant",
             lambda: _check_marginal_p0(min(max_n, 12), min(max_k, 12))),
        _run("weighted marginal pgf", _check_marginal_zeta),
    ]


def _check_sum_theorem(max_k: int):
    for k in range(3, max_k + 1):
        for n in range(2, k):
            pmf = dist.sum_theorem_pmf(n, k)
            if sum(pmf.probs) != 1:
                return f"masses do not sum to 1 at n={n} k={k}"
            expanded = dist.bernstein_pgf(n, k)
            if Poly(pmf.probs) != expanded:
                return f"Bernstein expansion disagrees with masses at n={n} k={k}"
            betas = dist.bezier_coeffs(n, k)
            denom = binomial(k - 1, n - 1)
            for j in range(n):
                if betas[j] * binomial(n - 1, j) != Fraction(binomial(k - 1, j), denom):
                    return f"Bezier coefficient identity off at n={n} k={k} j={j}"
            # independent monomial-to-Bernstein conversion of the masses
            for j in (0, n - 1):
                conv = sum(Fraction(binomial(j, i), binomial(n - 1, i)) * pmf.probs[i]
                           for i in range(j + 1))
                if conv != betas[j]:
                    return f"Bernstein conversion off at n={n} k={k} j={j}"
            refl = dist.sum_theorem_r_pmf(n, k)
            for i in range(1, n + 1):
                if refl.mass(i) != pmf.mass(n - i):
                    return f"reflection law off at n={n} k={k} i={i}"
    if dist.sum_theorem_pmf(3, 5).probs != (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)):
        return "spot value at (3,5) off"
    if dist.bezier_coeffs(3, 5) != (Fraction(1, 6), Fraction(1, 3), Fraction(1)):
        return "spot Bezier coefficients at (3,5) off"
    return None


def suite_sumtheorem(max_k: int, **_ignored):
    return [_run("sum-splitting law and Bernstein form",
                 lambda: _check_sum_theorem(max(max_k, 12)))]


def _check_scan(regime: str, grid=None, final_below=None):
    rows = dist.limit_scan(regime, grid)
    dists = [r.distance for r in rows]
    for a, b in zip(dists, dists[1:]):
        if not b < a:
            return f"distances not strictly decreasing: {dists}"
    if final_below is not None and not dists[-1] < final_below:
        return f"final distance {dists[-1]} not below {final_below}"
    return None


def suite_limits(**_ignored):
    return [_run(r.label, lambda: _check_scan(name, final_below=r.final_below))
            for name, r in dist.REGIMES.items()]


SUITES = {
    "identities": suite_identities,
    "marginals": suite_marginals,
    "sumtheorem": suite_sumtheorem,
    "limits": suite_limits,
}


def run_suite(name: str, max_n: int = 8, max_k: int = 8):
    """Run one named suite, or every suite for name 'all'.  max_n >= 2 and
    max_k >= 1 are required, so every sized check visits the point (2, 1).
    The oracle checks cap n and k at 6, so at any size they enumerate at most
    C(11, 6) = 462 multisets, under the cap the oracle reads for itself."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         + ", ".join(sorted(SUITES)) + ", all")
    if max_n < 2 or max_k < 1:
        raise ValueError(f"verify needs max_n >= 2 and max_k >= 1, "
                         f"got max_n={max_n}, max_k={max_k}")
    names = SUITES if name == "all" else (name,)
    return [result for key in names
            for result in SUITES[key](max_n=max_n, max_k=max_k)]
