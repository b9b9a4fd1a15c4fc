"""Exact laws derived from the adjacency statistic of random weighted multisets.

Normalizing the coefficients of theta_{n;k}(t) turns the adjacency count
sigma into a random variable S_{n,k}; this module houses its exact pmf and
moments, the per-value marginal laws, the fixed-n limit objects, reference
families (hypergeometric, Poisson, modified geometric, negative binomial,
beta), and the distance diagnostics used to watch the limit theorems
materialize at finite sizes.

Everything stays in rational arithmetic until a distance or a reference
density forces floats; float results never feed back into exact checks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exact import Poly, Series, _require_int, _validate_nk, binomial, falling_factorial
from .theta import (
    GradedValue,
    _bernstein_terms,
    _bernstein_to_power,
    _divide_exact,
    _elementary_scaled,
    _homogeneous_scaled,
    _newton_identity,
    _power_sums_scaled,
    _strict_block,
    theta_infinite_zeta,
    theta_multi_eval,
    theta_newton,  # noqa: F401  the benchmark tracer's self-test patches this name here
    zeta_star_ones,
)
from .weights import WeightSequence, ZetaWeights, _scaled_weights

__all__ = [
    "Pmf",
    "FloatPmf",
    "MomentReport",
    "ScanRow",
    "Regime",
    "pmf_from_masses",
    "shifted_pmf",
    "reflected_pmf",
    "pmf_moments",
    "s_pmf",
    "moments",
    "multiset_sigma_closed_moments",
    "hypergeom_pmf",
    "hypergeom_moments",
    "marginal_mass",
    "marginal_pmf",
    "marginal_moments",
    "marginal_p0_closed",
    "marginal_p0_variant",
    "marginal_zeta_pgf",
    "bernoulli_sum_pmf",
    "d_n_pmf",
    "truncated_mzv_numeric",
    "s_infinity_2_exact",
    "s_infinity_2_pmf",
    "sum_theorem_pmf",
    "sum_theorem_r_pmf",
    "bernstein_pgf",
    "bezier_coeffs",
    "expected_sigma_zeta",
    "poisson_pmf",
    "negbin_pmf",
    "geometric_modified_pmf",
    "beta_moments",
    "normal_cdf",
    "tv_distance",
    "kolmogorov_distance_to_normal",
    "limit_scan",
    "REGIMES",
    "DEFAULT_GRIDS",
]


@dataclass(frozen=True)
class Pmf:
    """Finite pmf with exact rational masses on consecutive integers.

    offset is the smallest support point; probs[0] and probs[-1] must be
    positive and the masses must sum to exactly 1.
    """

    offset: int
    probs: tuple

    def __post_init__(self):
        probs = tuple(Fraction(p) for p in self.probs)
        if not probs:
            raise ValueError("pmf needs at least one mass")
        if any(p < 0 for p in probs):
            raise ValueError("pmf masses must be non-negative")
        if sum(probs) != 1:
            raise ValueError("pmf masses must sum to exactly 1")
        if not probs[0] or not probs[-1]:
            raise ValueError("pmf support must start and end with positive mass")
        object.__setattr__(self, "probs", probs)

    def mass(self, j: int) -> Fraction:
        i = j - self.offset
        if 0 <= i < len(self.probs):
            return self.probs[i]
        return Fraction(0)

    def support(self) -> range:
        return range(self.offset, self.offset + len(self.probs))

    def items(self):
        for i, p in enumerate(self.probs):
            yield self.offset + i, p

    def to_float(self) -> "FloatPmf":
        return FloatPmf(self.offset, tuple(float(p) for p in self.probs))


@dataclass(frozen=True)
class FloatPmf:
    """Float-valued pmf container; masses may undershoot 1 by a known bound."""

    offset: int
    probs: tuple
    error_bound: float = 0.0

    def mass(self, j: int) -> float:
        i = j - self.offset
        if 0 <= i < len(self.probs):
            return self.probs[i]
        return 0.0

    def support(self) -> range:
        return range(self.offset, self.offset + len(self.probs))


@dataclass(frozen=True)
class MomentReport:
    """mean, variance, and factorial moments E(X(X-1)...(X-s+1)) for s=1..s_max."""

    mean: Fraction
    variance: Fraction
    factorial_moments: tuple

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be non-negative")


def pmf_from_masses(offset: int, masses: Sequence) -> Pmf:
    """Normalize non-negative rational masses into a Pmf, trimming zero ends."""
    ms = [Fraction(m) for m in masses]
    if any(m < 0 for m in ms):
        raise ValueError("masses must be non-negative")
    lo = 0
    hi = len(ms)
    while lo < hi and not ms[lo]:
        lo += 1
    while hi > lo and not ms[hi - 1]:
        hi -= 1
    if lo == hi:
        raise ValueError("masses must not all be zero")
    total = sum(ms[lo:hi])
    return Pmf(offset + lo, tuple(m / total for m in ms[lo:hi]))


def shifted_pmf(pmf: Pmf, delta: int) -> Pmf:
    return Pmf(pmf.offset + delta, pmf.probs)


def reflected_pmf(pmf: Pmf, pivot: int) -> Pmf:
    """Law of pivot - X."""
    return Pmf(pivot - (pmf.offset + len(pmf.probs) - 1), tuple(reversed(pmf.probs)))


def _fms_to_report(s_max: int, fm) -> MomentReport:
    """The report from fm(s), the s-th factorial moment, for s = 1..s_max;
    fm(2) is taken even at s_max = 1, because the variance needs it."""
    fms = [fm(s) for s in range(1, max(2, s_max) + 1)]
    mean = fms[0]
    variance = fms[1] + mean - mean * mean
    return MomentReport(mean, variance, tuple(fms[:s_max]))


def pmf_moments(pmf: Pmf, s_max: int = 2) -> MomentReport:
    """Exact factorial moments of a Pmf; variance via fm2 + mean - mean^2."""
    _require_int("s_max", s_max, 1)
    return _fms_to_report(s_max, lambda s: sum(
        (falling_factorial(j, s) * p for j, p in pmf.items()), Fraction(0)))


def _theta_terms(seq: WeightSequence, n: int, k: int) -> list[int]:
    """T_j = L^k h_j e_{k-j} for j = 0..k, as integers from the e/h kernel.

    T is L^k theta in the Bernstein basis of degree k (_bernstein_terms), as
    in theta_newton, but H' and E' come from the direct e/h recurrences
    instead of Newton's identities; T_k = L^k h_k is L^k theta(1).
    """
    _, ints = _scaled_weights(seq, n)
    return _bernstein_terms(_homogeneous_scaled(ints, k), _elementary_scaled(ints, k), k)


def s_pmf(seq: WeightSequence, n: int, k: int) -> Pmf:
    """Law of the adjacency count: normalized coefficients of theta_{n;k}.

    _bernstein_to_power turns the Bernstein coefficients T_j of L^k theta
    (_theta_terms) into the integers L^k times the coefficient of t^i; the
    t^k one cancels for k >= 1.  Cost: the integer e/h kernel, O(n*k)
    big-int multiply-adds on operands of about k*log2(L) bits, then O(k^2)
    for the conversion; the masses become Fractions only when normalized.
    """
    _validate_nk(n, k, kmin=1)
    return pmf_from_masses(0, _bernstein_to_power(_theta_terms(seq, n, k)))


def moments(seq: WeightSequence, n: int, k: int, s_max: int = 2) -> MomentReport:
    """Factorial moments as derivatives of theta at t=1, with no polynomial.

    Leibniz on the convolution identity gives

        theta^(s)(1) = s! sum_{r<=min(s,k)} (-1)^r C(k-r, s-r) e_r h_{k-r},

    so fm_s = s! sum_r (-1)^r C(k-r, s-r) T_{k-r} / T_k with T from
    _theta_terms.  Cost: the integer e/h kernel, O(n*k) big-int
    multiply-adds, then O(k) products and O(s_max*k) small-by-big
    multiplications; one Fraction per moment.
    """
    _validate_nk(n, k, kmin=1)
    _require_int("s_max", s_max, 1)
    terms = _theta_terms(seq, n, k)

    def fm(s):
        num = sum((-1) ** r * math.comb(k - r, s - r) * terms[k - r]
                  for r in range(min(s, k) + 1))
        return Fraction(math.factorial(s) * num, terms[k])
    return _fms_to_report(s_max, fm)


def multiset_sigma_closed_moments(n: int, k: int, s_max: int = 2) -> MomentReport:
    """Closed-form moments for all-ones weights.

    fm_s = (k-1)_s (k)_s / (n+k-1)_s, so mean = k(k-1)/(n+k-1) and for
    n+k > 2 variance = k(k-1) n(n-1) / ((n+k-1)^2 (n+k-2)).
    """
    _validate_nk(n, k, kmin=1)
    _require_int("s_max", s_max, 1)

    def fm(s):  # 0 past every support point, where the falling product vanishes
        den = falling_factorial(n + k - 1, s)
        num = falling_factorial(k - 1, s) * falling_factorial(k, s)
        return Fraction(num, den) if den else Fraction(0)
    return _fms_to_report(s_max, fm)


def _hypergeom_guard(total: int, marked: int, draws: int) -> None:
    """Refuse Hy(N, K, n) unless N, K, n are integers, 0 <= K <= N, 0 <= n <= N."""
    for name, value in (("N", total), ("K", marked), ("n", draws)):
        _require_int(name, value)
    if not (0 <= marked <= total and 0 <= draws <= total):
        raise ValueError("hypergeometric needs 0 <= K <= N and 0 <= n <= N")


def hypergeom_pmf(total: int, marked: int, draws: int) -> Pmf:
    """Hy(N, K, n): successes drawing n without replacement from N with K marked."""
    _hypergeom_guard(total, marked, draws)
    lo = max(0, draws + marked - total)
    hi = min(marked, draws)
    masses = [
        Fraction(binomial(marked, j) * binomial(total - marked, draws - j))
        for j in range(lo, hi + 1)
    ]
    return pmf_from_masses(lo, masses)


def hypergeom_moments(total: int, marked: int, draws: int, s_max: int = 2) -> MomentReport:
    _hypergeom_guard(total, marked, draws)
    _require_int("s_max", s_max, 1)

    def fm(s):
        den = falling_factorial(total, s)
        num = falling_factorial(marked, s) * falling_factorial(draws, s)
        return Fraction(num, den) if den else Fraction(0)
    return _fms_to_report(s_max, fm)


def marginal_mass(n: int, k: int, j: int) -> Fraction:
    """P{sigma^(i) = j} for all-ones weights, any i, by coefficient extraction.

    The per-value probability generating function is
    [z^k] (1-z)^-(n-1) (1 + z/(1 - z t)) / C(n+k-1, k); the z-extraction
    collapses to single binomials.  Needs n >= 2 (one tracked value plus at
    least one other).  The support is 0..k-1; beyond it the binomials would
    reflect to nonzero values, so j >= k returns 0.
    """
    _validate_nk(n, k, kmin=1, nmin=2)
    _require_int("j", j, 0)
    if j >= k:
        return Fraction(0)
    denom = binomial(n + k - 1, k)
    if j == 0:
        num = binomial(n + k - 2, k) + binomial(n + k - 3, n - 2)
    else:
        num = binomial(n + k - 3 - j, n - 2)
    return Fraction(num, denom)


def marginal_pmf(n: int, k: int) -> Pmf:
    _validate_nk(n, k, kmin=1, nmin=2)
    denom = binomial(n + k - 1, k)
    masses = [marginal_mass(n, k, j) * denom for j in range(k)]
    return pmf_from_masses(0, masses)


def marginal_moments(n: int, k: int, s_max: int = 2) -> MomentReport:
    """Closed-form factorial moments of the per-value adjacency count:

        fm_s = s! (k)_{s+1} / ((n+k-1) (n+s-1)_s).
    """
    _validate_nk(n, k, kmin=1, nmin=2)
    _require_int("s_max", s_max, 1)
    return _fms_to_report(s_max, lambda s: Fraction(
        math.factorial(s) * falling_factorial(k, s + 1),
        (n + k - 1) * falling_factorial(n + s - 1, s)))


def marginal_p0_closed(n: int, k: int) -> Fraction:
    """P{sigma^(i)=0} as [C(n+k-2,k) + C(n+k-3,k-1)] / C(n+k-1,k); equals
    marginal_mass(n, k, 0)."""
    _validate_nk(n, k, kmin=1, nmin=2)
    return Fraction(binomial(n + k - 2, k) + binomial(n + k - 3, k - 1),
                    binomial(n + k - 1, k))


def marginal_p0_variant(n: int, k: int) -> Fraction:
    """An alternative closed form for P{sigma^(i)=0} that disagrees with
    enumeration (already at n=3, k=2: it gives 2/3 where the true mass is
    5/6).  Kept callable so the discrepancy stays pinned down by tests."""
    _validate_nk(n, k, kmin=1, nmin=2)
    return Fraction(binomial(n - 2 + k, k) + binomial(n - 3 + k, k),
                    binomial(n + k - 1, k))


def marginal_zeta_pgf(n: int, k: int, i: int, t0) -> Fraction:
    """E(t0^{sigma^(i)}) for reciprocal weights 1/m, m = 1..n.

    The refined sum with t_i = t0 and every other t_m = 1, normalized by the
    t=1 endpoint value.
    """
    _validate_nk(n, k, kmin=1)
    _require_int("i", i, 1)
    if i > n:
        raise ValueError("tracked value i must satisfy 1 <= i <= n")
    tvec = [Fraction(1)] * n
    tvec[i - 1] = t0
    return theta_multi_eval(ZetaWeights(1), n, k, tvec) / zeta_star_ones(n, k)


def bernoulli_sum_pmf(ps: Sequence) -> Pmf:
    """Law of a sum of independent Bernoulli variables with success vector ps:
    the coefficients of prod_m ((d_m - c_m) + c_m z) for p_m = c_m/d_m, one
    integer Series product each, over prod_m d_m: one Fraction per mass."""
    ps = [Fraction(p) for p in ps]
    if not all(0 <= p <= 1 for p in ps):
        raise ValueError("Bernoulli parameters must lie in [0, 1]")
    acc = Series.one(len(ps))
    for p in ps:
        acc = acc * Series(len(ps), [p.denominator - p.numerator, p.numerator])
    return pmf_from_masses(0, acc.coeffs)


def d_n_pmf(n: int, exponent: int) -> Pmf:
    """Convolution of Be(1/j^exponent), j = 1..n; exponent 1 or 2.

    For exponent 1 the mass at l equals the depth-(l-1) truncated all-ones
    multiple harmonic value over n-1 divided by n; for exponent 2 the
    factorial moments are s! times the depth-s {2}-indexed value over n.
    """
    _require_int("n", n, 1)
    _require_int("exponent", exponent)
    if exponent not in (1, 2):
        raise ValueError("exponent must be 1 or 2")
    return bernoulli_sum_pmf([Fraction(1, j**exponent) for j in range(1, n + 1)])


def _zeta_tail(s: int, n: int) -> float:
    """Euler-Maclaurin value of sum_{l>n} l^-s for integer s >= 2."""
    x = float(n)
    return (
        x ** (1 - s) / (s - 1)
        - x ** (-s) / 2
        + s * x ** (-s - 1) / 12
        - s * (s + 1) * (s + 2) * x ** (-s - 3) / 720
    )


# Outer indices per block of the float passes over m; each sum carries its
# last value into the next block, so memory does not grow with n_trunc.
_BLOCK = 4096


def _mzv_dp_float(indices: Sequence[int], n: int) -> list:
    """Truncated multiple zeta values of every suffix indices[j:] as floats.

    One theta._strict_block per block of m; entry j of the result is the
    value of indices[j:], truncated at n.
    """
    vals = [1.0] + [0.0] * len(indices)
    for m0 in range(1, n + 1, _BLOCK):
        ms = range(m0, min(m0 + _BLOCK, n + 1))
        xs = {s: [float(m) ** -s for m in ms] for s in set(indices)}
        _strict_block([xs[s] for s in reversed(indices)], vals)
    return vals[:0:-1]


def _mzv_crude_bound(indices: Sequence[int]) -> float:
    """Upper bound on the infinite MZV: product of s/(s-1) per index."""
    out = 1.0
    for s in indices:
        out *= s / (s - 1)
    return out


def truncated_mzv_numeric(indices: Sequence[int], n_trunc: int) -> tuple:
    """Float estimate of an infinite MZV (all indices >= 2) with error bound.

    Truncates the outer summation at n_trunc and restores the tail to first
    order: tail = [sum_{l>n} l^-i1] x (value of the remaining indices), the
    bracket via Euler-Maclaurin.  The bound covers the neglected second-order
    tail, the Euler-Maclaurin remainder, and float accumulation noise.

    One blocked pass (_mzv_dp_float) gives the truncated value of every
    suffix; value and bound are then folded from the innermost index outward,
    each suffix's estimate serving as the "remaining indices" factor of the
    next.  Every term is positive, so each level's plain prefix sum adds
    relative error below about (n_trunc + 2) 2^-53: inside the noise
    allowance of 1e-15 n_trunc per level, with no compensation.
    """
    idx = tuple(indices)
    for i in idx:
        _require_int("every index", i, 2)
    _require_int("n_trunc", n_trunc, 10)
    truncated = _mzv_dp_float(idx, n_trunc)
    value, err = 1.0, 0.0
    for j in range(len(idx) - 1, -1, -1):
        i1 = idx[j]
        neglected = 0.0
        if j + 1 < len(idx):
            i2 = idx[j + 1]
            neglected = (
                2.0 ** (i2 - 1) / (i2 - 1)
                * _mzv_crude_bound(idx[j + 2:])
                * float(n_trunc) ** (2 - i1 - i2) / (i1 + i2 - 2)
            )
        corr = _zeta_tail(i1, n_trunc)
        em_remainder = float(i1) ** 5 * float(n_trunc) ** (-i1 - 5)
        noise = 1e-15 * n_trunc * (len(idx) - j)
        value, err = (truncated[j] + corr * value,
                      neglected + corr * err + em_remainder + noise)
    return value, err


def s_infinity_2_exact(k: int) -> Pmf:
    """Exact adjacency law for the untruncated 1/m^2 weights.

    Every theta coefficient is a rational multiple of the same power of
    pi^2, so the normalized masses are exact rationals.
    """
    _require_int("k", k, 1)
    poly = theta_infinite_zeta(2, k)
    masses = []
    for j in range(k):
        c = poly.coefficient(j)
        masses.append(c.coeff if isinstance(c, GradedValue) else Fraction(c))
    return pmf_from_masses(0, masses)


def _sinf_truncated_sums(k: int, n_trunc: int) -> list[list[float]]:
    """T[l][w] = sum over compositions c of w into l parts of zeta_N(2c), N = n_trunc.

    T[l][w] is [t^(w-l)] theta_{N;w}(t) for the weights 1/m^2 (see
    theta_ordered_partitions), so it is read off the convolution identity
    theta_w = sum_a h_a e_(w-a) t^a (1-t)^(w-a) in powers of t:

        T[l][w] = sum_{i=l..w} (-1)^(i-l) C(i, l) e_i h_(w-i),

    with e_i = zeta_N({2}_i) from the strict prefix sums e_i(m) = e_i(m-1) +
    m^-2 e_(i-1)(m-1) (theta._strict_block), p_j = zeta_N(2j), and h_j =
    zeta*_N({2}_j) from Newton's identity j h_j = sum_i p_i h_(j-i)
    (theta._newton_identity on floats, the routine the integer routes run):
    about 3k passes over m = 1..N (k prefix sums, k powers, k power sums).

    The caller's noise allowance 1e-15 N l C(w-1, l-1) on T[l][w] still
    covers rounding.  e, p and h are sums of positive terms, so each has
    relative error about w(N+2) 2^-53.  For l >= 2 the alternating sum's
    terms have absolute sum A[l][w] <= 2 sum_i C(i, l) pi^(2i)/(2i+1)!, as
    e_i <= pi^(2i)/(2i+1)! and h_j = (2 - 2^(2-2j)) zeta(2j) < 2 (Hoffman):
    at most 3.2 at l = 2 and falling in l, so error / allowance <= 0.35.
    Row 1 is p_w itself: there A reaches about 7.9 and would exceed the
    allowance.
    """
    e = [1.0] + [0.0] * k
    p = [0.0] * (k + 1)
    for m0 in range(1, n_trunc + 1, _BLOCK):
        x = [1.0 / (m * m) for m in range(m0, min(m0 + _BLOCK, n_trunc + 1))]
        xj = x
        for j in range(1, k + 1):
            p[j] += math.fsum(xj)
            if j < k:
                xj = list(map(operator.mul, xj, x))
        _strict_block([x] * k, e)
    h = _newton_identity(p, k, 1.0, operator.truediv)
    T = [[0.0] * (k + 1) for _ in range(k + 1)]
    T[0][0] = 1.0
    T[1][1:] = p[1:]
    for l in range(2, k + 1):
        for w in range(l, k + 1):
            T[l][w] = math.fsum((-1) ** (i - l) * math.comb(i, l) * e[i] * h[w - i]
                                for i in range(l, w + 1))
    return T


def _s_infinity_2_depths(k: int, n_trunc: int) -> tuple[list[float], list[float]]:
    """Per depth l: the summed estimates and bounds of truncated_mzv_numeric(2c)
    over the compositions c of k into l parts, without enumerating them.

    Est(c) = T(c) + corr(c_1) Est(rest) is linear, so V[l][w], the summed
    estimate over the compositions of w into l parts, is
    T[l][w] + sum_p corr(2p) V[l-1][w-p].  The bound folds the same way and
    adds, per composition, the Euler-Maclaurin remainder of its first part,
    the noise allowance, and the neglected term, which depends only on the
    first two parts' sum s and second part, and on the crude bound of the rest.
    """
    N = float(n_trunc)
    T = _sinf_truncated_sums(k, n_trunc)
    corr = [0.0] + [_zeta_tail(2 * p, n_trunc) for p in range(1, k + 1)]
    em = [0.0] + [float(2 * p) ** 5 * N ** (-2 * p - 5) for p in range(1, k + 1)]
    # neg[s] = sum over first parts p1 + p2 = s of the neglected-term factor
    neg = [0.0] * (k + 1)
    for s in range(2, k + 1):
        second = sum(2.0 ** (2 * p2 - 1) / (2 * p2 - 1) for p2 in range(1, s))
        neg[s] = second * N ** (2 - 2 * s) / (2 * s - 2)
    V = [[0.0] * (k + 1) for _ in range(k + 1)]
    E = [[0.0] * (k + 1) for _ in range(k + 1)]
    crude = [[0.0] * (k + 1) for _ in range(k + 1)]  # summed _mzv_crude_bound
    V[0][0], crude[0][0] = 1.0, 1.0
    for l in range(1, k + 1):
        for w in range(l, k + 1):
            v, e = T[l][w], 0.0
            for p in range(1, w - l + 2):
                # compositions of w - p into l - 1 parts; 0 has one into none
                c = math.comb(w - p - 1, l - 2) if l > 1 else int(p == w)
                crude[l][w] += 2 * p / (2 * p - 1) * crude[l - 1][w - p]
                v += corr[p] * V[l - 1][w - p]
                e += corr[p] * E[l - 1][w - p] + em[p] * c
            if l >= 2:
                e += sum(neg[s] * crude[l - 2][w - s] for s in range(2, w - l + 3))
            V[l][w] = v
            E[l][w] = e + 1e-15 * n_trunc * l * math.comb(w - 1, l - 1)
    return [V[l][k] for l in range(k + 1)], [E[l][k] for l in range(k + 1)]


def s_infinity_2_pmf(k: int, n_trunc: int = 100000) -> FloatPmf:
    """Numeric adjacency law for untruncated 1/m^2 weights, with error bound.

    Mass j is the sum of the tail-corrected truncated MZVs zeta(2c) over the
    compositions c of k into k-j parts, normalized; the estimate and bound
    of each equal truncated_mzv_numeric's up to float rounding.  The
    2^(k-1) compositions are never enumerated: their truncated sums per
    (weight, depth) are read off the convolution identity for theta_{N;w}
    from e, p and h, about 3k float passes over m = 1..n_trunc in blocks of
    fixed size, so memory stays flat in n_trunc; a (weight, depth) fold adds
    the tail corrections and bounds.  At the default n_trunc that takes
    about 0.1 s at k = 10 and 0.25 s at k = 24.  Independent of the
    graded-exact route, which tests use to cross-check it.
    """
    _require_int("k", k, 1)
    _require_int("n_trunc", n_trunc, 1000)
    if k == 1:
        return FloatPmf(0, (1.0,), 0.0)
    values, bounds = _s_infinity_2_depths(k, n_trunc)
    nums = values[:0:-1]  # mass j sums the compositions of depth k - j
    errs = bounds[:0:-1]
    den = math.fsum(nums)
    den_err = math.fsum(errs)
    probs = tuple(v / den for v in nums)
    bound = max(
        (errs[j] + probs[j] * den_err) / den for j in range(k)
    ) * (1 + 1e-12)
    return FloatPmf(0, probs, bound)


def sum_theorem_pmf(n: int, k: int) -> Pmf:
    """Law on {0..n-1} with P{i} = C(k-n+i-1, k-n-1) / C(k-1, n-1), k > n >= 1.

    Splitting a depth-n block structure out of k slots; masses sum to 1 by
    the hockey-stick identity.
    """
    _require_int("n", n, 1)
    _require_int("k", k, n + 1)
    masses = [Fraction(binomial(k - n + i - 1, k - n - 1)) for i in range(n)]
    return pmf_from_masses(0, masses)


def sum_theorem_r_pmf(n: int, k: int) -> Pmf:
    """Law of n minus the sum-theorem variable, supported on {1..n}."""
    return reflected_pmf(sum_theorem_pmf(n, k), n)


def bernstein_pgf(n: int, k: int) -> Poly:
    """The sum-theorem pgf assembled in the Bernstein basis of degree n-1:

        sum_{j=0}^{n-1} C(k-1, j) t^j (1-t)^(n-1-j) / C(k-1, n-1).

    _bernstein_to_power turns the integers C(k-1, j) into the monomial
    basis, and each coefficient is divided by C(k-1, n-1).
    """
    _require_int("n", n, 1)
    _require_int("k", k, n + 1)
    denom = binomial(k - 1, n - 1)
    coeffs = _bernstein_to_power([binomial(k - 1, j) for j in range(n)])
    return Poly(Fraction(c, denom) for c in coeffs)


def bezier_coeffs(n: int, k: int) -> tuple:
    """Bezier coefficients of the sum-theorem pgf: beta_j = 1 / C(k-1-j, k-n)."""
    _require_int("n", n, 1)
    _require_int("k", k, n + 1)
    return tuple(Fraction(1, binomial(k - 1 - j, k - n)) for j in range(n))


def expected_sigma_zeta(n: int, k: int) -> Fraction:
    """Mean adjacency count for reciprocal weights 1/m as a harmonic-sum ratio:

        [sum_{l=0}^{k-2} H_n^(l+2) zeta*_n({1}_{k-l-2})] / zeta*_n({1}_k).

    With L = lcm(1..n), H_n^(s) = P_s / L^s and zeta*_n({1}_j) = H'_j / L^j,
    H' by Newton's identity on the integer power sums P of L/m, not by the e/h
    kernel that moments reads; each term carries L^-k, so the ratio is one
    Fraction sum_l P_{l+2} H'_{k-l-2} / H'_k.
    """
    _validate_nk(n, k, kmin=1)
    _, ints = _scaled_weights(ZetaWeights(1), n)
    sums = _power_sums_scaled(ints, k)
    hs = _newton_identity(sums, k, 1, _divide_exact)
    return Fraction(sum(sums[l + 2] * hs[k - l - 2] for l in range(k - 1)), hs[k])


def poisson_pmf(lam: float, cutoff: int) -> FloatPmf:
    """Po(lam) masses e^-lam lam^j / j! for j = 0..cutoff."""
    if lam <= 0:
        raise ValueError("needs lam > 0")
    _require_int("cutoff", cutoff, 0)
    masses = []
    m = math.exp(-lam)
    for j in range(cutoff + 1):
        masses.append(m)
        m *= lam / (j + 1)
    return FloatPmf(0, tuple(masses))


def negbin_pmf(r: int, rho: float, cutoff: int) -> FloatPmf:
    """NegBin(r, rho) masses C(j+r-1, j) (1-rho)^r rho^j for j = 0..cutoff."""
    _require_int("r", r, 1)
    if not 0 < rho < 1:
        raise ValueError("needs 0 < rho < 1")
    _require_int("cutoff", cutoff, 0)
    masses = [
        binomial(j + r - 1, j) * (1 - rho) ** r * rho**j for j in range(cutoff + 1)
    ]
    return FloatPmf(0, tuple(masses))


def geometric_modified_pmf(c, cutoff: int) -> tuple:
    """Size-biased-start geometric masses: P{0} = 1/(1+c) + c/(1+c)^2 and
    P{j} = c^(j+1)/(1+c)^(j+2) for j >= 1; returned for j = 0..cutoff."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError("needs c > 0")
    _require_int("cutoff", cutoff, 0)
    out = [Fraction(1, 1) / (1 + c) + c / (1 + c) ** 2]
    for j in range(1, cutoff + 1):
        out.append(c ** (j + 1) / (1 + c) ** (j + 2))
    return tuple(out)


def beta_moments(alpha, beta, s_max: int) -> tuple:
    """Raw moments of Beta(alpha, beta): (alpha+s-1)_s / (alpha+beta+s-1)_s."""
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if alpha <= 0 or beta <= 0:
        raise ValueError("needs alpha, beta > 0")
    _require_int("s_max", s_max, 1)
    return tuple(
        falling_factorial(alpha + s - 1, s) / falling_factorial(alpha + beta + s - 1, s)
        for s in range(1, s_max + 1)
    )


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def tv_distance(p, q) -> float:
    """Total variation distance: half the l1 gap over the union support.

    Exact rational summation when both arguments are exact Pmfs; float
    otherwise.
    """
    lo = min(p.offset, q.offset)
    hi = max(p.offset + len(p.probs), q.offset + len(q.probs))
    if isinstance(p, Pmf) and isinstance(q, Pmf):
        total = sum((abs(p.mass(j) - q.mass(j)) for j in range(lo, hi)), Fraction(0))
        return float(total / 2)
    total = math.fsum(abs(float(p.mass(j)) - float(q.mass(j))) for j in range(lo, hi))
    return total / 2


def kolmogorov_distance_to_normal(pmf, mean, sd) -> float:
    """Two-sided sup distance between the standardized CDF and the normal CDF."""
    mean = float(mean)
    sd = float(sd)
    if sd <= 0:
        raise ValueError("needs sd > 0")
    worst = 0.0
    cum = 0.0
    for j in range(pmf.offset, pmf.offset + len(pmf.probs)):
        phi = normal_cdf((j - mean) / sd)
        worst = max(worst, abs(cum - phi))
        cum += float(pmf.mass(j))
        worst = max(worst, abs(cum - phi))
    return worst


@dataclass(frozen=True)
class ScanRow:
    """One grid point of a limit-regime scan."""

    regime: str
    param: str
    value: float
    distance: float


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _scan_poisson_multiset(n: int) -> tuple:
    # k = ceil(sqrt(n)) keeps k^2/n -> 1, the unit-rate regime
    k = _ceil_sqrt(n)
    pmf = hypergeom_pmf(n + k - 1, k - 1, k)
    ref = poisson_pmf(1.0, k + 60)
    mr = hypergeom_moments(n + k - 1, k - 1, k, 1)
    return f"n={n}", float(mr.mean), tv_distance(pmf, ref)


def _scan_normal_multiset(n: int) -> tuple:
    pmf = hypergeom_pmf(2 * n - 1, n - 1, n)
    mr = hypergeom_moments(2 * n - 1, n - 1, n, 2)
    sd = math.sqrt(float(mr.variance))
    ks = kolmogorov_distance_to_normal(pmf, float(mr.mean), sd)
    return f"n={n},k={n}", sd, ks


def _scan_dn(n: int, exponent: int) -> Callable[[int], tuple]:
    def scan(k: int) -> tuple:  # blocks against D_n for 1/m^exponent weights, over k
        law = s_pmf(ZetaWeights(exponent), n, k)
        blocks = reflected_pmf(law, k)
        ref = d_n_pmf(n, exponent)
        mr = pmf_moments(blocks, 1)
        return f"n={n},k={k}", float(mr.mean), tv_distance(blocks, ref)
    return scan


def _scan_beta_marginal(n: int) -> Callable[[int], tuple]:
    def scan(k: int) -> tuple:  # marginal factorial moments against Beta(1, n-1), over k
        mr = marginal_moments(n, k, 3)
        ref = beta_moments(1, n - 1, 3)
        worst = Fraction(0)
        first = Fraction(0)
        for s in range(1, 4):
            ratio = mr.factorial_moments[s - 1] / (Fraction(k) ** s * ref[s - 1])
            if s == 1:
                first = ratio
            worst = max(worst, abs(1 - ratio))
        return f"n={n},k={k}", float(first), float(worst)
    return scan


def _scan_geometric_marginal(n: int) -> tuple:
    # n = k makes the block-density parameter c = k/n equal 1
    ref = geometric_modified_pmf(1, 5)
    worst = Fraction(0)
    for j in range(1, 6):
        ratio = marginal_mass(n, n, j) / ref[j]
        worst = max(worst, abs(1 - ratio))
    return f"n={n},k={n}", float(marginal_mass(n, n, 1)), float(worst)


def _scan_sum_theorem_negbin(k: int) -> tuple:
    n = k // 2
    shifted = shifted_pmf(sum_theorem_r_pmf(n, k), -1)
    ref = negbin_pmf(1, n / k, n + 60)
    mr = pmf_moments(shifted, 1)
    return f"n={n},k={k}", float(mr.mean), tv_distance(shifted, ref)


@dataclass(frozen=True)
class Regime:
    """One limit regime. scan maps a grid point to (param, value, distance), and
    grid_min is the smallest point it accepts. The verify check named label needs the
    distances over grid strictly decreasing, and the last below final_below when set."""

    scan: Callable[[int], tuple]
    grid: tuple
    label: str
    grid_min: int = 1
    final_below: float | None = None


# grid_min 2: at 1 there is no spread (normal), one value (geometric), n = k // 2 = 0 (negbin)
REGIMES = {
    "poisson_multiset": Regime(_scan_poisson_multiset, (100, 1000, 10000),
                               "poisson regime tv decreasing"),
    "normal_multiset": Regime(_scan_normal_multiset, (50, 100, 200),
                              "normal regime KS decreasing and below 0.05", 2, 0.05),
    "dn_zeta1": Regime(_scan_dn(5, 1), (10, 20, 40),
                       "block-count regime (weights 1/m) tv below 0.01", final_below=0.01),
    "dn_zeta2": Regime(_scan_dn(20, 2), (10, 20, 40),
                       "block-count regime (weights 1/m^2) tv decreasing"),
    "beta_marginal": Regime(_scan_beta_marginal(5), (20, 40, 80),
                            "beta regime moment ratios converging"),
    "geometric_marginal": Regime(_scan_geometric_marginal, (50, 200, 400),
                                 "geometric regime mass ratios within 5%", 2, 0.05),
    "sum_theorem_negbin": Regime(_scan_sum_theorem_negbin, (12, 24, 48),
                                 "negative-binomial regime tv decreasing", 2),
}
DEFAULT_GRIDS = {name: r.grid for name, r in REGIMES.items()}  # a view for benchmarks and tests


def limit_scan(regime: str, grid: Sequence[int] | None = None) -> list:
    """Distance diagnostics for one limit regime over a parameter grid.

    Grids sweep n for poisson/normal/geometric regimes and k for the rest;
    REGIMES holds each regime's scanner, default grid and smallest point.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; choose from "
                         + ", ".join(sorted(REGIMES)))
    spec = REGIMES[regime]
    pts = spec.grid if grid is None else tuple(grid)
    if not pts:
        raise ValueError("grid must be non-empty")
    for p in pts:
        _require_int("grid point", p, spec.grid_min)
    return [ScanRow(regime, *spec.scan(p)) for p in pts]
