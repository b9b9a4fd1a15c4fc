"""Interpolated weighted multiset sums.

The central object is the polynomial

    theta_{n;k}(t) = sum over weakly decreasing k-tuples m of {1..n}
                     of w(m) * t**sigma(m),

where w multiplies one positive rational weight a_j per entry and sigma
counts adjacent equal pairs.  At t=0 only strictly decreasing tuples
survive (elementary symmetric functions), at t=1 everything does (complete
homogeneous ones); for reciprocal weights these endpoints are truncated
multiple zeta values and their starred variants.

Five structurally different constructions of the same polynomial live here:

  theta_product      coefficient extraction from a product of per-value factors
  theta_newton       Newton's identities for h and e on power sums
  theta_bell         complete Bell polynomial of scaled power sums
  theta_det          scaled determinant of a banded power-sum matrix
  theta_convolution  binomial convolution of the t=0 and t=1 endpoints

They must agree coefficientwise; the redundancy is the testing strategy.
A sixth route (theta_partial_fraction) evaluates at a fixed t by partial
fractions when the weights are pairwise distinct, on the integers D/a_m
with D the lcm of the weight numerators and one Fraction per pole; a
seventh (theta_ordered_partitions) sums truncated multiple zeta values over
all compositions of k, each a multiple_harmonic: one _strict_block, the
prefix sums Z_j(m) = Z_j(m-1) + m^-s_j Z_{j+1}(m-1) of every suffix at once
in any ring, which the float helpers of ztt.distributions run in blocks.
theta_multi_eval, one t per weight index, runs theta_product's factor
product on L*a_m and T*t_m, T the lcm of the t denominators, and builds one
Fraction at the end.

Four of the five constructions run on integers scaled by L, the lcm of
the denominators of a_1..a_n, and build one Fraction per coefficient at
the end; Poly keeps int coefficients int.
Every step from rationals to integers is exact._over_lcm, and
weights._scaled_weights reads the weights through it once as L and L*a_m.
theta_newton, the default, sums their powers P_j = L^j p_j (n*k integer
products, _power_sums_scaled) and runs Newton's identities on them
(_newton_identity), once for H'_i = L^i h_i and once, on the sign-flipped
sums, for E'_i = L^i e_i: about k^2 integer products.  Rung i of L^i theta
in the Bernstein basis t^a (1-t)^(i-a) is then the i + 1 products
H'_a E'_{i-a} (_bernstein_terms), converted once to powers of t
(_bernstein_to_power).
theta_product and theta_multi_eval share _factor_product on L*a_m, with
the Poly t or the integers T*t_m: factor m is the geometric series
1 + b_m T z / (1 - b_m t_m z), so multiplying by it is one forward pass over
the k + 1 coefficients, O(n*k) ring operations in all.
theta_bell and theta_det share _by_evaluation: it forms the integers
L^j alpha_j(x) from the same P_j at x = 0..k-1, each route returns
k! L^k theta_k(x) there (k(k+1)/2 Bell products, or one det_exact Bareiss
run of about k^3/3), and one interpolation gives the coefficients.  So
Newton, Bell and det share their power sums; theta_product,
theta_convolution and the oracle read none, and catch a wrong one.
_elementary_scaled and _homogeneous_scaled reach E' and H' by a second
route, the direct e and h recurrences on L*a_m in O(n*k) big-int
multiply-adds; the laws in ztt.distributions assemble their products with
the same _bernstein_terms.  theta_convolution and its Fraction
elementary_symmetric and complete_homogeneous stay independent of every
integer route, as the references.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (
    Poly,
    _fraction_poly,
    _over_lcm,
    _require_int,
    _stirling_rows,
    _validate_nk,
    bell_complete,
    binomial,
    det_exact,
    gen_binomial,
    zeta_even_coeff,
)
from .oracle import compositions
from .weights import (
    QModifiedWeights,
    WeightSequence,
    ZetaWeights,
    _scaled_weights,
    power_sum,  # noqa: F401  the benchmark tracer's self-test patches this name here
    weight_at,
)

__all__ = [
    "ThetaPoly",
    "GradedValue",
    "theta_product",
    "theta_newton",
    "theta_newton_ladder",
    "theta_bell",
    "theta_det",
    "theta_convolution",
    "theta_partial_fraction",
    "theta_ordered_partitions",
    "theta_multi_eval",
    "theta_qt",
    "multiple_harmonic",
    "zeta_star_ones",
    "zeta_t_ones",
    "prodinger_half",
    "elementary_symmetric",
    "complete_homogeneous",
    "partition_series",
    "theta_infinite_zeta",
    "closed_form_ones_bivariate",
    "ALGORITHMS",
]


@dataclass(frozen=True)
class ThetaPoly:
    """A computed theta_{n;k} polynomial together with its parameters."""

    n: int
    k: int
    weights: WeightSequence
    poly: Poly

    def at(self, t0) -> Fraction:
        return self.poly(Fraction(t0))

    def total(self) -> Fraction:
        """Value at t=1: the weighted count of all multisets."""
        return self.poly(Fraction(1))

    @property
    def coefficients(self) -> tuple:
        return self.poly.coeffs


def _newton_identity(P: list, k: int, one, divide) -> list:
    """X_0..X_k from Newton's identity X_0 = one,

        i * X_i = sum_{j=1}^{i} P_j X_{i-j},

    where P[j] is a scalar in a ring with unit one and divide(c, i) divides
    exactly by the integer i: about k^2/2 scalar products.

    On the power sums p_j the X_i are the complete homogeneous h_i; on the
    sign-flipped sums (-1)^(j-1) p_j they are the elementary e_i
    (Macdonald, Symmetric Functions and Hall Polynomials, I.2).  Both are
    homogeneous, so on P_j = L^j p_j they are L^i h_i and L^i e_i.
    """
    xs = [one]
    for i in range(1, k + 1):
        xs.append(divide(sum(map(operator.mul, P[1:i + 1], reversed(xs)), one - one), i))
    return xs


def _newton_eh(P: list, k: int, one, divide) -> tuple[list, list]:
    """h_0..h_k and e_0..e_k: Newton's identity on the power sums P_j and on
    the sign-flipped sums (-1)^(j-1) P_j."""
    signed = [None] + [p if j % 2 else -p for j, p in enumerate(P[1:], 1)]
    return _newton_identity(P, k, one, divide), _newton_identity(signed, k, one, divide)


def _bernstein_terms(hs: list, es: list, k: int) -> list:
    """h_a e_{k-a} for a = 0..k: theta_k in the Bernstein basis t^a (1-t)^(k-a),
    by the convolution identity theta_k = sum_a h_a e_{k-a} t^a (1-t)^(k-a).
    On H'_a = L^a h_a and E'_j = L^j e_j they are those of L^k theta_k."""
    return [hs[a] * es[k - a] for a in range(k + 1)]


def _bernstein_to_power(coeffs: list) -> list:
    """Coefficients, lowest power first, of sum_a c_a t^a (1-t)^(d-a) for
    coeffs = c_0..c_d.  G_r = sum_{a<=r} c_a t^a (1-t)^(r-a) is
    (1-t) G_{r-1} + c_r t^r: d(d+1)/2 subtractions in place, no product."""
    out = list(coeffs)
    for r in range(1, len(out)):
        for i in range(r, 0, -1):
            out[i] -= out[i - 1]
    return out


def _divide_exact(c: int, i: int) -> int:
    """c // i for integers, refusing a non-zero remainder."""
    q, r = divmod(c, i)
    if r:
        raise ArithmeticError(f"Newton identity {i}: {c} is not divisible by {i}")
    return q


def _elementary_scaled(ints: list[int], k: int) -> list[int]:
    """E'_0..E'_k with E'_j = L^j e_j for ints = L*a_1, ..., L*a_n: e_j is
    homogeneous of degree j, so the recurrence runs on the integers."""
    es = [1] + [0] * k
    for m, b in enumerate(ints, 1):
        for j in range(min(m, k), 0, -1):
            es[j] += b * es[j - 1]
    return es


def _homogeneous_scaled(ints: list[int], k: int) -> list[int]:
    """H'_0..H'_k with H'_j = L^j h_j, as _elementary_scaled does e."""
    hs = [1] + [0] * k
    for b in ints:
        for j in range(1, k + 1):
            hs[j] += b * hs[j - 1]
    return hs


def _power_sums_scaled(ints: list[int], k: int) -> list:
    """[None, P_1, ..., P_k] with P_j = L^j p_j = sum_m (L*a_m)^j, the j-th
    power sum of a_1..a_n as an integer (n*k integer products)."""
    sums = [None]
    powers = [1] * len(ints)
    for _ in range(k):
        powers = [p * b for p, b in zip(powers, ints)]
        sums.append(sum(powers))
    return sums


def _newton_scaled(seq: WeightSequence, n: int, k: int) -> tuple[int, list[int], list[int]]:
    """L, H'_0..H'_k and E'_0..E'_k by Newton's identities on the integer
    power sums P_j = L^j p_j."""
    _validate_nk(n, k)
    # theta_0 = 1 reads no weight, so k = 0 leaves a_1..a_n unread
    scale, ints = _scaled_weights(seq, n) if k else (1, [])
    return (scale, *_newton_eh(_power_sums_scaled(ints, k), k, 1, _divide_exact))


def theta_newton_ladder(seq: WeightSequence, n: int, k: int) -> list[Poly]:
    """All of theta_{n;0}, ..., theta_{n;k} from Newton's identities.

    log Theta(z) = log H(tz) + log E((1-t)z), so the paper's coupled
    recurrence i theta_i = sum_j p_j (t^j - (t-1)^j) theta_{i-j} factors
    into Newton's identities for h and e on the power sums p_j.  On the
    integers P_j = L^j p_j = sum_m (L*a_m)^j (n*k products, L the lcm of the
    denominators) they give H'_i = L^i h_i and E'_i = L^i e_i in about k^2
    products on operands of about k log2(L) bits, each division by i exact.
    Rung i is then the i + 1 products H'_a E'_{i-a} in the Bernstein basis
    t^a (1-t)^(i-a) (_bernstein_terms), converted to powers of t
    (_bernstein_to_power) with one Fraction c / L^i per coefficient.
    """
    scale, hs, es = _newton_scaled(seq, n, k)
    return [_fraction_poly(_bernstein_to_power(_bernstein_terms(hs, es, i)), scale**i)
            for i in range(k + 1)]


def theta_newton(seq: WeightSequence, n: int, k: int) -> ThetaPoly:
    """theta via Newton's identities on the power sums; the default
    algorithm.  Only rung k is built."""
    scale, hs, es = _newton_scaled(seq, n, k)
    terms = _bernstein_terms(hs, es, k)
    return ThetaPoly(n, k, seq, _fraction_poly(_bernstein_to_power(terms), scale**k))


def _factor_product(ints: list[int], ts: Sequence, tscale: int, k: int):
    """[z^k] of prod_m (1 + b_m T z / (1 - b_m t_m z)) for b_m in ints, t_m in
    ts and T = tscale: a run of j copies of value m has weight a_m^j and j-1
    adjacent equal pairs, the term b_m^j t_m^(j-1) T z^j.  Multiplying the
    coefficients A_0..A_k by one factor is one forward pass over its
    geometric tail G_i = b_m (t_m G_{i-1} + T A_{i-1}), G_0 = 0, adding G_i
    to A_i with A_{i-1} read before this factor: O(n*k) ring operations.
    t_m is the Poly t in theta_product and an int in theta_multi_eval.
    """
    acc = [1] + [0] * k
    for b, t in zip(ints, ts):
        g, prev = 0, acc[0]
        for i in range(1, k + 1):
            g = b * (t * g + tscale * prev)
            prev = acc[i]
            acc[i] = prev + g
    return acc[k]


def theta_product(seq: WeightSequence, n: int, k: int) -> ThetaPoly:
    """theta as [z^k] of the product of per-weight factors.

    Factor m is 1 + a_m z / (1 - a_m t z): _factor_product with every t_m
    the Poly t and T = 1, O(n*k) operations on Polys of degree below k.
    The product runs on the integers b_m = L*a_m (_scaled_weights), so
    every coefficient stays an int and [z^k] is L^k theta_k.
    """
    _validate_nk(n, k)
    scale, ints = _scaled_weights(seq, n)
    top = _factor_product(ints, [Poly((0, 1))] * n, 1, k)
    # [z^0] is the int 1; every later coefficient comes back as a Poly
    coeffs = top.coeffs if isinstance(top, Poly) else (top,)
    return ThetaPoly(n, k, seq, _fraction_poly(coeffs, scale**k))


def _by_evaluation(seq: WeightSequence, n: int, k: int, value_at) -> ThetaPoly:
    """theta from the integer values V(x) = k! L^k theta_k(x) at x = 0..k-1.

    value_at(alpha, k) returns V(x) from alpha = [None, alpha'_1, ...,
    alpha'_k] at t = x, where alpha'_j = L^j alpha_j and alpha_j(t) =
    p_j (t^j - (t-1)^j) for the j-th power sum p_j of a_1..a_n.  With L the
    lcm of the denominators of a_1..a_n, P_j = L^j p_j is the integer
    power sum of L*a_1, ..., L*a_n (_power_sums_scaled), as in theta_newton.

    V has degree at most k - 1, so its k values fix it.  Forward
    differences give its coefficients d_i in the binomial basis
    C(t, i) = sum_j s(i, j) t^j / i!, s the signed Stirling numbers of the
    first kind; over k! every term is an integer, so theta_k has one
    Fraction per coefficient over k! k! L^k.
    """
    _validate_nk(n, k)
    if k == 0:
        return ThetaPoly(n, k, seq, Poly.one())
    scale, ints = _scaled_weights(seq, n)
    P = _power_sums_scaled(ints, k)
    values = [value_at([None] + [P[j] * (x**j - (x - 1) ** j) for j in range(1, k + 1)], k)
              for x in range(k)]
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    fk = math.factorial(k)
    coeffs = [0] * k
    for i, row in enumerate(_stirling_rows(k - 1, k - 1)):
        d = diffs[i] * (fk // math.factorial(i))
        for j, c in enumerate(row):
            coeffs[j] += (-1) ** (i - j) * c * d
    return ThetaPoly(n, k, seq, _fraction_poly(coeffs, fk * fk * scale**k))


def _bell_value(alpha: list, k: int) -> int:
    """k! L^k theta_k(x) as B_k(x'_1, ..., x'_k), x'_j = (j-1)! alpha'_j(x)."""
    return bell_complete([math.factorial(j - 1) * alpha[j] for j in range(1, k + 1)], k)


def theta_bell(seq: WeightSequence, n: int, k: int) -> ThetaPoly:
    """theta as a scaled complete Bell polynomial.

    Exponentiating the logarithm of the generating function yields
    theta_k = B_k(x_1, ..., x_k) / k! with x_j = (j-1)! * alpha_j(t).
    B_k is weighted-homogeneous of degree k, so at the integer arguments
    x'_j = L^j x_j it is k! L^k theta_k.  It is taken at t = 0..k-1 and
    interpolated (_by_evaluation): each value is one integer B_k by the
    convolution recurrence, k(k+1)/2 products.
    """
    return _by_evaluation(seq, n, k, _bell_value)


def _det_value(alpha: list, k: int) -> int:
    """k! L^k theta_k(x) as det M'(x), by det_exact."""
    rows = [[alpha[i - j + 1] if j <= i else -(i + 1) if j == i + 1 else 0
             for j in range(k)] for i in range(k)]
    return det_exact(rows).numerator


def theta_det(seq: WeightSequence, n: int, k: int) -> ThetaPoly:
    """theta as det(M)/k! for the banded alpha matrix.

    M has alpha_{i-j+1}(t) on and below the diagonal and -1, -2, ...,
    -(k-1) on the superdiagonal.  Scaling row i (from 0) by L^(i+1) and
    column j by L^-j turns alpha_{i-j+1} into alpha'_{i-j+1} = L^(i-j+1)
    alpha_{i-j+1}, leaves the superdiagonal as it is, and multiplies the
    determinant by L^k: det M'(t) is k! L^k theta_k.  It is taken at
    t = 0..k-1 and interpolated (_by_evaluation): each value is det_exact
    of an integer matrix, one Bareiss run of about k^3/3 integer products.
    """
    return _by_evaluation(seq, n, k, _det_value)


def elementary_symmetric(seq: WeightSequence, n: int, k: int) -> list[Fraction]:
    """e_0, ..., e_k of a_1..a_n (strictly decreasing tuples; theta at t=0)."""
    _validate_nk(n, k, nmin=0)
    es = [Fraction(0)] * (k + 1)
    es[0] = Fraction(1)
    for m in range(1, n + 1):
        a = weight_at(seq, m)
        for j in range(min(m, k), 0, -1):
            es[j] += a * es[j - 1]
    return es


def complete_homogeneous(seq: WeightSequence, n: int, k: int) -> list[Fraction]:
    """h_0, ..., h_k of a_1..a_n (all multisets; theta at t=1)."""
    _validate_nk(n, k, nmin=0)
    hs = [Fraction(0)] * (k + 1)
    hs[0] = Fraction(1)
    for m in range(1, n + 1):
        a = weight_at(seq, m)
        for j in range(1, k + 1):
            hs[j] += a * hs[j - 1]
    return hs


def theta_convolution(seq: WeightSequence, n: int, k: int) -> ThetaPoly:
    """theta as a binomial convolution of its two endpoints:

        theta_{n;k}(t) = sum_{j=0}^{k} t^j h_j (1-t)^(k-j) e_{k-j}.
    """
    _validate_nk(n, k)
    es = elementary_symmetric(seq, n, k)
    hs = complete_homogeneous(seq, n, k)
    # expand each (1-t)^(k-j) by explicit binomials, over one denominator
    den, nums = _over_lcm(hs[j] * es[k - j] for j in range(k + 1))
    coeffs = [Fraction(sum((-1) ** (i - j) * math.comb(k - j, i - j) * nums[j]
                           for j in range(i + 1)), den)
              for i in range(k + 1)]
    return ThetaPoly(n, k, seq, Poly(coeffs))


def theta_partial_fraction(seq: WeightSequence, n: int, k: int, t0) -> Fraction:
    """theta_{n;k}(t0) by partial fractions, for pairwise distinct weights.

    Expanding the product generating function over its simple poles gives

      theta(t0) = (-1)^(n-1) * sum_{j=1}^{n}
                  prod_m ((1-t0)/(a_j t0) + 1/a_m)
                  / prod_{l != j} (1/a_j - 1/a_l)
                  * a_j^(k+1) * t0^k          for k >= 1,

    valid for any rational t0 != 0.  k=0 is the empty product, 1.

    The arithmetic runs on integers: with D the lcm of the numerators of
    a_1..a_n, R_m = D/a_m is an integer, and with (1-t0)/t0 = u/v

      theta(t0) = (-1)^(n-1) t0^k D^k / v^n * sum_j prod_m (u R_j + v R_m)
                  / (prod_{l != j} (R_j - R_l) * R_j^(k+1)),

    one Fraction per pole.
    """
    _validate_nk(n, k)
    t0 = Fraction(t0)
    if t0 == 0:
        raise ValueError("theta_partial_fraction needs t0 != 0")
    if k == 0:
        return Fraction(1)
    # the R_m = D/a_m are pairwise distinct exactly when the a_m are
    scale, rs = _over_lcm(1 / weight_at(seq, m) for m in range(1, n + 1))
    if len(set(rs)) != n:
        raise ValueError("theta_partial_fraction needs pairwise distinct weights")
    # (1 - t0)/t0 = (den - num)/num, already in lowest terms up to sign
    u, v = t0.denominator - t0.numerator, t0.numerator
    total = Fraction(0)
    for j, rj in enumerate(rs):
        num = math.prod(u * rj + v * r for r in rs)
        den = math.prod(rj - r for l, r in enumerate(rs) if l != j) * rj ** (k + 1)
        total += Fraction(num, den)
    return (-1) ** (n - 1) * total * Fraction(t0.numerator**k * scale**k,
                                              t0.denominator**k * v**n)


def _strict_block(xs: Sequence[list], vals: list) -> None:
    """Advance Z_i(m) = Z_i(m-1) + x_i(m) Z_{i-1}(m-1), the strict sums of the
    depth-i suffix (innermost first), in place over one block m = m0..m1-1.
    vals[0] is the ring's unit (X_0 = one in _newton_identity); vals[i]
    carries Z_i from m0-1 to m1-1, and xs[i-1] holds x_i(m0..m1-1).
    """
    prev = itertools.repeat(vals[0])
    for i, x in enumerate(xs, 1):
        # map stops at len(x), so position t pairs m = m0+t with Z_{i-1}(m-1)
        prev = list(itertools.accumulate(map(operator.mul, x, prev), initial=vals[i]))
        vals[i] = prev[-1]


def multiple_harmonic(n: int, indices: Sequence[int]) -> Fraction:
    """Truncated multiple zeta value with strictly decreasing summation:

        zeta_n(i_1, ..., i_d) = sum_{n >= l_1 > ... > l_d >= 1}
                                prod_u 1 / l_u^{i_u}.

    Empty index list gives 1; depth exceeding n gives 0: one _strict_block.
    """
    _require_int("n", n, 0)
    idx = tuple(indices)
    for i in idx:
        _require_int("every index", i, 1)
    vals = [Fraction(1)] + [Fraction(0)] * len(idx)
    _strict_block([[Fraction(1, m**s) for m in range(1, n + 1)] for s in reversed(idx)], vals)
    return vals[-1]


def zeta_star_ones(n: int, k: int) -> Fraction:
    """Star variant with all-ones indices: the t=1 endpoint for 1/m weights.

    Equals h_k(1, 1/2, ..., 1/n), the weakly decreasing analogue of
    multiple_harmonic(n, (1,)*k), computed as H'_k / L^k by the integer
    e/h kernel with L = lcm(1..n).
    """
    _validate_nk(n, k, nmin=0)
    scale, ints = _scaled_weights(ZetaWeights(1), n)
    return Fraction(_homogeneous_scaled(ints, k)[k], scale**k)


def zeta_t_ones(n: int, k: int, t0) -> Fraction:
    """theta at t0 for reciprocal weights a_m = 1/m, as a single binomial sum.

    Specializing the partial fraction form to a_j = 1/j and collapsing the
    products into binomials gives, for k >= 1,

        sum_{j=1}^{n} (-1)^(j-1) C(n, j) C(n + (1-t0)/t0 * j, n) t0^k / j^k .

    At t0=1 this is the classical alternating single sum for the star value,
    and at t0=1/2 the symmetric C(n+j, j) C(n, j) sum scaled by 2^-k.
    """
    _validate_nk(n, k)
    t0 = Fraction(t0)
    if t0 == 0:
        raise ValueError("zeta_t_ones needs t0 != 0")
    if k == 0:
        return Fraction(1)
    c = (1 - t0) / t0
    total = Fraction(0)
    tpow = t0**k
    for j in range(1, n + 1):
        term = (
            Fraction(binomial(n, j))
            * gen_binomial(n + c * j, n)
            * tpow
            / Fraction(j**k)
        )
        total += term if j % 2 else -term
    return total


def prodinger_half(n: int, k: int) -> Fraction:
    """The t=1/2 value for reciprocal weights as an integer-binomial sum:

        sum_{j=1}^{n} (-1)^(j-1) C(n,j) C(n+j,j) / (2^k j^k),   k >= 1.

    Independent of zeta_t_ones (no generalized binomials), so the two
    cross-check each other.
    """
    _validate_nk(n, k, kmin=1)
    total = Fraction(0)
    for j in range(1, n + 1):
        term = Fraction(binomial(n, j) * binomial(n + j, j), 2**k * j**k)
        total += term if j % 2 else -term
    return total


def theta_ordered_partitions(m: int, n: int, k: int) -> ThetaPoly:
    """theta for reciprocal-power weights a_j = 1/j^m, summed shape by shape.

    Multisets grouped by shape contribute one truncated multiple zeta value
    per composition of k:

        theta_{n;k}(t) = sum over compositions p of k
                         zeta_n(m*p) * t^(k - length(p)),

    where the first part of p is the multiplicity of the largest value.
    """
    _require_int("m", m, 1)
    _validate_nk(n, k)
    coeffs = [Fraction(0)] * max(k, 1)
    if k == 0:
        coeffs[0] = Fraction(1)
    else:
        for p in compositions(k):
            v = multiple_harmonic(n, tuple(m * r for r in p))
            if v:
                coeffs[k - len(p)] += v
    return ThetaPoly(n, k, ZetaWeights(m), Poly(coeffs))


def theta_multi_eval(seq: WeightSequence, n: int, k: int, tvec: Sequence) -> Fraction:
    """Value of the refined sum with one interpolation variable per weight.

    Each multiset contributes w(m) * prod_i t_i^(adjacent equal pairs of
    value i); the per-value variable only changes factor m of
    theta_product's product, so the same _factor_product runs.

    It runs on integers: with b_m = L*a_m (_scaled_weights) and s_m = T*t_m,
    T the lcm of the denominators of the t_m, factor m has coefficients
    b_m^j s_m^(j-1) T = (L*T)^j a_m^j t_m^(j-1), so [z^k] of the product is
    (L*T)^k times the value: one Fraction at the end.
    """
    _validate_nk(n, k)
    tscale, ss = _over_lcm(tvec)
    if len(ss) != n:
        raise ValueError(f"tvec needs one entry per weight index (expected {n})")
    scale, ints = _scaled_weights(seq, n)
    return Fraction(_factor_product(ints, ss, tscale, k), (scale * tscale) ** k)


def theta_qt(seq: WeightSequence, n: int, k: int, q) -> ThetaPoly:
    """theta with every weight a_m scaled by q**m, as a polynomial in t.

    Tracks the size statistic p(m) = sum of entries through the substitution
    a_m -> a_m q^m: theta_product over QModifiedWeights(seq, q).  The
    brute-force oracle's q refinement checks it independently.  q <= 0 is
    refused by QModifiedWeights (WeightConfigError), n and k by theta_product.
    """
    return ThetaPoly(n, k, seq, theta_product(QModifiedWeights(seq, q), n, k).poly)


def partition_series(n: int, limit: int) -> tuple[int, ...]:
    """Coefficients of prod_{m=1}^{n} 1/(1-q^m) up to q^limit.

    Entry p counts partitions of p into parts of size at most n; for n=1 and
    t=q this is also the coefficient ladder of the one-weight q-theta.
    """
    _require_int("n", n, 0)
    _require_int("limit", limit, 0)
    counts = [0] * (limit + 1)
    counts[0] = 1
    for m in range(1, n + 1):
        for p in range(m, limit + 1):
            counts[p] += counts[p - m]
    return tuple(counts)


class GradedValue:
    """An exact value coeff * pi**(2*weight), with strict weight tracking.

    Addition requires equal weights (zero is neutral at any weight);
    multiplication adds weights; scalars embed at weight 0.  A mixed-weight
    addition raises: the closed-form identities this type supports are
    homogeneous, so such an addition is a bug.
    """

    __slots__ = ("weight", "coeff")

    def __init__(self, weight: int, coeff):
        _require_int("graded weight", weight, 0)
        self.weight = weight
        self.coeff = Fraction(coeff)

    def __bool__(self) -> bool:
        return self.coeff != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, GradedValue):
            if self.coeff == 0 and other.coeff == 0:
                return True
            return self.weight == other.weight and self.coeff == other.coeff
        if isinstance(other, (int, Fraction)):
            return self.coeff == other and (self.weight == 0 or other == 0)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.weight if self.coeff else 0, self.coeff))

    def _coerce(self, other) -> "GradedValue | None":
        if isinstance(other, GradedValue):
            return other
        if isinstance(other, (int, Fraction)):
            return GradedValue(0, other)
        return None

    def __add__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        if self.coeff == 0:
            return g
        if g.coeff == 0:
            return self
        if self.weight != g.weight:
            raise ValueError(
                f"graded weight mismatch in addition: {self.weight} vs {g.weight}"
            )
        return GradedValue(self.weight, self.coeff + g.coeff)

    __radd__ = __add__

    def __neg__(self) -> "GradedValue":
        return GradedValue(self.weight, -self.coeff)

    def __sub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self + (-g)

    def __rsub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g + (-self)

    def __mul__(self, other):
        if isinstance(other, GradedValue):
            return GradedValue(self.weight + other.weight, self.coeff * other.coeff)
        if isinstance(other, (int, Fraction)):
            return GradedValue(self.weight, self.coeff * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GradedValue):
            if self.weight < other.weight:
                raise ValueError("graded division would need a negative weight")
            return GradedValue(self.weight - other.weight, self.coeff / other.coeff)
        if isinstance(other, (int, Fraction)):
            return GradedValue(self.weight, self.coeff / other)
        return NotImplemented

    def to_float(self) -> float:
        return float(self.coeff) * math.pi ** (2 * self.weight)

    def __repr__(self) -> str:
        if self.weight == 0:
            return f"GradedValue({self.coeff})"
        return f"GradedValue({self.coeff} * pi^{2 * self.weight})"


def theta_infinite_zeta(m: int, k: int, t0=None):
    """theta for the untruncated reciprocal-power weights 1/j^m, even m.

    Every coefficient is homogeneous of weight m*k/2 in the pi^2 grading, so
    Newton's identities run over GradedValue scalars on the power sums
    p_j = zeta(m j): about k^2 products give h_a = zeta*({m}_a) and
    e_j = zeta({m}_j), and k + 1 more the Bernstein coefficients
    h_a e_{k-a} of rung k.  Returns the polynomial in t (GradedValue
    coefficients), or its value at rational t0 when given.
    """
    _require_int("m", m)
    _require_int("k", k, 0)
    if m < 2 or m % 2:
        raise ValueError("theta_infinite_zeta supports even integer m >= 2 only")
    zetas = [None] + [GradedValue(m * j // 2, zeta_even_coeff(m * j // 2))
                      for j in range(1, k + 1)]
    hs, es = _newton_eh(zetas, k, GradedValue(0, 1), operator.truediv)
    result = Poly(_bernstein_to_power(_bernstein_terms(hs, es, k)))
    if t0 is None:
        return result
    value = result(Fraction(t0))
    if not isinstance(value, GradedValue):
        value = GradedValue(0, value)
    return value


def closed_form_ones_bivariate(n: int, k: int) -> Poly:
    """theta for all-ones weights by coefficient extraction from

        T(x, z, t) = (1 - z t) / ((1 - z t)(1 - x) - z x),

    whose [x^n z^k] coefficient is theta_{n;k}(t).  The denominator gives a
    two-index recurrence, so the whole table up to (n, k) is filled exactly.
    """
    _validate_nk(n, k)
    # S = 1/D with D = 1 - x - z t + x z (t - 1) reorganized as
    # S[i][j] = delta + S[i-1][j] + t S[i][j-1] + (1-t) S[i-1][j-1]
    t = Poly((Fraction(0), Fraction(1)))
    one_minus_t = Poly((Fraction(1), Fraction(-1)))
    s = [[Poly.zero() for _ in range(k + 1)] for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(k + 1):
            acc = Poly.one() if i == 0 and j == 0 else Poly.zero()
            if i > 0:
                acc = acc + s[i - 1][j]
            if j > 0:
                acc = acc + t * s[i][j - 1]
            if i > 0 and j > 0:
                acc = acc + one_minus_t * s[i - 1][j - 1]
            s[i][j] = acc
    # T = (1 - z t) S
    if k == 0:
        return s[n][0]
    return s[n][k] - t * s[n][k - 1]


ALGORITHMS = {
    "newton": theta_newton,
    "product": theta_product,
    "bell": theta_bell,
    "det": theta_det,
    "convolution": theta_convolution,
}
