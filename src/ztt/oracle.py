"""Brute-force ground truth by explicit multiset enumeration.

The enumeration is deliberately naive: walk every weakly decreasing k-tuple
over {1..n}, read off its statistics, and accumulate.  The fast algorithms
elsewhere are tested against these sums, never the other way around.  The
walk itself is itertools.combinations_with_replacement over n, n-1, ..., 1,
so the tuples come from C; every one is still visited, C(n+k-1, k) in all.

Only the arithmetic is not naive.  weights._scaled_weights reads the
weights once as b_m = L*a_m, L the lcm of their denominators; each multiset
adds the integer product of its b's into a bucket keyed by its statistic,
and each output value is one Fraction over L^k.  Only ztt.exact and that
weight read are shared with the routes it checks; nothing of ztt.theta is.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from fractions import Fraction
from typing import Iterator, Sequence

from .exact import Poly, _fraction_poly, _over_lcm, _require_int, _validate_nk, binomial
from .weights import WeightSequence, _scaled_weights
from .weights import weight_at  # noqa: F401  the benchmark tracer's self-test patches it here

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "oracle_budget",
    "count_multisets",
    "enumerate_multisets",
    "sigma",
    "sigma_refined",
    "p_norm",
    "compositions",
    "theta_bruteforce",
    "theta_marginal_bruteforce",
]

DEFAULT_BUDGET = 10_000_000

_BUDGET_ENV = "ZTT_BUDGET"


class BudgetExceededError(RuntimeError):
    """Enumeration refused because the multiset count exceeds the budget."""


def oracle_budget(flag: int | None = None) -> int:
    """Enumeration budget: flag if given, else the ZTT_BUDGET env var, else
    the default.  Either source below 1 is refused with a ValueError."""
    if flag is not None:
        source, value = "budget", flag
    else:
        raw = os.environ.get(_BUDGET_ENV)
        if raw is None:
            return DEFAULT_BUDGET
        try:
            source, value = _BUDGET_ENV, int(raw)
        except ValueError as exc:
            raise ValueError(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{source} must be >= 1, got {value}")
    return value


def _check_budget(n: int, k: int, budget: int | None) -> None:
    cap = oracle_budget(budget)
    size = count_multisets(n, k)
    if size > cap:
        raise BudgetExceededError(
            f"{size} multisets for n={n}, k={k} exceed the enumeration budget {cap}"
        )


def count_multisets(n: int, k: int) -> int:
    """Number of size-k multisets over {1..n}."""
    _validate_nk(n, k, nmin=0)
    return binomial(n + k - 1, k)


def enumerate_multisets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield all size-k multisets of {1..n} as weakly decreasing tuples.

    Order is ascending in the largest element, then recursively in the rest:
    (1,1,1), (2,1,1), (2,2,1), (2,2,2) for n=2, k=3.
    """
    _validate_nk(n, k, nmin=0)
    cur: list[int] = []

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(cur)
            return
        for v in range(1, cap + 1):
            cur.append(v)
            yield from rec(remaining - 1, v)
            cur.pop()

    yield from rec(k, n)


def sigma(ms: Sequence[int]) -> int:
    """Number of adjacent equal pairs in the weakly decreasing tuple."""
    return sum(map(operator.eq, ms, ms[1:]))


def sigma_refined(ms: Sequence[int], n: int) -> tuple[int, ...]:
    """Adjacent equal pairs split by value: entry i-1 counts pairs of value i."""
    out = [0] * n
    for i in range(len(ms) - 1):
        if ms[i] == ms[i + 1]:
            out[ms[i] - 1] += 1
    return tuple(out)


def p_norm(ms: Sequence[int]) -> int:
    """Sum of the entries."""
    return sum(ms)


def compositions(k: int) -> Iterator[tuple[int, ...]]:
    """All 2**(k-1) compositions of k, in lexicographic order."""
    _require_int("k", k, 0)

    def rec(remaining: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for first in range(1, remaining + 1):
            yield from rec(remaining - first, prefix + (first,))

    yield from rec(k, ())


def _bucket_sums(ints: list, n: int, k: int, key) -> dict:
    """key(ms) -> sum of the integer products b_v over v in ms, over every
    multiset ms with that key: L^k times the total weight of the class."""
    buckets: dict = {}
    entry = [None, *ints].__getitem__  # multiset entries count from 1
    for ms in itertools.combinations_with_replacement(range(n, 0, -1), k):
        stat = key(ms)
        buckets[stat] = buckets.get(stat, 0) + math.prod(map(entry, ms))
    return buckets


def theta_bruteforce(
    seq: WeightSequence,
    n: int,
    k: int,
    *,
    tvec: Sequence | None = None,
    q=None,
    budget: int | None = None,
):
    """Sum w(m) * t**sigma(m) over all multisets, by direct enumeration.

    Plain call returns the polynomial in t.  With tvec (one value per weight
    index) the refined statistic is evaluated numerically and a rational is
    returned.  With q each multiset weight also picks up q**p_norm and the
    result is again a polynomial in t.

    Each multiset adds the integer product of its b_m = L*a_m into a bucket
    keyed by its statistic: sigma; (sigma, p_norm) for q; the sigma_refined
    tuple for tvec.  Every output value is one Fraction over L^k.

    Refuses to enumerate when the multiset count exceeds the budget
    (default 10**7, overridable via ZTT_BUDGET or the budget argument);
    the arguments are checked first.
    """
    _validate_nk(n, k)
    if tvec is not None and q is not None:
        raise ValueError("tvec and q refinements are mutually exclusive")
    ts = None if tvec is None else [Fraction(t) for t in tvec]
    if ts is not None and len(ts) != n:
        raise ValueError(f"tvec needs one entry per weight index (expected {n})")
    qv = None if q is None else Fraction(q)
    _check_budget(n, k, budget)
    scale, ints = _scaled_weights(seq, n)

    if ts is not None:
        # t_i = s_i / T; sigma <= top, so T^top prod t_i^c_i is an integer
        tscale, svec = _over_lcm(ts)
        top = max(k - 1, 0)
        total = 0
        for counts, w in _bucket_sums(ints, n, k, lambda ms: sigma_refined(ms, n)).items():
            w *= tscale ** (top - sum(counts))
            for s, c in zip(svec, counts):
                if c:
                    w *= s**c
            total += w
        return Fraction(total, tscale**top * scale**k)

    if qv is None:
        buckets = _bucket_sums(ints, n, k, sigma)
        return _fraction_poly([buckets.get(j, 0) for j in range(max(k, 1))], scale**k)
    # q = u / v; p_norm <= n*k, so v^(n*k) q^p is an integer
    u, v = qv.numerator, qv.denominator
    top = n * k
    by_sigma = [0] * max(k, 1)
    for (j, p), w in _bucket_sums(ints, n, k, lambda ms: (sigma(ms), p_norm(ms))).items():
        by_sigma[j] += w * u**p * v ** (top - p)
    return _fraction_poly(by_sigma, v**top * scale**k)


def theta_marginal_bruteforce(
    seq: WeightSequence,
    n: int,
    k: int,
    i: int,
    *,
    budget: int | None = None,
) -> Poly:
    """Poly in t whose coefficient j is the total weight of multisets whose
    adjacency count at the single value i equals j.  Ground truth for the
    per-value marginal laws; the buckets are keyed by that count."""
    _validate_nk(n, k)
    _require_int("i", i, 1)
    if i > n:
        raise ValueError("tracked value i must satisfy 1 <= i <= n")
    _check_budget(n, k, budget)
    scale, ints = _scaled_weights(seq, n)
    buckets = _bucket_sums(ints, n, k, lambda ms: sigma_refined(ms, n)[i - 1])
    return _fraction_poly([buckets.get(j, 0) for j in range(max(k, 1))], scale**k)
