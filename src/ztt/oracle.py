"""Brute-force ground truth by explicit multiset enumeration.

Everything here is deliberately naive: walk every weakly decreasing k-tuple
over {1..n}, read off its statistics, and accumulate.  The fast algorithms
elsewhere are tested against these sums, never the other way around.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterator, Sequence

from .exact import Poly, _require_int, _validate_nk, binomial
from .weights import WeightSequence, weight_at

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "oracle_budget",
    "count_multisets",
    "enumerate_multisets",
    "sigma",
    "sigma_refined",
    "p_norm",
    "shape",
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
    return sum(1 for i in range(len(ms) - 1) if ms[i] == ms[i + 1])


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


def shape(ms: Sequence[int]) -> tuple[int, ...]:
    """Multiplicities of the distinct values, largest value first."""
    out: list[int] = []
    prev = None
    for v in ms:
        if v == prev:
            out[-1] += 1
        else:
            out.append(1)
            prev = v
    return tuple(out)


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

    Refuses to enumerate when the multiset count exceeds the budget
    (default 10**7, overridable via ZTT_BUDGET or the budget argument).
    """
    _validate_nk(n, k)
    if tvec is not None and q is not None:
        raise ValueError("tvec and q refinements are mutually exclusive")
    _check_budget(n, k, budget)
    terms = [weight_at(seq, m) for m in range(1, n + 1)]

    if tvec is not None:
        ts = [Fraction(t) for t in tvec]
        if len(ts) != n:
            raise ValueError(f"tvec needs one entry per weight index (expected {n})")
        total = Fraction(0)
        for ms in enumerate_multisets(n, k):
            w = Fraction(1)
            for v in ms:
                w *= terms[v - 1]
            for i, c in enumerate(sigma_refined(ms, n)):
                if c:
                    w *= ts[i] ** c
            total += w
        return total

    qv = None if q is None else Fraction(q)
    coeffs = [Fraction(0)] * max(k, 1)
    for ms in enumerate_multisets(n, k):
        w = Fraction(1)
        for v in ms:
            w *= terms[v - 1]
        if qv is not None:
            w *= qv ** p_norm(ms)
        coeffs[sigma(ms)] += w
    return Poly(coeffs)


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
    per-value marginal laws."""
    _validate_nk(n, k)
    _require_int("i", i, 1)
    if i > n:
        raise ValueError("tracked value i must satisfy 1 <= i <= n")
    _check_budget(n, k, budget)
    terms = [weight_at(seq, m) for m in range(1, n + 1)]
    coeffs = [Fraction(0)] * max(k, 1)
    for ms in enumerate_multisets(n, k):
        w = Fraction(1)
        for v in ms:
            w *= terms[v - 1]
        coeffs[sigma_refined(ms, n)[i - 1]] += w
    return Poly(coeffs)
