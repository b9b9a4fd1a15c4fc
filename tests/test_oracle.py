"""Brute-force enumerator and multiset bookkeeping."""

from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztt.exact import Poly
from ztt.oracle import (
    BudgetExceededError,
    _bucket_sums,
    compositions,
    count_multisets,
    enumerate_multisets,
    oracle_budget,
    p_norm,
    sigma,
    sigma_refined,
    theta_bruteforce,
    theta_marginal_bruteforce,
)
from ztt.weights import CustomWeights, OnesWeights, ZetaWeights

F = Fraction


def test_enumeration_counts_and_order():
    for n in range(1, 7):
        for k in range(0, 7):
            ms = list(enumerate_multisets(n, k))
            assert len(ms) == count_multisets(n, k) == comb(n + k - 1, k)
            assert len(set(ms)) == len(ms)
            for t in ms:
                assert all(a >= b for a, b in zip(t, t[1:]))
                assert all(1 <= v <= n for v in t)
    assert list(enumerate_multisets(2, 3)) == [
        (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]


def test_bucket_walk_visits_each_multiset_once():
    # keyed by the tuple itself, each bucket holds the product of the
    # distinct primes of its entries exactly once: a second visit would
    # double it, and a tuple out of order would be a key of its own
    primes = [2, 3, 5, 7, 11, 13]
    for n in range(1, 7):
        for k in range(0, 7):
            buckets = _bucket_sums(primes[:n], n, k, key=lambda ms: ms)
            assert buckets == {ms: prod(primes[v - 1] for v in ms)
                               for ms in enumerate_multisets(n, k)}
            for ms in buckets:
                assert all(a >= b for a, b in zip(ms, ms[1:]))


def test_multiset_statistics():
    assert sigma((3, 3, 2, 2, 2, 1)) == 3
    assert sigma((4, 3, 2, 1)) == 0
    assert sigma(()) == 0
    assert sigma((5,)) == 0
    assert p_norm((3, 3, 1)) == 7
    assert sigma_refined((3, 3, 2, 1), 4) == (0, 0, 1, 0)
    assert sum(sigma_refined((3, 3, 2, 2, 2, 1), 3)) == sigma((3, 3, 2, 2, 2, 1))


def test_compositions_order_and_count():
    assert list(compositions(0)) == [()]
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    for k in range(1, 11):
        cs = list(compositions(k))
        assert len(cs) == 2 ** (k - 1)
        assert all(sum(c) == k for c in cs)
        assert cs == sorted(cs)


def test_bruteforce_small_values():
    ones = OnesWeights()
    assert theta_bruteforce(ones, 3, 2) == Poly([3, 3])
    assert theta_bruteforce(ones, 3, 0) == Poly([1])
    assert theta_bruteforce(ZetaWeights(1), 2, 2) == Poly([F(1, 2), F(5, 4)])
    seq = CustomWeights((F(2), F(3)))
    # (1,1)->4t, (2,1)->6, (2,2)->9t
    assert theta_bruteforce(seq, 2, 2) == Poly([6, 13])


def test_bruteforce_refinements_are_exclusive():
    ones = OnesWeights()
    with pytest.raises(ValueError):
        theta_bruteforce(ones, 2, 2, tvec=(F(1), F(1)), q=F(1, 2))


def test_multi_t_refinement():
    ones = OnesWeights()
    # (1,1): t_1, (2,1): 1, (2,2): t_2
    val = theta_bruteforce(ones, 2, 2, tvec=(F(1, 3), F(1, 5)))
    assert val == F(1, 3) + 1 + F(1, 5)


def test_q_refinement():
    ones = OnesWeights()
    # weights become q^m: (1,1)->q^2 t, (2,1)->q^3, (2,2)->q^4 t
    q = F(1, 2)
    assert theta_bruteforce(ones, 2, 2, q=q) == Poly([q**3, q**2 + q**4])


def test_budget_enforcement(monkeypatch):
    ones = OnesWeights()
    with pytest.raises(BudgetExceededError):
        theta_bruteforce(ones, 10, 10, budget=10)
    monkeypatch.setenv("ZTT_BUDGET", "12")
    assert oracle_budget() == 12
    with pytest.raises(BudgetExceededError):
        theta_bruteforce(ones, 10, 10)
    # explicit argument beats the environment
    assert theta_bruteforce(ones, 3, 2, budget=100) == Poly([3, 3])
    monkeypatch.setenv("ZTT_BUDGET", "junk")
    with pytest.raises(ValueError):
        oracle_budget()


def test_argument_errors_come_before_the_budget():
    # 40 and 40 give far more multisets than the default budget allows
    with pytest.raises(ValueError, match="tvec needs one entry per weight index"):
        theta_bruteforce(OnesWeights(), 40, 40, tvec=(1,))
    with pytest.raises(ValueError, match="mutually exclusive"):
        theta_bruteforce(OnesWeights(), 40, 40, tvec=(1,) * 40, q=2)
    with pytest.raises(ValueError):
        theta_bruteforce(OnesWeights(), 40, 40, q="junk")


def test_nonpositive_budget_argument_refused():
    # refused like a non-positive ZTT_BUDGET, not turned into a budget refusal
    ones = OnesWeights()
    for bad in (0, -2):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            theta_bruteforce(ones, 3, 2, budget=bad)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            theta_marginal_bruteforce(ones, 3, 2, 1, budget=bad)


def test_marginal_bruteforce():
    ones = OnesWeights()
    # n=3, k=2: pairs with value 1 doubled: only (1,1); sigma^1 = 1 there
    assert theta_marginal_bruteforce(ones, 3, 2, 1) == Poly([5, 1])
    assert theta_marginal_bruteforce(ZetaWeights(1), 2, 2, 1) == \
        Poly([F(3, 4), F(1)])
    with pytest.raises(ValueError):
        theta_marginal_bruteforce(ones, 3, 2, 4)
    with pytest.raises(BudgetExceededError):
        theta_marginal_bruteforce(ones, 30, 30, 1, budget=100)


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 7))
customs = st.lists(st.builds(F, st.integers(1, 30), st.integers(1, 12)),
                   min_size=1, max_size=5).map(lambda vs: CustomWeights(tuple(vs)))


def _fraction_sums(seq, n, k, key, factor=lambda ms: 1):
    """key(ms) -> sum of w(ms) * factor(ms) over the multisets, one Fraction
    product per multiset entry: the oracle's sums written out directly."""
    a = [None] + [seq.term(m) for m in range(1, n + 1)]
    out = {}
    for ms in enumerate_multisets(n, k):
        w = prod((a[v] for v in ms), start=F(1)) * factor(ms)
        out[key(ms)] = out.get(key(ms), F(0)) + w
    return out


def _poly_of(sums, k):
    coeffs = [F(0)] * max(k, 1)
    for j, w in sums.items():
        coeffs[j] += w
    return Poly(coeffs)


@settings(max_examples=40, deadline=None)
@given(customs, st.integers(0, 5), st.data())
def test_bruteforce_equals_fraction_per_multiset_sums(seq, k, data):
    n = len(seq.values)
    assert theta_bruteforce(seq, n, k) == _poly_of(_fraction_sums(seq, n, k, sigma), k)

    q = data.draw(rationals.filter(lambda x: x.denominator > 1), label="q")
    want = _poly_of(_fraction_sums(seq, n, k, sigma, lambda ms: q ** p_norm(ms)), k)
    assert theta_bruteforce(seq, n, k, q=q) == want

    tvec = data.draw(st.lists(rationals, min_size=n, max_size=n), label="tvec")
    refined = lambda ms: prod((t**c for t, c in zip(tvec, sigma_refined(ms, n))), start=F(1))
    want = sum(_fraction_sums(seq, n, k, lambda ms: 0, refined).values())
    assert theta_bruteforce(seq, n, k, tvec=tvec) == want

    i = data.draw(st.integers(1, n), label="i")
    want = _poly_of(_fraction_sums(seq, n, k, lambda ms: sigma_refined(ms, n)[i - 1]), k)
    assert theta_marginal_bruteforce(seq, n, k, i) == want
