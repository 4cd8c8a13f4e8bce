"""Unit tests for the segmented sieve and the totient table."""
from __future__ import annotations

import math

import numpy as np

from apbounds.sieve import phi_table, prime_array_segments, primes_between


def naive_primes(lo: int, hi: int) -> list[int]:
    """Trial-division oracle."""
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def segmented_count(hi: int) -> int:
    """Second, independent sieve kept in tests: plain byte sieve."""
    mask = np.ones(hi + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(hi) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return int(mask.sum())


def test_prime_counts():
    assert primes_between(2, 10**6).size == 78498
    assert primes_between(2, 10**7).size == 664579
    assert segmented_count(10**6) == 78498


def test_small_windows():
    assert primes_between(10, 30).tolist() == [11, 13, 17, 19, 23, 29]
    assert primes_between(0, 1).size == 0
    assert primes_between(999_900, 1_000_000).size == 8
    assert primes_between(2, 2).tolist() == [2]
    assert primes_between(3, 3).tolist() == [3]
    assert primes_between(24, 28).size == 0


def test_matches_naive_oracle_windows():
    for lo, hi in ((0, 100), (90, 150), (7919, 8000), (104000, 104729), (10**6, 10**6 + 500)):
        assert primes_between(lo, hi).tolist() == naive_primes(lo, hi), (lo, hi)


def test_split_invariance():
    rng = np.random.default_rng(7)
    for _ in range(12):
        lo = int(rng.integers(0, 10**6))
        hi = lo + int(rng.integers(1, 10**5))
        m = int(rng.integers(lo, hi + 1))
        whole = primes_between(lo, hi)
        parts = np.concatenate([primes_between(lo, m), primes_between(m + 1, hi)])
        assert np.array_equal(whole, parts), (lo, m, hi)


def test_segments_cover_range_in_order():
    chunks = list(prime_array_segments(100, 10**6))
    flat = np.concatenate(chunks)
    assert np.all(np.diff(flat) > 0)
    assert flat[0] >= 100 and flat[-1] <= 10**6
    assert flat.size == primes_between(100, 10**6).size


def test_phi_table_matches_factorize():
    from apbounds.arith import phi_of

    ph = phi_table(3000)
    assert ph[1] == 1
    for q in range(1, 3001):
        assert ph[q] == phi_of(q), q
