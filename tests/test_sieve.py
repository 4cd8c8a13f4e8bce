"""Unit tests for the segmented sieve and the totient table."""
from __future__ import annotations

import math

import numpy as np
import pytest

from apbounds import sieve
from apbounds.sieve import phi_table, prime_array_segments, primes_between


def naive_primes(lo: int, hi: int) -> list[int]:
    """Trial-division oracle."""
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def byte_primes(lo: int, hi: int) -> list[int]:
    """Second, independent sieve kept in tests: primes in [lo, hi] from a
    plain byte sieve."""
    if hi < 2:
        return []
    mask = np.ones(hi + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(hi) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return [n for n in np.flatnonzero(mask).tolist() if n >= lo]


def window_primes(lo: int, hi: int) -> np.ndarray:
    """Windowed oracle: primes in [lo, hi] from a plain mask over every
    integer of the window (no odd-only layout, no wheel), struck by a
    Python loop from max(p^2, first multiple >= lo) for each base prime
    of the byte sieve."""
    lo = max(lo, 2)
    mask = np.ones(max(hi - lo + 1, 0), dtype=bool)
    for p in byte_primes(0, math.isqrt(hi)):
        mask[max(p * p, -(-lo // p) * p) - lo::p] = False
    return lo + np.flatnonzero(mask)


def segmented_count(hi: int) -> int:
    return len(byte_primes(0, hi))


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


def _segments_checked(lo: int, hi: int) -> list[int]:
    """Flatten the segments of [lo, hi], asserting each is increasing int64."""
    out: list[int] = []
    for seg in prime_array_segments(lo, hi):
        assert seg.dtype == np.int64, (lo, hi, seg.dtype)
        assert np.all(np.diff(seg) > 0), (lo, hi)
        out += seg.tolist()
    return out


# The wheel strikes 3, 5, 7, 11, 13 and repeats every 15015 odd numbers.
WHEEL_PERIOD = 15015


def test_segments_match_byte_sieve_around_wheel_primes():
    # every lo in 0..20 puts a range end on each side of each wheel prime
    for lo in range(21):
        for hi in list(range(lo, 60)) + [2 * WHEEL_PERIOD + 57]:
            assert _segments_checked(lo, hi) == byte_primes(lo, hi), (lo, hi)


def test_segments_match_byte_sieve_past_two_periods():
    for lo, hi in ((0, 2 * WHEEL_PERIOD + 1), (17, 3 * WHEEL_PERIOD + 13),
                   (10**6 + 1, 10**6 + 5 * WHEEL_PERIOD)):
        assert _segments_checked(lo, hi) == byte_primes(lo, hi), (lo, hi)


def test_primes_between_matches_byte_sieve_for_every_hi():
    # the base primes of [0, hi] are primes_between(2, isqrt(hi)): every hi
    # up to 2000 steps across each p^2 boundary of that recursion (17^2 to
    # 43^2 past the wheel) and through its empty base cases
    ref = byte_primes(0, 2000)
    for hi in range(2001):
        assert primes_between(0, hi).tolist() == [p for p in ref if p <= hi], hi


@pytest.mark.parametrize("seg", [7, WHEEL_PERIOD, WHEEL_PERIOD + 1])
def test_segments_match_byte_sieve_at_every_phase(monkeypatch, seg):
    # each segment moves the wheel phase on by SEG mod 15015.  With SEG = 7,
    # the ranges from lo = 0, 2, .., 14 start at phases 1..7 and so reach
    # every phase within two periods; 15015 keeps the phase, 15016 steps it
    # by one
    monkeypatch.setattr(sieve, "SEG", seg)
    for lo in range(0, 15, 2):
        hi = lo + 2 * WHEEL_PERIOD + 14
        assert _segments_checked(lo, hi) == byte_primes(lo, hi), (seg, lo)
    lo, hi = 10**6 + 3, 10**6 + 4 * WHEEL_PERIOD
    assert _segments_checked(lo, hi) == byte_primes(lo, hi), seg


@pytest.mark.parametrize("lo", [10**9, 2**32 - 50_000, 99 * 10**9])
def test_segments_match_window_oracle_at_large_x(lo):
    hi = lo + 100_000
    assert np.array_equal(np.concatenate(list(prime_array_segments(lo, hi))),
                          window_primes(lo, hi)), lo


def test_short_last_segment_matches_window_oracle():
    # 2 SEG + 1000 odd numbers: the last segment is too short for most
    # sparse primes to have a multiple in it, so their first offsets all
    # land in the spare slot
    lo = 10**11 + 1
    hi = lo + 2 * (2 * sieve.SEG + 1000) - 2
    segs = list(prime_array_segments(lo, hi))
    assert len(segs) == 3
    assert np.array_equal(np.concatenate(segs), window_primes(lo, hi))


@pytest.mark.parametrize("seg,lo,hi", [
    (7, 10**6 + 3, 10**6 + 4 * WHEEL_PERIOD),
    (WHEEL_PERIOD, 10**6 + 3, 10**6 + 4 * WHEEL_PERIOD),
    (None, 10**9, 10**9 + 100_000),
])
def test_sparse_threshold_follows_seg(monkeypatch, seg, lo, hi):
    # primes from SEG >> 6 on are struck in rounds, the rest by one slice
    # each: at SEG = 7 every sieving prime takes the rounds, at 15015 the
    # primes 17..233 take slices
    if seg is not None:
        monkeypatch.setattr(sieve, "SEG", seg)
    steps = []
    rounds = sieve._rounds

    def recording(first, step, size):
        steps.append(step)
        return rounds(first, step, size)

    monkeypatch.setattr(sieve, "_rounds", recording)
    assert _segments_checked(lo, hi) == window_primes(lo, hi).tolist()
    threshold = sieve.SEG >> 6
    sieving = byte_primes(17, math.isqrt(hi))
    assert sieving[-1] >= threshold
    want = [p for p in sieving if p >= threshold]
    assert steps and all(s.tolist() == want[:s.size] for s in steps)
    assert max(s.size for s in steps) == len(want)


def test_segments_refuse_a_top_past_max_hi(monkeypatch):
    # refused before any base prime is sieved
    def no_base_primes(lo, hi):
        raise AssertionError("sieved base primes for a refused range")
    monkeypatch.setattr(sieve, "primes_between", no_base_primes)
    with pytest.raises(ValueError, match="MAX_HI"):
        next(prime_array_segments(sieve.MAX_HI - 10, sieve.MAX_HI + 1))
    # the largest offset the sieve forms, hi + 2 isqrt(hi) - 1, fits int64
    assert sieve.MAX_HI + 2 * math.isqrt(sieve.MAX_HI) - 1 <= 2**63 - 1


def test_phi_table_matches_factorize():
    from apbounds.arith import phi_of

    ph = phi_table(3000)
    assert ph[1] == 1
    for q in range(1, 3001):
        assert ph[q] == phi_of(q), q


def test_phi_table_matches_factorize_at_1e5():
    # the primes past n // 65 (at most 64 multiples each) take the rounds
    from apbounds.arith import phi_of

    n = 10**5
    ph = phi_table(n)
    assert ph.size == n + 1
    rng = np.random.default_rng(15)
    qs = list(range(n - 200, n + 1)) + rng.integers(1, n + 1, 2000).tolist()
    for q in qs:
        assert ph[q] == phi_of(q), q


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phi_table_tiny(n):
    from apbounds.arith import phi_of

    assert phi_table(n).tolist() == [0] + [phi_of(q) for q in range(1, n + 1)]
