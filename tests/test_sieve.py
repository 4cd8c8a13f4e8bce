"""Unit tests for the segmented sieve and the segmented totient sieve."""
from __future__ import annotations

import contextlib
import copy
import math

import numpy as np
import pytest

from apbounds import sieve
from apbounds.arith import phi_of
from apbounds.sieve import (phi_at, phi_segment, phi_table,
                            prime_array_segments, primes_between)


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
    """Flatten the segments of [lo, hi], asserting each is int64 and the
    stream is strictly increasing across segments."""
    out: list[int] = []
    for seg in prime_array_segments(lo, hi):
        assert seg.dtype == np.int64, (lo, hi, seg.dtype)
        assert np.all(np.diff(seg) > 0), (lo, hi)
        assert not (out and seg.size) or out[-1] < seg[0], (lo, hi)
        out += seg.tolist()
    return out


# The mask holds the integers coprime to 30, 8 entries per wheel position
# of 30 integers; the pattern that pre-strikes 7, 11 and 13 repeats every
# 1001 positions (30030 integers).
RESIDUES = (1, 7, 11, 13, 17, 19, 23, 29)
PERIOD = 7 * 11 * 13
PERIOD_INTS = 30 * PERIOD


def _expected_yields(lo: int, hi: int, seg: int) -> int:
    """Yields of prime_array_segments(lo, hi) with SEG = seg: one for any
    of 2, 3, 5 in range, then four quarters of 2 seg entries per block of
    8 seg, entries counted from the multiple of 30 at or below lo."""
    lo = max(lo, 2)
    small = any(lo <= p <= hi for p in (2, 3, 5))
    entries = sum(math.gcd(n, 30) == 1 for n in range(lo - lo % 30, hi + 1))
    return small + -(-entries // (2 * seg))


def test_segments_match_byte_sieve_around_wheel_primes():
    # every lo in 0..20 puts a range end on each side of each wheel prime
    for lo in range(21):
        for hi in list(range(lo, 60)) + [PERIOD_INTS + 57]:
            assert _segments_checked(lo, hi) == byte_primes(lo, hi), (lo, hi)


def test_segments_match_byte_sieve_past_two_periods():
    for lo, hi in ((0, 2 * PERIOD_INTS + 1), (17, 3 * PERIOD_INTS + 13),
                   (10**6 + 1, 10**6 + 5 * PERIOD_INTS)):
        assert _segments_checked(lo, hi) == byte_primes(lo, hi), (lo, hi)


def test_primes_between_matches_byte_sieve_for_every_hi():
    # the base primes of [0, hi] are primes_between(2, isqrt(hi)): every hi
    # up to 2000 steps through the empty base cases of that recursion and
    # past each pattern prime 7..83, and the hi around 89^2, 97^2 and
    # 101^2 step across the first p^2 boundaries past the patterns
    ref = byte_primes(0, 101**2 + 40)
    his = list(range(2001)) + [p * p + d for p in (89, 97, 101)
                               for d in range(-40, 41)]
    for hi in his:
        assert primes_between(0, hi).tolist() == [p for p in ref if p <= hi], hi


def test_segments_restore_the_pattern_primes():
    # the periodic patterns strike 7..83 themselves, and the first block
    # of a range from lo <= 83 (base 0, 30 or 60) restores those at or
    # past lo; every lo up to 100 and ends on either side of each of them
    ref = byte_primes(0, 400)
    for lo in range(101):
        for hi in sorted({lo, lo + 1, lo + 6, lo + 29, lo + 30, lo + 61,
                          90, 100, 400}):
            if hi >= lo:
                assert _segments_checked(lo, hi) == \
                    [p for p in ref if lo <= p <= hi], (lo, hi)


@pytest.mark.parametrize("anchor", [0, 10**6, 10**9])
def test_segments_match_oracle_at_every_residue(anchor):
    # lo at each residue mod 30 and hi at each residue of the same or the
    # next position, so every pair of end residues occurs in a range
    # shorter than 30, and again in one of 30 to 59 (fewer of those near
    # 10^9, where each call sieves 3,400 base primes); near 0 this takes
    # lo = 0, 1, 2 and each of the primes 2..13 that the wheel handles apart
    base = anchor - anchor % 30
    ref = byte_primes(base, base + 90) if anchor < 10**9 else \
        window_primes(base, base + 90).tolist()
    lengths = range(60) if anchor < 10**9 else [*range(30), 30, 31, 59]
    for a in range(30):
        for length in lengths:
            lo, hi = base + a, base + a + length
            got = _segments_checked(lo, hi)
            assert got == [p for p in ref if lo <= p <= hi], (lo, hi)
            assert 1 not in got
            for p in (2, 3, 5, 7, 11, 13):
                assert (p in got) == (lo <= p <= hi), (lo, hi, p)


@pytest.mark.parametrize("seg", [7, PERIOD, PERIOD + 1,
                                 15 * PERIOD, 15 * PERIOD + 1])
def test_segments_match_byte_sieve_at_every_phase(monkeypatch, seg):
    # block k of a range from lo starts at pattern phase
    # (lo // 30 + k SEG) mod 1001.  SEG = 7 moves it by 7 a block, so the
    # ranges from the 7 positions lo = 1, 31, .., 181 reach every phase
    # within 143 blocks; SEG = 1001 and 15015 keep the phase, 1002 and
    # 15016 step it by one
    monkeypatch.setattr(sieve, "SEG", seg)
    blocks = max(2, -(-PERIOD // seg) + 1)
    ranges = [(30 * k + 1, 30 * k + 30 * seg * blocks + 13)
              for k in range(7 if seg < PERIOD else 2)]
    ranges.append((10**6 + 3, 10**6 + 30 * seg * blocks + 3 * PERIOD_INTS))
    for lo, hi in ranges:
        assert _segments_checked(lo, hi) == byte_primes(lo, hi), (seg, lo)
        # a patch of SEG that did not take effect fails here
        assert len(list(prime_array_segments(lo, hi))) == \
            _expected_yields(lo, hi, seg), (seg, lo)


@pytest.mark.parametrize("lo", [10**9, 2**32 - 50_000, 99 * 10**9])
def test_segments_match_window_oracle_at_large_x(lo):
    hi = lo + 100_000
    assert np.array_equal(np.concatenate(list(prime_array_segments(lo, hi))),
                          window_primes(lo, hi)), lo


@pytest.mark.parametrize("chunk", [8, 24])
def test_chunked_progressions_match_window_oracle(monkeypatch, chunk):
    # progressions go to `_rounds` in chunks; with chunks of one or three
    # primes the dense progressions (primes 89..233 at SEG = 15015) span
    # many chunks, and both carry paths (steps below and at least the
    # block) occur.  Each block still strikes exactly the sparse ones in
    # rounds.
    monkeypatch.setattr(sieve, "SEG", 15 * PERIOD)
    monkeypatch.setattr(sieve, "_CHUNK", chunk)
    monkeypatch.setattr(sieve, "primes_between", lambda lo, hi: np.array(
        byte_primes(lo, hi), dtype=np.int64))
    calls = []
    rounds = sieve._rounds

    def recording(first, step, size):
        calls.append((size, step.tolist()))
        return rounds(first, step, size)

    monkeypatch.setattr(sieve, "_rounds", recording)
    lo = 10**10 + 7
    hi = lo + 30 * sieve.SEG + 4321
    assert _segments_checked(lo, hi) == window_primes(lo, hi).tolist()
    sieving = byte_primes(89, math.isqrt(hi))
    sizes = sorted({size for size, _ in calls}, reverse=True)
    assert sizes[0] == 8 * sieve.SEG and len(sizes) == 2
    for size in sizes:
        struck = [x for sz, steps in calls if sz == size for x in steps]
        assert struck == [8 * p for p in sieving if p >= size >> 9
                          for _ in range(8)], size


def test_int64_offsets_match_window_oracle(monkeypatch):
    # offsets are int32 only when every one of them, plus a block, stays
    # below 2^31; a block of 2^28 positions does not, so this short range
    # takes the int64 offsets
    monkeypatch.setattr(sieve, "SEG", 1 << 28)
    dtypes = []
    rounds = sieve._rounds

    def recording(first, step, size):
        dtypes.append(first.dtype)
        return rounds(first, step, size)

    monkeypatch.setattr(sieve, "_rounds", recording)
    lo = 10**9 + 7
    hi = lo + 100_000
    assert _segments_checked(lo, hi) == window_primes(lo, hi).tolist()
    assert dtypes and all(dt == np.int64 for dt in dtypes)


def test_short_last_segment_matches_window_oracle(monkeypatch):
    # two full blocks and a last one of 1000 entries: the last block is too
    # short for most sparse progressions (step 8 p >= 16384) to have a
    # multiple in it, so their offsets land in the spare slot
    base = 10**11 - 10**11 % 30
    lo = base + 1
    hi = base + 30 * (2 * sieve.SEG + 125) - 1
    firsts = []
    rounds = sieve._rounds

    def recording(first, step, size):
        firsts.append((np.minimum(first, size), size))
        return rounds(first, step, size)

    monkeypatch.setattr(sieve, "_rounds", recording)
    # every yielded array is held until the range ends, so a yield that
    # were a view of the sieve's reused mask would show here
    segs = list(prime_array_segments(lo, hi))
    assert len(segs) == 9  # four quarters of each full block, one short one
    assert np.array_equal(np.concatenate(segs), window_primes(lo, hi))
    last = [o for o, size in firsts if size == 1000]
    assert last and sum(o.size for o in last) > 100_000
    spare = sum(int(np.count_nonzero(o == 1000)) for o in last)
    assert spare >= 0.9 * sum(o.size for o in last)


@pytest.mark.parametrize("seg,lo,hi", [
    (7, 10**6 + 3, 10**6 + 4 * 15015),
    (15015, 10**6 + 3, 10**6 + 4 * 15015),
    (15015, 10**6 + 3, 10**6 + 2 * 30 * 15015 + 5000),
    (None, 10**9, 10**9 + 100_000),
    (None, 10**9, 10**9 + 2 * 30 * 2**17 + 5000),
])
def test_sparse_threshold_follows_seg(monkeypatch, seg, lo, hi):
    # a block of `size` entries strikes the progressions of the primes
    # from size >> 9 on (at most 64 strikes each) in rounds, the rest by
    # one slice each: SEG >> 6 in a full block, so at SEG = 7 every
    # sieving prime takes the rounds, at 15015 the primes 89..233 take
    # slices, at the default 2^17 the primes below 2048; a short block
    # moves the split down.  The primes up to 83 are struck by the
    # periodic patterns, so sieving starts at 89
    if seg is not None:
        monkeypatch.setattr(sieve, "SEG", seg)
    calls = []
    rounds = sieve._rounds

    def recording(first, step, size):
        calls.append((step, size))
        return rounds(first, step, size)

    monkeypatch.setattr(sieve, "_rounds", recording)
    # base primes from the byte sieve, so that every call is the range's own
    monkeypatch.setattr(sieve, "primes_between", lambda lo, hi: np.array(
        byte_primes(lo, hi), dtype=np.int64))
    assert _segments_checked(lo, hi) == window_primes(lo, hi).tolist()
    sieving = byte_primes(89, math.isqrt(hi))
    assert sieving[-1] >= sieve.SEG >> 6
    # 8 progressions per prime (one per class of the multiplier mod 30),
    # all in one chunk here, so one call per block
    assert 8 * len(sieving) <= sieve._CHUNK
    assert len(calls) == -(-_expected_yields(lo, hi, sieve.SEG) // 4)
    for step, size in calls:
        want = [8 * p for p in sieving if p >= size >> 9 for _ in range(8)]
        assert step.tolist() == want, size
    full = [size for _, size in calls if size == 8 * sieve.SEG]
    assert bool(full) == (hi - lo > 30 * sieve.SEG)


def _first_offsets_reference(p: int, base: int) -> list[int]:
    """Python-int oracle for sieve._first_offsets: for each residue r_j,
    the flat index from `base` of p m for the least m >= max(p, ceil(base
    / p)) with m = r_j (mod 30)."""
    m_lo = max(p, -(-base // p))
    out = []
    for r in RESIDUES:
        m = m_lo + (r - m_lo) % 30
        rel = p * m - base
        out.append(8 * (rel // 30) + RESIDUES.index(rel % 30))
    return out


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases, deterministic below
    3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_first_offsets_match_python_ints():
    rng = np.random.default_rng(17)
    ps = byte_primes(17, 5000)
    for base in [0, 30, 270, 28890] + (30 * rng.integers(0, 10**8, 20)).tolist():
        got = sieve._first_offsets(np.array(ps, dtype=np.int64), base)
        want = [o for p in ps for o in _first_offsets_reference(p, base)]
        assert got.tolist() == want, base


def test_first_offsets_fit_int64_at_max_hi():
    # the largest primes a range ending at MAX_HI sieves with, at the two
    # largest block bases below it: the multiples p m run past 2^63 - 1,
    # so an offset formed from p m in int64 would wrap
    root = math.isqrt(sieve.MAX_HI)
    ps = [n for n in range(root, root - 400, -1) if _is_prime(n)][:5][::-1]
    assert len(ps) == 5 and ps[-1] ** 2 <= sieve.MAX_HI
    for base in (sieve.MAX_HI - sieve.MAX_HI % 30,
                 sieve.MAX_HI - sieve.MAX_HI % 30 - 30):
        got = sieve._first_offsets(np.array(ps, dtype=np.int64), base)
        want = [o for p in ps for o in _first_offsets_reference(p, base)]
        assert got.tolist() == want, base
        assert max(base + 30 * (o // 8) + RESIDUES[o % 8] for o in want) > 2**63


def test_segments_refuse_a_top_past_max_hi(monkeypatch):
    # refused before any base prime is sieved
    def no_base_primes(lo, hi):
        raise AssertionError("sieved base primes for a refused range")
    monkeypatch.setattr(sieve, "primes_between", no_base_primes)
    with pytest.raises(ValueError, match="MAX_HI"):
        next(prime_array_segments(sieve.MAX_HI - 10, sieve.MAX_HI + 1))
    # the largest int64 the sieve forms is max(hi, 900, 8 isqrt(hi) + 8 SEG)
    # (offsets are formed relative to a block's base, see
    # sieve._first_offsets); it fits at MAX_HI
    r = math.isqrt(sieve.MAX_HI)
    assert max(sieve.MAX_HI, 900, 8 * r + 8 * sieve.SEG) <= 2**63 - 1


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


def _phi_segment_checked(lo: int, hi: int) -> None:
    got = phi_segment(lo, hi)
    assert got.dtype == np.int64
    assert got.tolist() == [0 if n == 0 else phi_of(n)
                            for n in range(lo, hi + 1)], (lo, hi)


def test_phi_segment_seeded_windows():
    rng = np.random.default_rng(18)
    top = 2 * 10**7
    for width in [1, 2, 30, 1024] + rng.integers(1, 3000, 4).tolist():
        lo = int(rng.integers(0, top - width + 2))
        _phi_segment_checked(lo, lo + width - 1)


@pytest.mark.parametrize("span", [7, 64, 1000])
def test_phi_segment_passes_meet(monkeypatch, span):
    # a window longer than _PHI_SPAN goes in passes; each pass places the
    # progressions afresh
    monkeypatch.setattr(sieve, "_PHI_SPAN", span)
    for lo, hi in [(0, 3000), (2**20 - 1500, 2**20 + 1500)]:
        _phi_segment_checked(lo, hi)


@pytest.mark.parametrize("lo", [0, 1, 2])
@pytest.mark.parametrize("hi", [0, 1, 2, 3, 4, 5, 30, 1000])
def test_phi_segment_low_ends(lo, hi):
    _phi_segment_checked(lo, hi)  # hi < lo is the empty window


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 97, 2**16, 3**10, 65521**2,
                               2 * 10**7, 2**32 - 1])
def test_phi_segment_single_points(n):
    _phi_segment_checked(n, n)


@pytest.mark.parametrize("lo, hi", [
    (2**20 - 40, 2**20 + 40),            # a power of 2 inside
    (3**12 - 40, 3**12 + 40),            # a power of 3 inside
    (2**10 * 3**6 - 30, 2**10 * 3**6),   # both, at the top end
    (1009**2 - 50, 1009**2 + 50),        # p^2 at the window's middle
    (4099**2, 4099**2 + 10),             # p^2 at the bottom, p = isqrt(hi)
    (4093**2 - 10, 4093**2),             # p^2 at the top, p = isqrt(hi)
    (2**24 - 300, 2**24 + 300),          # 2^24
    (65521**2 - 20, 65521**2 + 20),      # the largest prime square in range
])
def test_phi_segment_prime_powers(lo, hi):
    _phi_segment_checked(lo, hi)


@pytest.mark.parametrize("lo, hi", [
    (392975 - 1023, 392975),   # the plain q0's last chunk of moduli
    (2 * 10**7 - 1023, 2 * 10**7 + 500),
    (2**32 - 60, 2**32 - 1),   # up to PHI_HI
])
def test_phi_segment_top_windows(lo, hi):
    _phi_segment_checked(lo, hi)


@pytest.mark.parametrize("lo, hi", [(-1, 5), (0, sieve.PHI_HI + 1)])
def test_phi_segment_refuses_out_of_range(lo, hi):
    with pytest.raises(ValueError):
        phi_segment(lo, hi)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10**5])
def test_phi_table_is_phi_segment_from_zero(n):
    assert np.array_equal(phi_table(n), phi_segment(0, n))


def test_phi_at_any_order_and_repeats():
    rng = np.random.default_rng(25)
    n = np.concatenate([rng.integers(0, 3 * 10**6, 400), [0, 1, 2, 4, 4]])
    n = np.concatenate([n, n[:40]])
    rng.shuffle(n)
    got = phi_at(n)
    assert got.dtype == np.int64 and got.shape == n.shape
    assert got.tolist() == [0 if v == 0 else phi_of(v) for v in n.tolist()]
    grid = n[:60].reshape(6, 10)
    assert np.array_equal(phi_at(grid), got[:60].reshape(6, 10))
    assert phi_at([]).tolist() == []


@pytest.mark.parametrize("span", [7, 64, 1000])
def test_phi_at_sieves_only_the_passes_it_needs(monkeypatch, span):
    # the window from min(n) up is cut into passes of _PHI_SPAN integers;
    # each pass that holds some of n is sieved once, up to the last of them
    monkeypatch.setattr(sieve, "_PHI_SPAN", span)
    calls = []

    def counted(lo, hi):
        calls.append((lo, hi))
        return phi_segment(lo, hi)

    monkeypatch.setattr(sieve, "phi_segment", counted)
    n = np.unique(np.geomspace(1000, 2 * 10**6, 300).astype(np.int64))
    assert phi_at(n[::-1]).tolist() == [phi_of(v) for v in n[::-1].tolist()]
    passes = sorted(set(((n - n[0]) // span).tolist()))
    assert [(lo - n[0]) // span for lo, _ in calls] == passes
    for lo, hi in calls:
        held = n[(lo <= n) & (n <= hi)]
        assert lo == n[0] + (lo - n[0]) // span * span
        assert hi == held[-1] and hi - lo < span


@pytest.mark.parametrize("bad", [[-1, 5], [3, sieve.PHI_HI + 1]])
def test_phi_at_refuses_out_of_range(bad):
    with pytest.raises(ValueError):
        phi_at(bad)


def _strided(lo: int, hi: int, ranks: int) -> dict[int, list[int]]:
    """Each block's primes as the `ranks` ranks of a scan ring strike them:
    rank r walks its own copy of one `Blocks`, made ready once, over the
    blocks t = r (mod ranks)."""
    plan = sieve.Blocks(lo, hi)
    plan.ready()
    got: dict[int, list[int]] = {}
    for r in range(ranks):
        now = []

        @contextlib.contextmanager
        def turn(t):
            now.append(t)
            yield

        for seg in copy.deepcopy(plan).walk(r, ranks, turn):
            got.setdefault(now[-1], []).extend(seg.tolist())
        assert now == list(range(r, plan.turns, ranks))
    return got


@pytest.mark.parametrize("lo,blocks,seg", [
    (10**9 + 7, 5, None), (10**11 + 13, 4, None),
    (2, 7, 1001), (29, 5, 1001), (61, 8, 1001), (83, 3, 15015)])
@pytest.mark.parametrize("ranks", [2, 3])
def test_strided_blocks_give_the_serial_primes(monkeypatch, lo, blocks, seg,
                                               ranks):
    # ranks strike their blocks from offsets made once and carried on by
    # `ranks` blocks a turn: together they give the serial stream, block by
    # block, at large x, from lo < 30 and lo <= 83 (the pattern primes),
    # and for block counts that are not a multiple of the ranks
    if seg is not None:
        monkeypatch.setattr(sieve, "SEG", seg)
    base = lo - lo % 30
    hi = base + 30 * sieve.SEG * (blocks - 1) + 30 * sieve.SEG // 3
    assert sieve.Blocks(lo, hi).turns == blocks
    got = _strided(lo, hi, ranks)
    assert sorted(got) == list(range(blocks))
    flat = [p for t in range(blocks) for p in got[t]]
    assert flat == _segments_checked(lo, hi)
    if lo < 10**9:
        assert flat == byte_primes(lo, hi)
    else:
        assert [p for p in flat if p <= lo + 50_000] == \
            window_primes(lo, lo + 50_000).tolist()
    # each block's primes lie in its own span of 30 SEG integers
    for t, ps in got.items():
        assert all(base + 30 * sieve.SEG * t <= p
                   < base + 30 * sieve.SEG * (t + 1) for p in (ps[0], ps[-1]))
