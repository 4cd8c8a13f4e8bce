"""Segmented prime generation and small multiplicative tables.

The checkers stream primes in numpy blocks of `SEG` odd numbers.  Each
block's mask starts as a slice of a wheel pattern in which the multiples
of 3, 5, 7, 11 and 13 are already struck (period 15015 odd numbers), so
only the base primes from 17 up are struck per block, each with one
slice assignment from an offset that one numpy expression computes for
all of them.  The base primes up to sqrt(hi) come from this same sieve
one level down, `primes_between(2, isqrt(hi))`; the recursion bottoms
out at ranges with no odd number to strike.  `SEG` = 2^21 odd numbers (a 2 MB mask) measured faster
than 2^22 on a 2-vCPU box: 1.39 s against 1.65 s for `check t5` plus
`check t6`, and 1.54 s against 1.74 s to sieve six windows of width 6e7
between 1e9 and 1e11 (medians of three).
"""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

__all__ = [
    "MAX_HI",
    "phi_table",
    "prime_array_segments",
    "primes_between",
]

SEG = 1 << 21  # odd numbers per segment

# The largest top end: each int64 offset `first` below is at most
# hi + 2 isqrt(hi) - 1, under 2^63 for every hi <= MAX_HI.
MAX_HI = 2**63 - 1 - 2 * math.isqrt(2**63)

_WHEEL = (3, 5, 7, 11, 13)
_PERIOD = math.prod(_WHEEL)  # the wheel pattern repeats every 15015 odds


def _wheel_pattern() -> np.ndarray:
    """Mask over the odd numbers 2k + 1, k = 0.._PERIOD - 1: False where a
    wheel prime divides (the wheel primes themselves included)."""
    keep = np.ones(_PERIOD, dtype=bool)
    for p in _WHEEL:
        keep[(p - 1) // 2::p] = False  # 2k + 1 = p (mod 2p)
    return keep


_PATTERN = _wheel_pattern()


def prime_array_segments(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Yield increasing int64 arrays that together hold every prime in [lo, hi]."""
    lo = max(int(lo), 2)
    hi = int(hi)
    if hi > MAX_HI:
        raise ValueError(f"sieve top end {hi} lies past MAX_HI = {MAX_HI}")
    if hi < lo:
        return
    if lo <= 2 <= hi:
        yield np.array([2], dtype=np.int64)
    start = lo if lo % 2 else lo + 1  # first odd >= lo
    last = hi if hi % 2 else hi - 1  # last odd <= hi
    if start > last:
        return
    base = primes_between(2, math.isqrt(hi))
    sieving = base[base > _WHEEL[-1]]
    # the segment for the odds from `start` on is the pattern from phase
    # start // 2 on; tile one segment past the largest phase, no further
    tile = np.resize(_PATTERN, _PERIOD + min(SEG, (last - start) // 2 + 1))
    while start <= last:
        end = min(start + 2 * SEG - 2, last)  # last odd covered
        n_odd = (end - start) // 2 + 1
        phase = (start // 2) % _PERIOD
        mask = tile[phase:phase + n_odd].copy()
        for p in _WHEEL:
            if start <= p <= end:
                mask[(p - start) // 2] = True
        ps = sieving[:np.searchsorted(sieving, math.isqrt(end), "right")]
        # first odd multiple >= max(p^2, start), as an index into the mask
        first = np.maximum(ps * ps, (start + ps - 1) // ps * ps)
        first += (1 - first % 2) * ps
        for o, p in zip(((first - start) >> 1).tolist(), ps.tolist()):
            mask[o::p] = False
        yield start + 2 * np.flatnonzero(mask)
        start = end + 2


def primes_between(lo: int, hi: int) -> np.ndarray:
    parts = list(prime_array_segments(lo, hi))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def phi_table(n: int) -> np.ndarray:
    """Euler totients 0..n, computed by striking each prime once per multiple."""
    ph = np.arange(n + 1, dtype=np.int64)
    for p in primes_between(2, n):
        p = int(p)
        view = ph[p::p]
        view -= view // p
    return ph
