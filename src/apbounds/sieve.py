"""Segmented prime generation and small multiplicative tables.

The checkers stream primes in numpy blocks of `SEG` odd numbers.  Each
block's mask starts as a slice of a wheel pattern in which the multiples
of 3, 5, 7, 11 and 13 are already struck (period 15015 odd numbers), so
only the base primes from 17 up are struck per block, from offsets that
one numpy expression computes for all of them.  They take one of two
strike paths, split at `SEG >> 6`:

- a prime below it strikes its multiples with one slice assignment;
- a prime at or above it has at most 65 odd multiples in a block, so
  these sparse primes are struck together in rounds (`_rounds`): each
  round strikes one multiple of every prime still live and steps each
  offset by its prime, and an offset past the block lands in one spare
  slot past the mask.

At 1e11 a block thus makes about 1,900 slice assignments and at most 65
rounds, against about 27,000 slice assignments with one slice per prime.
The base primes up to sqrt(hi) come from this same sieve one level down,
`primes_between(2, isqrt(hi))`; the recursion bottoms out at ranges with
no odd number to strike.

`SEG` = 2^20 odd numbers (a 1 MB mask).  Sieving alone, in-process on a
2-vCPU box (medians of three), the rounds at 2^20 take 1.40 s for the
six `scan-far` windows of seed 1 and 0.59 s for the nine merged ranges
of `check t5` plus `check t6`; one slice per prime took 1.88 s / 0.69 s
at 2^21 and 2.13 s / 0.53 s at 2^20, and the rounds took 1.57 s / 0.69 s
at 2^21 and 1.43 s / 0.66 s at 2^19.  notes/decisions.md has the table.
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

SEG = 1 << 20  # odd numbers per segment

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
    # primes below SEG >> 6 strike with one slice each, the rest in rounds
    dense = int(np.searchsorted(sieving, SEG >> 6))
    # the segment for the odds from `start` on is the pattern from phase
    # start // 2 on; tile one segment and its spare slot past the largest
    # phase, no further
    tile = np.resize(_PATTERN,
                     _PERIOD + min(SEG, (last - start) // 2 + 1) + 1)
    while start <= last:
        end = min(start + 2 * SEG - 2, last)  # last odd covered
        n_odd = (end - start) // 2 + 1
        phase = (start // 2) % _PERIOD
        # one spare slot past the segment takes the rounds' clamped offsets
        mask = tile[phase:phase + n_odd + 1].copy()
        for p in _WHEEL:
            if start <= p <= end:
                mask[(p - start) // 2] = True
        ps = sieving[:np.searchsorted(sieving, math.isqrt(end), "right")]
        # first odd multiple >= max(p^2, start), as an index into the mask
        first = np.maximum(ps * ps, (start + ps - 1) // ps * ps)
        first += (1 - first % 2) * ps
        first = (first - start) >> 1
        for o, p in zip(first[:dense].tolist(), ps[:dense].tolist()):
            mask[o::p] = False
        for o in _rounds(first[dense:], ps[dense:], n_odd):
            mask[o] = False
        yield start + 2 * np.flatnonzero(mask[:n_odd])
        start = end + 2


def _rounds(first: np.ndarray, step: np.ndarray,
            size: int) -> Iterator[np.ndarray]:
    """Yield the offsets first + j step, j = 0, 1, .., round by round.

    `step` is increasing and `first` >= 0, so from round j >= 1 on only the
    steps up to (size - 1) // j can land below `size`: each round is a
    prefix of the previous one, found with `searchsorted`.  Offsets past
    the end are clamped to `size`, one spare slot past the caller's array.
    """
    o = np.minimum(first, size)
    j = 0
    while o.size:
        yield o
        j += 1
        live = int(np.searchsorted(step, (size - 1) // j, "right"))
        o = np.minimum(o[:live] + step[:live], size)


def primes_between(lo: int, hi: int) -> np.ndarray:
    parts = list(prime_array_segments(lo, hi))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def phi_table(n: int) -> np.ndarray:
    """Euler totients 0..n: each prime p takes 1/p off each of its multiples.

    The updates commute (the running value at m stays divisible by every
    prime of m not yet applied), so the primes with at most 64 multiples
    in [1, n] are applied together in rounds, with a spare slot at n + 1.
    """
    ph = np.arange(n + 2, dtype=np.int64)
    ps = primes_between(2, n)
    dense = int(np.searchsorted(ps, n // 65, "right"))  # n // p >= 65
    for p in ps[:dense].tolist():
        view = ph[p::p]
        view -= view // p
    sparse = ps[dense:]
    for m in _rounds(sparse, sparse, n + 1):
        ph[m] -= ph[m] // sparse[:m.size]
    return ph[:n + 1]
