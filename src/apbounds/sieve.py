"""Segmented prime generation and small multiplicative tables.

The checkers stream primes in numpy blocks; everything here is
odd-only segmented sieving sized so a block's strike masks stay in cache.
"""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

__all__ = [
    "phi_table",
    "prime_array_segments",
    "primes_between",
]

SEG = 1 << 22  # odd numbers per segment


def _simple_primes(n: int) -> np.ndarray:
    """Primes <= n by a plain byte sieve (base primes for the segments)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return np.flatnonzero(mask).astype(np.int64)


def prime_array_segments(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Yield increasing int64 arrays that together hold every prime in [lo, hi]."""
    lo = max(int(lo), 2)
    hi = int(hi)
    if hi < lo:
        return
    base = _simple_primes(math.isqrt(hi))
    if lo <= 2 <= hi:
        yield np.array([2], dtype=np.int64)
    start = lo if lo % 2 else lo + 1  # first odd >= lo
    if start > hi:
        return
    odd_base = base[base > 2]
    while start <= hi:
        end = min(start + 2 * SEG - 2, hi if hi % 2 else hi - 1)  # last odd covered
        n_odd = (end - start) // 2 + 1
        mask = np.ones(n_odd, dtype=bool)
        for p in odd_base:
            p = int(p)
            if p * p > end:
                break
            m = max(p * p, ((start + p - 1) // p) * p)  # first multiple >= start
            if m % 2 == 0:
                m += p  # align to the odd lattice
            if m > end:
                continue
            mask[(m - start) // 2::p] = False
        yield start + 2 * np.flatnonzero(mask).astype(np.int64)
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
