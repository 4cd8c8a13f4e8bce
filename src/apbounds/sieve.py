"""Segmented prime generation and a segmented totient sieve.

The checkers stream primes from a sieve on a mod-30 wheel.  Its mask holds
only the integers coprime to 30, position-major: flat index 8 k + i stands
for base + 30 k + r_i, r = (1, 7, 11, 13, 17, 19, 23, 29), with `base` a
multiple of 30.  A block's primes thus come out of one `flatnonzero`
already increasing, as base + 30 (idx >> 3) + r[idx & 7].  2, 3 and 5 are
emitted directly, and each block's mask starts as a slice of a pattern in
which the multiples of 7, 11 and 13 are already struck (period 1001
positions), so only the base primes from 17 up are struck per block.

A base prime p strikes its multiples p m, m coprime to 30, as 8
progressions, one per class of m mod 30, each with flat step 8 p.
`_first_offsets` places them at the start of the range and `_carry`
moves them on from block to block.  In a block of `size` entries they
take one of two strike paths, split at p = size >> 9 (`SEG >> 6` in a
full block):

- a progression of a prime below it has at least 64 strikes in the
  block and takes one slice assignment;
- the rest are struck together in rounds (`_rounds`), `_CHUNK`
  progressions at a time: each round strikes one multiple of every
  progression still live and steps its offset on, and an offset past the
  block lands in one spare slot past the mask.

The base primes up to sqrt(hi) come from this same sieve one level down,
`primes_between(2, isqrt(hi))`; the recursion bottoms out at ranges below
7, which hold no wheel entry but 1.

`SEG` = 2^17 positions (a 1 MB mask over 3.9M integers).  One mask
buffer serves a whole range: each block refills it in place with the
pattern rolled to the block's phase, whole periods in one broadcast copy
and then the tail.  Each block is yielded in quarters, so each consumer's
per-cut arrays are a quarter of a block's primes, and the generator drops
each quarter before it makes the next: with a consumer that does the same
(`checkers._scan_shared`), one quarter's primes are alive at a time.  The
offsets are int32 where they fit.  notes/decisions.md, "Segment size of
the sieve", has the measurements behind this layout.

`phi_segment(lo, hi)` gives the totients of a window, up to `PHI_HI` =
2^32 - 1, from the prime powers p^k <= hi with p <= isqrt(hi): a table of
them is built once, on first use, from the primes below 2^16, and each
window takes a prefix of it.  `phi_table(n)` is its lo = 0 case.
`phi_at(n)` gives the totients at any array of integers: it sieves only
the `_PHI_SPAN`-wide passes that hold some of them and keeps only theirs,
so no array spans the window between the smallest and the largest.
"""
from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

__all__ = [
    "MAX_HI",
    "PHI_HI",
    "phi_at",
    "phi_segment",
    "phi_table",
    "prime_array_segments",
    "primes_between",
]

SEG = 1 << 17  # wheel positions per block: 8 mask entries each (1 MB)
_CHUNK = 1 << 15  # sparse progressions struck per call of `_rounds`

# The largest top end, the value the CLI documents and the checkers' range
# checks use.  Offsets are formed relative to a block's base (see
# `_first_offsets`), so every int64 the sieve forms is at most
# max(hi, 900, 8 isqrt(hi) + 8 SEG), well inside int64 at MAX_HI.
MAX_HI = 2**63 - 1 - 2 * math.isqrt(2**63)

_R = (1, 7, 11, 13, 17, 19, 23, 29)  # the residues coprime to 30
_R8 = np.array(_R, dtype=np.int8)
# _BELOW[t]: how many residues lie below t, for t = 0..29
_BELOW = tuple(sum(r < t for r in _R) for t in range(30))
# _UP[c, j]: the step from a multiplier m = c (mod 30) up to the class _R[j]
_UP = np.array([[(r - c) % 30 for r in _R] for c in range(30)],
               dtype=np.int16)
# _FLAT[v]: the flat index of v past a multiple of 30 (for v coprime to
# 30), for every v = t + p d with t, p and d below 30
_FLAT = np.array([8 * (v // 30) + _BELOW[v % 30] for v in range(900)],
                 dtype=np.int16)
_CYCLE = 7 * 11 * 13  # positions after which the pre-struck pattern repeats


def _presieved() -> np.ndarray:
    """Mask over the flat indices 8 k + i, k = 0.._CYCLE - 1, standing for
    30 k + _R[i]: False where 7, 11 or 13 divides (themselves included)."""
    keep = np.ones(8 * _CYCLE, dtype=bool)
    for q in (7, 11, 13):
        for i, r in enumerate(_R):
            k = -r * pow(30, -1, q) % q  # 30 k + r = 0 (mod q)
            keep[8 * k + i::8 * q] = False
    return keep


_PRESIEVED = _presieved()


def _first_offsets(ps: np.ndarray, base: int) -> np.ndarray:
    """Flat offsets from `base` (a multiple of 30) of the first multiples
    p m >= max(p^2, base) with m = _R[j] (mod 30), entry 8 n + j for ps[n].

    With t = m0 p - base for m0 = max(p, ceil(base / p)) and d the step
    from m0 up to the class, p m - base = 30 (t // 30 + (p // 30) d) + v,
    v = t % 30 + (p % 30) d < 900.  Each offset is thus formed relative to
    `base` and never from p m: t is at most hi when p^2 <= hi, so no int64
    here exceeds max(hi, 900).
    """
    t = np.maximum(ps * ps - base, -base % ps)
    m0 = base // ps + (base % ps + t) // ps
    d = _UP[m0 % 30]  # small ints in int16, so the (n, 8) arrays stay small
    v = (ps % 30).astype(np.int16)[:, None] * d
    v += (t % 30).astype(np.int16)[:, None]
    flat = (ps // 30)[:, None] * d
    flat += (t // 30)[:, None]
    flat *= 8
    flat += _FLAT[v]
    return flat.ravel()


def _carry(off: np.ndarray, step: np.ndarray, size: int) -> None:
    """Move the offsets of progressions struck through a block of `size`
    entries on to the next block, in place."""
    off -= size
    if step[0] >= size:  # at most one strike a block, so one step on
        off += step * (off < 0)
    else:
        np.remainder(off, step, out=off, where=off < 0)


def prime_array_segments(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Yield increasing int64 arrays that together hold every prime in [lo, hi]."""
    lo = max(int(lo), 2)
    hi = int(hi)
    if hi > MAX_HI:
        raise ValueError(f"sieve top end {hi} lies past MAX_HI = {MAX_HI}")
    if hi < lo:
        return
    small = [p for p in (2, 3, 5) if lo <= p <= hi]
    if small:
        yield np.array(small, dtype=np.int64)
    # flat index 8 k + i stands for base + 30 k + _R[i]; [start, stop)
    # holds the entries in [lo, hi]
    base = lo - lo % 30
    start = _BELOW[lo - base]
    stop = 8 * ((hi + 1 - base) // 30) + _BELOW[(hi + 1 - base) % 30]
    if start >= stop:
        return
    ps = primes_between(2, math.isqrt(hi))
    ps = ps[ps > 13]
    # 8 progressions per prime, one per class of m mod 30, each with flat
    # step 8 p; offsets are carried from block to block
    p = int(ps[-1]) if ps.size else 0
    # int32 offsets where they fit (they start below 8 (p^2 - base) / 30
    # + 8 p + 8 and then stay below 8 p + the block)
    fits = 8 * (max(p * p - base, 0) // 30 + p + 1) + 8 * SEG < 2**31
    dtype = np.int32 if fits else np.int64
    off = np.empty(8 * ps.size, dtype=dtype)
    step8 = (8 * ps).astype(dtype)
    for c in range(0, ps.size, _CHUNK // 8):
        off[8 * c:8 * c + _CHUNK] = _first_offsets(ps[c:c + _CHUNK // 8], base)
    block = 8 * SEG
    quarter = block // 4
    # one mask for the range, refilled each block; one spare slot past the
    # block takes the rounds' clamped offsets
    buf = np.empty(min(block, stop) + 1, dtype=bool)
    pos = 0  # flat index of the block's first entry
    while pos < stop:
        size = min(block, stop - pos)
        mask = buf[:size + 1]
        # the pattern rolled to the block's phase, whole periods at once
        pattern = np.roll(_PRESIEVED, -8 * ((base // 30 + pos // 8) % _CYCLE))
        whole = size - size % pattern.size
        mask[:whole].reshape(-1, pattern.size)[:] = pattern
        mask[whole:size] = pattern[:size - whole]
        if base + pos == 0:
            mask[1:4] = True  # 7, 11 and 13 are prime
        if pos == 0:
            mask[:start] = False  # 1 among them, as lo >= 2
        # progressions with at least 64 strikes in the block (SEG >> 6 in a
        # full one) take one slice each, the rest go through the rounds
        dense = 8 * int(np.searchsorted(ps, size >> 9))
        for c in range(0, off.size, _CHUNK):
            o = off[c:c + _CHUNK]
            s = np.repeat(step8[c // 8:(c + _CHUNK) // 8], 8)
            n = min(max(dense - c, 0), o.size)
            for k, step in zip(o[:n].tolist(), s[:n].tolist()):
                mask[k::step] = False
            for hit in _rounds(o[n:], s[n:], size):
                mask[hit] = False
            _carry(o, s, size)
        # the block goes out in quarters, to keep each consumer's arrays
        # small; each is dropped here before the next is made
        for h in range(0, size, quarter):
            out = np.flatnonzero(mask[h:min(h + quarter, size)])
            out += pos + h
            slot = np.empty(out.size, dtype=np.uint8)
            np.bitwise_and(out, 7, out=slot, casting="unsafe")
            out >>= 3
            out *= 30
            out += base
            out += _R8[slot]
            del slot
            yield out
            del out
        pos += block


def _rounds(first: np.ndarray, step: np.ndarray,
            size: int) -> Iterator[np.ndarray]:
    """Yield the offsets first + j step, j = 0, 1, .., round by round.

    `step` is increasing and `first` >= 0, so from round j >= 1 on only the
    steps up to (size - 1) // j can land below `size`: each round is a
    prefix of the previous one, found with `searchsorted`.  Offsets past
    the end are clamped to `size`, one spare slot past the caller's array.
    The offsets are index arrays (intp) whatever the inputs' dtype.
    """
    o = np.minimum(first, size, dtype=np.intp)
    step = step.astype(np.intp, copy=False)
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


# The largest top end of phi_segment: its base primes lie below 2^16.
PHI_HI = (1 << 32) - 1


@functools.cache
def _prime_powers() -> tuple[np.ndarray, ...]:
    """phi_segment's progressions, built on first use: every prime power
    p^k <= PHI_HI with p below 2^16, as (key, step, prime, factor) columns.

    A prime p is needed once p^2 <= hi and a higher power once it is <= hi,
    so, sorted by that key, the progressions a top end needs are a prefix.
    The factor is what p^k adds to the totient of a multiple: p - 1 for
    k = 1, p above, so that the factors over p^k | n, k = 1..v, multiply
    to phi(p^v).
    """
    ps = primes_between(2, 1 << 16)
    keys, steps, bases, factors = [ps * ps], [ps], [ps], [ps - 1]
    pk = ps
    while True:
        pk = pk * ps[:pk.size]
        pk = pk[pk <= PHI_HI]  # a prefix, as ps increases
        if not pk.size:
            break
        base = ps[:pk.size]
        keys.append(pk)
        steps.append(pk)
        bases.append(base)
        factors.append(base)
    order = np.argsort(np.concatenate(keys), kind="stable")
    table = tuple(np.concatenate(a)[order]
                  for a in (keys, steps, bases, factors))
    for a in table:
        a.flags.writeable = False  # shared by every call
    return table


# integers per pass of phi_segment and phi_at: a pass's arrays peak near
# 0.3 MB below 10^5 and 0.8 MB at PHI_HI (notes/decisions.md, "Bounded
# passes")
_PHI_SPAN = 1 << 12


def phi_segment(lo: int, hi: int) -> np.ndarray:
    """Euler totients of lo..hi (phi(0) = 0), 0 <= lo and hi <= PHI_HI.

    The time is linear in hi - lo, plus the number of prime powers up to
    hi with prime at most isqrt(hi).  Each such p^k strikes its multiples
    in the window, all at once: s(n) collects p for each strike and f(n)
    the totient factor (p - 1 for k = 1, p above), so s(n) is the part of
    n made of primes up to isqrt(hi) and f(n) = phi(s(n)).  What is left,
    n / s(n), is 1 or the one prime factor of n past isqrt(hi), P, and
    phi(n) = f(n) (P - 1).  Repeated strikes of one n (one per prime
    power dividing it) go through `np.multiply.at`, and the products stay
    below n.
    """
    lo, hi = int(lo), int(hi)
    if lo < 0 or hi > PHI_HI:
        raise ValueError(f"phi_segment takes 0 <= lo and hi <= {PHI_HI}, "
                         f"got [{lo}, {hi}]")
    parts = [np.zeros(int(lo == 0 <= hi), dtype=np.int64)]
    keys, steps, bases, factors = _prime_powers()
    live = int(np.searchsorted(keys, hi, "right"))
    steps, bases, factors = steps[:live], bases[:live], factors[:live]
    for a in range(max(lo, 1), hi + 1, _PHI_SPAN):
        n = np.arange(a, min(a + _PHI_SPAN - 1, hi) + 1, dtype=np.int64)
        # each progression's first offset and strike count in n; first <
        # step, so the count is never negative
        first = -a % steps
        count = (n.size - 1 - first) // steps + 1
        ends = np.cumsum(count)
        # strike i, the j-th of its progression, sits at first + j step
        # with j = i - (ends - count)
        pos = np.arange(ends[-1] if live else 0)
        pos *= np.repeat(steps, count)
        pos += np.repeat(first - (ends - count) * steps, count)
        s = np.ones(n.size, dtype=np.int64)
        f = np.ones(n.size, dtype=np.int64)
        np.multiply.at(s, pos, np.repeat(bases, count))
        np.multiply.at(f, pos, np.repeat(factors, count))
        n //= s  # 1 or the prime past isqrt(hi)
        n -= 1
        np.maximum(n, 1, out=n)
        f *= n
        parts.append(f)
    return np.concatenate(parts)


#: Euler totients 0..n, phi(0) = 0: phi_segment's lo = 0 case.
phi_table = functools.partial(phi_segment, 0)


def phi_at(n) -> np.ndarray:
    """Euler totients at the integers of the array `n` (any shape or
    order, repeats allowed), each in [0, PHI_HI].

    The window from min(n) up is cut into passes of _PHI_SPAN integers;
    `phi_segment` sieves each pass that holds some of n, up to the last of
    them, and the pass hands over only their totients.
    """
    n = np.asarray(n, dtype=np.int64)
    u, where = np.unique(n, return_inverse=True)
    out = np.empty(u.size, dtype=np.int64)
    if u.size:
        k = (u - u[0]) // _PHI_SPAN  # each integer's pass
        cuts = (np.flatnonzero(np.diff(k)) + 1).tolist()
        for i, j in zip([0] + cuts, cuts + [u.size]):
            a = int(u[0] + k[i] * _PHI_SPAN)
            out[i:j] = phi_segment(a, int(u[j - 1]))[u[i:j] - a]
    return out[where].reshape(n.shape)
