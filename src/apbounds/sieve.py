"""Segmented prime generation and a segmented totient sieve.

The checkers stream primes from a sieve on a mod-30 wheel.  Its mask holds
only the integers coprime to 30, position-major: flat index 8 k + i stands
for base + 30 k + r_i, r = (1, 7, 11, 13, 17, 19, 23, 29), with `base` a
multiple of 30.  A block's primes thus come out of one `flatnonzero`
already increasing, as base + 30 (idx >> 3) + r[idx & 7].  2, 3 and 5 are
emitted directly.  Each block's mask starts as a copy of a pattern in
which the multiples of 7, 11 and 13 are already struck (period 1001
positions), and eight more patterns, of the primes 17 to 83 in groups
(17, 19, 23), (29, 31), .., (79, 83), are and-ed onto it, one pass each;
the first block of a range from lo <= 83 sets the pattern primes back.
So only the base primes from 89 up are struck per block.

A base prime p strikes its multiples p m, m coprime to 30, as 8
progressions, one per class of m mod 30, each with flat step 8 p.
`_first_offsets` places them at the start of the range and `_carry`
moves them on to the next block struck, however far.  In a block of
`size` entries they take one of two strike paths, split at p = size >> 9
(`SEG >> 6` in a full block):

- a progression of a prime below it has at least 64 strikes in the
  block and takes one slice assignment;
- the rest are struck together in rounds (`_rounds`), `_CHUNK`
  progressions at a time: each round strikes one multiple of every
  progression still live and steps its offset on, in place, and an offset
  past the block lands in one spare slot past the mask.

The base primes up to sqrt(hi) come from this same sieve one level down,
`primes_between(2, isqrt(hi))`; the recursion bottoms out at ranges below
7, which hold no wheel entry but 1.

`SEG` = 2^17 positions (a 1 MB mask over 3.9M integers).  A range is a
`Blocks`: its base primes and first offsets are made once, and `walk`
strikes any stride of its blocks, so the ranks of a scan each strike
their own blocks of one range (`checkers`).  One mask buffer serves a
walk: each block refills it in place with the patterns rolled to the
block's phase, whole periods at a time and then the tail.  Each block is
yielded in quarters, so each consumer's per-cut arrays are a quarter of a
block's primes, and the generator drops each quarter before it makes the
next: with a consumer that does the same (`checkers._scan_shared`), one
quarter's primes are alive at a time.  The offsets are int32 where they
fit.  notes/decisions.md, "Segment size of the sieve" and "Scans on every
core", has the measurements behind this layout.

`phi_segment(lo, hi)` gives the totients of a window, up to `PHI_HI` =
2^32 - 1, from the prime powers p^k <= hi with p <= isqrt(hi): a table of
them is built once, on first use, from the primes below 2^16, and each
window takes a prefix of it.  `phi_table(n)` is its lo = 0 case.
`phi_at(n)` gives the totients at any array of integers: it sieves only
the `_PHI_SPAN`-wide passes that hold some of them and keeps only theirs,
so no array spans the window between the smallest and the largest.
"""
from __future__ import annotations

import contextlib
import functools
import math
from typing import Iterator

import numpy as np

__all__ = [
    "Blocks",
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
# The primes whose multiples are struck by periodic patterns, not by
# progressions: 7, 11 and 13 fill each block (period 1001 positions), and
# eight patterns of 17..83 are and-ed onto it, one pass each.
_GROUPS = ((7, 11, 13), (17, 19, 23), (29, 31), (37, 41), (43, 47),
           (53, 59), (61, 67), (71, 73), (79, 83))
_PATTERN_PRIMES = np.array([p for g in _GROUPS for p in g])
_LAST_PATTERN_PRIME = 83  # sieving by progressions starts past it, at 89


def _pattern(primes: tuple[int, ...]) -> np.ndarray:
    """Mask over the flat indices 8 k + i, k = 0..prod(primes) - 1, standing
    for 30 k + _R[i]: False where one of `primes` divides (itself included)."""
    keep = np.ones(8 * math.prod(primes), dtype=bool)
    for q in primes:
        for i, r in enumerate(_R):
            k = -r * pow(30, -1, q) % q  # 30 k + r = 0 (mod q)
            keep[8 * k + i::8 * q] = False
    return keep


_PATTERNS = tuple(_pattern(g) for g in _GROUPS)


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


def _carry(off: np.ndarray, step: np.ndarray, skip: int) -> None:
    """Move the offsets of progressions from one block's start on to the
    start of a block `skip` entries later, in place.  `step` increases, so
    the steps of at least `skip` (at most one strike in the skip) are a
    suffix, and those offsets need one step at most."""
    off -= skip
    k = int(np.searchsorted(step, skip))
    near, far = off[:k], off[k:]
    np.remainder(near, step[:k], out=near, where=near < 0)
    far += step[k:] * (far < 0)


class Blocks:
    """The sieve of [lo, hi] as blocks of 8 SEG wheel entries.

    Making one fixes the range's layout and number of `turns` (its blocks,
    or one turn for a range with no wheel entry).  `ready()` sieves its
    base primes and places their first offsets, once; `walk` then strikes
    any stride of the blocks from them, carrying the offsets on by a skip.
    A walk moves the offsets in place and drops them at its end: the
    ranks of a scan ring (`checkers`) each walk their own copy, forked
    after `ready()`.
    """

    def __init__(self, lo: int, hi: int) -> None:
        lo, hi = max(int(lo), 2), int(hi)
        if hi > MAX_HI:
            raise ValueError(f"sieve top end {hi} lies past MAX_HI = {MAX_HI}")
        self.hi = hi
        self.small = [p for p in (2, 3, 5) if lo <= p <= hi]
        # flat index 8 k + i stands for base + 30 k + _R[i]; [start, stop)
        # holds the entries in [lo, hi]
        self.base = lo - lo % 30
        self.start = self._entries_below(lo)
        self.stop = max(self._entries_below(hi + 1), self.start)
        self.blocks = -(-self.stop // (8 * SEG)) if self.start < self.stop \
            else 0
        self.turns = max(self.blocks, 1)
        self._progressions = None

    def _entries_below(self, x: int) -> int:
        """The flat index of the first wheel entry at or past x >= base."""
        return 8 * ((x - self.base) // 30) + _BELOW[(x - self.base) % 30]

    def turns_of(self, lo: int, hi: int) -> tuple[int, int]:
        """The first and last turn whose blocks hold entries of [lo, hi],
        a part of the range (the first turn for a part with none)."""
        block = 8 * SEG
        first = min(self._entries_below(lo) // block, self.turns - 1)
        last = min((self._entries_below(hi + 1) - 1) // block, self.turns - 1)
        return first, max(first, last)

    def ready(self) -> None:
        """Sieve the base primes 89..isqrt(hi) and place the first offsets
        of their 8 progressions each (one per class of m mod 30, flat step
        8 p), in int32 where they fit: they start below 8 (p^2 - base) / 30
        + 8 p + 8 and then stay below 8 p + the block (`walk` widens them
        for a skip past 2^31)."""
        if self._progressions is not None or not self.blocks:
            return
        ps = primes_between(2, math.isqrt(self.hi))
        ps = ps[ps > _LAST_PATTERN_PRIME]
        p = int(ps[-1]) if ps.size else 0
        fits = 8 * (max(p * p - self.base, 0) // 30 + p + 1) \
            + 8 * SEG < 2**31
        dtype = np.int32 if fits else np.int64
        off = np.empty(8 * ps.size, dtype=dtype)
        for c in range(0, ps.size, _CHUNK // 8):
            off[8 * c:8 * c + _CHUNK] = _first_offsets(ps[c:c + _CHUNK // 8],
                                                       self.base)
        self._progressions = ps, off, (8 * ps).astype(dtype)

    def walk(self, first: int = 0, every: int = 1,
             turn=None) -> Iterator[np.ndarray]:
        """Yield the primes of blocks first, first + every, .. in quarters,
        increasing, and 2, 3 and 5 where in range with block 0.

        With `turn`, each block's primes are yielded inside `with
        turn(t)`, entered once block t is struck, so the caller can wait
        between the strike and the primes (see `checkers._scan_ring`).
        """
        self.ready()
        block = 8 * SEG
        quarter = block // 4
        if self._progressions is not None \
                and (max(first, every) + 1) * block >= 2**31:
            ps, off, step8 = self._progressions
            self._progressions = (ps, off.astype(np.int64),
                                  step8.astype(np.int64))
        buf = None
        pos = 0  # the flat index the offsets are relative to
        for t in range(first, self.turns, every):
            mask = None
            if t < self.blocks:
                if buf is None:
                    buf = np.empty(min(block, self.stop) + 1, dtype=bool)
                mask, size = self._strike(buf, t * block - pos, t * block)
                pos = t * block
            with turn(t) if turn is not None else _NO_TURN:
                if t == 0 and self.small:
                    yield np.array(self.small, dtype=np.int64)
                if mask is None:
                    continue
                # the block goes out in quarters, to keep each consumer's
                # arrays small; each is dropped here before the next is made
                for h in range(0, size, quarter):
                    out = np.flatnonzero(mask[h:min(h + quarter, size)])
                    out += pos + h
                    slot = np.empty(out.size, dtype=np.uint8)
                    np.bitwise_and(out, 7, out=slot, casting="unsafe")
                    out >>= 3
                    out *= 30
                    out += self.base
                    out += _R8[slot]
                    del slot
                    yield out
                    del out
        # the offsets now stand at the walk's last block: dropped, so that a
        # scan holds only the offsets of the ranges it has still to walk,
        # and a second walk places them afresh
        self._progressions = None

    def _strike(self, buf: np.ndarray, skip: int, pos: int):
        """Strike the block at flat index `pos` into `buf`, after carrying
        the offsets `skip` entries on; returns (mask, size)."""
        ps, off, step8 = self._progressions
        size = min(8 * SEG, self.stop - pos)
        mask = buf[:size + 1]
        # each pattern rolled to the block's phase, whole periods at once
        phase = self.base // 30 + pos // 8
        for i, pattern in enumerate(_PATTERNS):
            pattern = np.roll(pattern, -8 * (phase % (pattern.size // 8)))
            whole = size - size % pattern.size
            rows = mask[:whole].reshape(-1, pattern.size)
            tail = mask[whole:size]
            if i == 0:
                rows[:] = pattern
                tail[:] = pattern[:tail.size]
            else:
                np.logical_and(rows, pattern, out=rows)
                np.logical_and(tail, pattern[:tail.size], out=tail)
        if pos == 0:
            if self.base <= _LAST_PATTERN_PRIME:  # the pattern primes
                at = _FLAT[_PATTERN_PRIMES[_PATTERN_PRIMES >= self.base]] \
                    - 8 * (self.base // 30)
                mask[at[at < size]] = True
            mask[:self.start] = False  # 1 among them, as lo >= 2
        # progressions with at least 64 strikes in the block (SEG >> 6 in a
        # full one) take one slice each, the rest go through the rounds
        dense = 8 * int(np.searchsorted(ps, size >> 9))
        for c in range(0, off.size, _CHUNK):
            o = off[c:c + _CHUNK]
            s = np.repeat(step8[c // 8:(c + _CHUNK) // 8], 8)
            if skip:
                _carry(o, s, skip)
            n = min(max(dense - c, 0), o.size)
            for k, step in zip(o[:n].tolist(), s[:n].tolist()):
                mask[k::step] = False
            for hit in _rounds(o[n:], s[n:], size):
                mask[hit] = False
        return mask, size


_NO_TURN = contextlib.nullcontext()


def prime_array_segments(lo: int, hi: int, blocks: Blocks | None = None,
                         first: int = 0, every: int = 1,
                         turn=None) -> Iterator[np.ndarray]:
    """Yield increasing int64 arrays that together hold every prime in
    [lo, hi]; with `blocks` (a `Blocks(lo, hi)`), only those of its blocks
    first, first + every, .., as `Blocks.walk` gives them."""
    if blocks is None:
        blocks = Blocks(lo, hi)
    yield from blocks.walk(first, every, turn)


def _rounds(first: np.ndarray, step: np.ndarray,
            size: int) -> Iterator[np.ndarray]:
    """Yield the offsets first + j step, j = 0, 1, .., round by round.

    `step` is increasing and `first` >= 0, so from round j >= 1 on only the
    steps up to (size - 1) // j can land below `size`: each round is a
    prefix of the previous one, found with `searchsorted`.  Offsets past
    the end are clamped to `size`, one spare slot past the caller's array.
    The offsets are one index (intp) buffer, whatever the inputs' dtype,
    stepped in place: each round overwrites the one before.
    """
    o = np.minimum(first, size, dtype=np.intp)
    step = step.astype(np.intp, copy=False)
    j = 0
    while o.size:
        yield o
        j += 1
        o = o[:int(np.searchsorted(step, (size - 1) // j, "right"))]
        np.add(o, step[:o.size], out=o)
        np.minimum(o, size, out=o)


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
