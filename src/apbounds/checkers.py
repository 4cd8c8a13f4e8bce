"""Finite-range interval checkers.

A parameter choice (alpha, delta, rho) claims that for x in a stated range,
every window (x, x + h(x)] contains a prime in each coprime class mod q.
The checkers replay that claim against the actual primes.  Each row's scan
is a push-style scanner: `feed(seg)` takes the next increasing array of the
row's primes, `finish()` runs the end-of-range sweep and returns the
`CheckReport`.

* The every-prime scanner (`check1`) walks every class prime and carries
  the current deadline x + h1(x); a prime at or past its class deadline is
  a failure.

* The thinned scanner (`check_sqrt`) does the same for the taller hsqrt
  windows but only inspects every N-th class prime,
  N = isqrt(floor(deadline)) + 1: the thinned scan proves the (slightly
  weaker) claim at sqrt-count density in a fraction of the work.

* The end-of-range sweep in `finish()` is an exact integer test.  By then
  every prime up to hi = floor(x_end + h(x_end)) has been fed, so a class
  whose last inspected point (its last inspected class prime, or x0 if
  none) is at most x_end has no inspected prime in (x_end, hi]: the claim
  fails at x = x_end, and the class is flagged with its last deadline.

No scanner sorts a segment into its classes.  Each cut of a row (the
part of a segment inside the row's range) gets its residues mod q once and
one count table: the cut falls into blocks of B = 2^k consecutive primes,
B >= q, and one `bincount` over block * q + residue counts each class in
each block, at most n + q entries.

* The every-prime scanner proves the cut from the table when it can: if
  every class occurs in every interior block, consecutive class primes lie
  in the same or adjacent blocks, so no in-cut gap exceeds the widest run
  of two blocks; if that run, the guard and a rounding allowance stay
  below h1 at the cut's first prime, no in-cut gap can fail (the
  soundness argument is at `_Scan1._proves`).  A proved cut costs each
  class two lookups: its first prime meets the carried-in deadline, its
  last prime sets the next one.  Any other cut takes the exact path: one
  stable (radix) sort on the residues makes every class a contiguous,
  increasing slice, and each slice is scanned prime by prime.

* The thinned scanner counts each class down through the table and finds
  each inspected class prime in its block, so it reads B residues per
  inspection and never the whole class.

One driver, `_scan_shared`, runs every scan: it sieves the union of its
rows' ranges once and hands each prime segment to every row that overlaps
it.  `check1` and `check_sqrt` run it on one row, and
`run_exception_tables` on a table's rows, so overlapping rows share one
sieve.  Results are invariant under how the stream is chunked, which the
tests exercise by substituting `prime_array_segments` with one that yields
deliberately awkward chunk sizes.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .sieve import MAX_HI, prime_array_segments
from .tables import ExceptionBlock, load_table5, load_table6
from .thm1 import h1, hsqrt

__all__ = ["GUARD", "CheckReport", "check1", "check_sqrt", "row_guard",
           "row_top", "run_exception_tables"]

# absorbs float rounding in deadline comparisons: a window is only counted
# as covering a prime when it clears it by more than this
GUARD = 1e-6

# Rounding headroom in ulps of the row's top end hi.  A deadline is
# fl(fl(p) + fl(h(p))): fl(p) is exact below 2^53 and off by at most
# ulp(p)/2 above; fl(h(p)) takes about eight roundings of relative size
# u = 2^-53 (log, sqrt, three products, two sums) and h(p) <= p + h(p),
# so its error stays below 8u(p + h(p)) <= 8 ulp; the final sum adds
# ulp/2.  A comparison only hangs on rounding when the deadline lies next
# to a prime, which is <= hi, so all of this is at most about 9.5 ulp(hi),
# and 16 ulps leave room.  Below 2^29 (every bundled row) 16 ulp(hi) <=
# 2^-20 < GUARD, so the guard there is exactly GUARD.
_GUARD_ULPS = 16


def row_guard(hi: int) -> float:
    """Deadline guard for a row whose primes run up to `hi`."""
    return max(GUARD, _GUARD_ULPS * math.ulp(float(hi)))


def row_top(h, alpha: float, delta: float, rho: float, q: int,
            x0: int, x_end: int) -> int:
    """hi = floor(x_end + h(x_end)) for the window function `h`; ValueError
    if x0, x_end or hi lies past `sieve.MAX_HI`, the sieve's int64 limit."""
    top = float(x_end + h(alpha, delta, rho, q, float(x_end)))
    if not (max(x0, x_end) <= MAX_HI and top <= MAX_HI):  # a NaN top too
        raise ValueError(f"row [{x0}, {x_end}] needs primes past {MAX_HI}, "
                         f"the sieve's int64 limit")
    return math.floor(top)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one checker run: empty `failures` means the claim held.

    `wall_time` is the row's own scanning time (its scanner's `feed` and
    `finish` calls); generating the primes, shared or not, is excluded.
    `primes_proved` counts the class primes of the cuts that the block
    proof settled (always 0 for the thinned scan).  Neither goes into a
    record.
    """

    q: int
    x0: int
    x_end: int
    mode: str  # "single" or "sqrt"
    failures: tuple[tuple[int, float], ...]  # (residue, missed deadline)
    primes_scanned: int
    primes_proved: int
    wall_time: float


class _RowScan:
    """One row's scan state: per-residue deadlines and last inspected
    points, failures, primes seen.

    The row covers the primes in [lo, hi], lo = max(x0, 2) and
    hi = floor(x_end + h(x_end)).  `deadline` and `last` are indexed by
    residue; only the coprime `classes` are ever read.  Subclasses supply
    `mode`, the window function `h` and `_cut(seg, res)`, which consumes
    the next non-empty cut `seg` of the row's primes, with `res` = seg mod
    q; each sizes its own blocks and builds the cut's count table with
    `_block_counts`.
    """

    mode: str

    def __init__(self, alpha: float, delta: float, rho: float, q: int,
                 x0: int, x_end: int) -> None:
        t_start = time.perf_counter()
        if q < 1:
            raise ValueError(f"modulus q must be at least 1, got {q}")
        if x0 < 1:
            raise ValueError(f"scan start x0 must be at least 1, got {x0}")
        if x0 > x_end:
            raise ValueError(f"scan start x0 = {x0} lies past x_end = {x_end}")
        self.params = (alpha, delta, rho, q)
        self.q, self.x0, self.x_end = q, x0, x_end
        self.lo = max(int(x0), 2)
        self.hi = row_top(self.h, *self.params, x0, x_end)
        self.guard = row_guard(self.hi)
        self.classes = np.array([a for a in range(q) if math.gcd(a, q) == 1])
        self.deadline = np.full(q, float(x0 + self.h(*self.params,
                                                     float(x0))))
        # last inspected point of each class: x0, then its class primes
        self.last = np.full(q, x0, dtype=np.int64)
        self.failures: list[tuple[int, float]] = []
        self.scanned = self.proved = 0
        self.busy = time.perf_counter() - t_start

    def feed(self, seg) -> None:
        """Scan the next increasing array of primes from [lo, hi] (see
        the module docstring)."""
        t_start = time.perf_counter()
        seg = np.asarray(seg)
        if seg.size:
            # seg - q (seg // q): numpy's integer % is slower
            res = seg // self.q
            res *= self.q
            self._cut(seg, np.subtract(seg, res, out=res))
        self.busy += time.perf_counter() - t_start

    def finish(self) -> CheckReport:
        """Flag every class with no inspected prime in (x_end, hi]: its
        window at x = x_end holds no prime of the class."""
        t_start = time.perf_counter()
        late = self.classes[self.last[self.classes] <= self.x_end]
        self.failures.extend(zip(late.tolist(), self.deadline[late].tolist()))
        self.failures.sort()
        return CheckReport(q=self.q, x0=self.x0, x_end=self.x_end,
                           mode=self.mode, failures=tuple(self.failures),
                           primes_scanned=self.scanned,
                           primes_proved=self.proved,
                           wall_time=self.busy + time.perf_counter() - t_start)


def _block_counts(res: np.ndarray, q: int, shift: int) -> np.ndarray:
    """The cut's block count table: counts[j, a] is the number of class-a
    primes among the B = 2^shift entries from jB on.  With B >= q it has
    at most n + q entries."""
    size = (((res.size - 1) >> shift) + 1) * q
    keys = np.repeat(np.arange(0, size, q), 1 << shift)[:res.size]
    keys += res
    return np.bincount(keys, minlength=size).reshape(-1, q)


def _span(seg: np.ndarray, shift: int) -> int:
    """The widest run of two blocks: max over j of
    seg[min((j + 2)B, n) - 1] - seg[jB], B = 2^shift."""
    starts, ends = seg[::1 << shift], seg[(2 << shift) - 1::1 << shift]
    m = ends.size  # the runs from block m on end at seg[-1]
    return max(int((ends - starts[:m]).max(initial=0)),
               int(seg[-1] - starts[m]))


class _Scan1(_RowScan):
    """Every-prime scan with window length h1."""

    mode = "single"
    h = staticmethod(h1)

    def __init__(self, alpha: float, delta: float, rho: float, q: int,
                 x0: int, x_end: int) -> None:
        super().__init__(alpha, delta, rho, q, x0, x_end)
        # see `_proves`: h1 grows and is rounded without cancellation, and
        # every prime of the row is a float
        self.provable = (min(alpha, delta, rho) >= 0 and self.hi < 2**53)

    def _cut(self, seg, res) -> None:
        """Prove the cut's in-class gaps from its block table, or scan it
        exactly (`_split`).  Either way the carried-in deadline is tested
        on each class's first prime, and the last prime sets `last` and
        the next deadline."""
        q, n = self.q, int(seg.size)
        h0 = float(h1(*self.params, float(seg[0])))
        # blocks as large as keep two of them within about half a window,
        # so that a class is all but sure to occur in every block
        shift = (q - 1).bit_length()
        gap = (int(seg[-1]) - int(seg[0])) / max(n - 1, 1)
        while shift < (n - 1).bit_length() and 8 * gap * 2**shift <= h0:
            shift += 1
        counts = _block_counts(res, q, shift)
        total = counts.sum(axis=0)
        found = total[self.classes]
        self.scanned += int(found.sum())
        if not self._proves(seg, h0, shift, counts):
            self._split(seg, res, total)
            return
        self.proved += int(found.sum())
        edge = 2 << shift  # two blocks
        here = self.classes[found > 0]
        # every class occurs in every interior block, so its first and
        # last primes lie among the first and the last 2B of the cut
        first = np.full(q, n)
        np.minimum.at(first, res[:edge], np.arange(min(edge, n)))
        last = np.full(q, -1)
        np.maximum.at(last, res[-edge:], np.arange(max(n - edge, 0), n))
        p = seg[first[here]].astype(np.float64)
        dl = self.deadline[here]
        late = dl - self.guard <= p
        self.failures.extend(zip(here[late].tolist(), dl[late].tolist()))
        p = seg[last[here]]
        self.last[here] = p
        p = p.astype(np.float64)
        self.deadline[here] = p + h1(*self.params, p)

    def _proves(self, seg, h0, shift, counts) -> bool:
        """True when no gap between two class primes of the cut can fail.

        Soundness.  (1) Adjacent blocks: if every class occurs in every
        interior block, consecutive class primes p < p' lie in one block
        or in adjacent ones (a block between them would hold a class
        prime between them), so p' - p <= `_span`.  (2) Monotonicity:
        with alpha, delta, rho >= 0, h1 is nondecreasing on x >= 1, so
        h1(p) >= h1(seg[0]).  (3) Rounding: below 2^53 every prime is a
        float.  With no negative term the computed h1 is within 12u of
        h1 (u = 2^-53; about ten roundings: log, products, sums, sqrt),
        so fl(h1(p)) >= (1 - 24u) h0, h0 = fl(h1(seg[0])).  Rounding is
        monotone, so the computed deadline minus the guard g is at least
        ((p + (1 - 24u) h0)(1 - u) - g)(1 - u) >= p + h0 - g - 26u h0
        - 2u p.  As p' <= p + span, the exact test `deadline - g <= p'`
        cannot fire when span + g + 26u h0 + 2u p < h0.  Since
        2u p <= 2 ulp(hi) <= g / 8 (`row_guard`), the test below
        suffices: 2^-48 h0 = 32u h0 also covers the 2u h0 by which its
        own float sum may err.
        """
        if not self.provable:
            return False
        if counts.shape[0] > 2 and not counts[1:-1, self.classes].all():
            return False
        return _span(seg, shift) + 2 * self.guard + 2.0**-48 * h0 < h0

    def _split(self, seg, res, total) -> None:
        """The exact path: one stable (radix) sort of the cut on its
        residues, in the smallest unsigned dtype that holds q, makes every
        class a contiguous, increasing slice; each goes to `_scan`."""
        split = seg[np.argsort(res.astype(np.min_scalar_type(self.q)),
                               kind="stable")]
        bounds = [0, *total.cumsum().tolist()]
        for a in self.classes.tolist():
            if bounds[a + 1] > bounds[a]:
                self._scan(a, split[bounds[a]:bounds[a + 1]])

    def _scan(self, a: int, cp: np.ndarray) -> None:
        alpha, delta, rho, q = self.params
        self.last[a] = cp[-1]
        cp = cp.astype(np.float64)
        dl = np.empty_like(cp)
        dl[0] = self.deadline[a]
        if cp.size > 1:
            dl[1:] = cp[:-1] + h1(alpha, delta, rho, q, cp[:-1])
        for i in np.flatnonzero(dl - self.guard <= cp):
            self.failures.append((a, float(dl[i])))
        self.deadline[a] = cp[-1] + h1(alpha, delta, rho, q, cp[-1])


class _ScanSqrt(_RowScan):
    """Thinned scan with window length hsqrt (see `check_sqrt`)."""

    mode = "sqrt"
    h = staticmethod(hsqrt)

    def __init__(self, alpha: float, delta: float, rho: float, q: int,
                 x0: int, x_end: int) -> None:
        super().__init__(alpha, delta, rho, q, x0, x_end)
        # 1-based countdown to the next inspected class prime
        self.todo = {a: self._jump(float(self.deadline[a]))
                     for a in self.classes.tolist()}

    @staticmethod
    def _jump(deadline: float) -> int:
        return math.isqrt(math.floor(deadline)) + 1

    def _cut(self, seg, res) -> None:
        """Count down each class through the cut and inspect only the
        class primes the countdown lands on, each found in its block."""
        alpha, delta, rho, q = self.params
        # B about sqrt(n q): the table has about n q / B entries and an
        # inspection reads B residues
        shift = max((q - 1).bit_length(), (seg.size * q).bit_length() // 2)
        cum = _block_counts(res, q, shift).cumsum(axis=0)
        for a in self.classes.tolist():
            col, d = cum[:, a], float(self.deadline[a])
            n = int(col[-1])
            self.scanned += n
            idx = self.todo[a] - 1  # 0-based position of the next inspection
            while idx < n:
                # the idx-th class prime: in the first block whose running
                # count passes idx, at rank idx - (count before that block)
                j = int(np.searchsorted(col, idx, "right"))
                lo = j << shift
                rank = idx - (int(col[j - 1]) if j else 0)
                at = lo + np.flatnonzero(res[lo:lo + (1 << shift)] == a)[rank]
                self.last[a] = seg[at]
                p = float(seg[at])
                if d - self.guard <= p:
                    self.failures.append((a, d))
                d = float(p + hsqrt(alpha, delta, rho, q, p))
                idx += self._jump(d)
            self.deadline[a] = d
            self.todo[a] = idx - n + 1


def check1(alpha: float, delta: float, rho: float, q: int,
           x0: int, x_end: int) -> CheckReport:
    """Every-prime scan of [x0, x_end] with window length h1."""
    return _scan_shared([_Scan1(alpha, delta, rho, q, x0, x_end)])[0]


def check_sqrt(alpha: float, delta: float, rho: float, q: int,
               x0: int, x_end: int) -> CheckReport:
    """Thinned scan of [x0, x_end] with window length hsqrt.

    Between inspections, isqrt(floor(deadline)) class primes pass unexamined
    — enough headroom that the thinned claim survives any placement of the
    skipped primes.
    """
    return _scan_shared([_ScanSqrt(alpha, delta, rho, q, x0, x_end)])[0]


# ---------------------------------------------------------------------------
# exception-table driver
# ---------------------------------------------------------------------------

def _merged_ranges(scans: list[_RowScan]) -> list[tuple[int, int, list]]:
    """Merge the rows' [lo, hi] ranges: (lo, hi, rows inside), by start."""
    merged: list[tuple[int, int, list]] = []
    for s in sorted((s for s in scans if s.hi >= s.lo), key=lambda s: s.lo):
        if merged and s.lo <= merged[-1][1] + 1:
            lo, hi, group = merged[-1]
            group.append(s)
            merged[-1] = (lo, max(hi, s.hi), group)
        else:
            merged.append((s.lo, s.hi, [s]))
    return merged


def _scan_shared(scans: list[_RowScan]) -> list[CheckReport]:
    """Run row scanners off one shared sieve; reports in the order given.

    Each merged range is sieved once; every segment goes to each row that
    overlaps it, cut to the row's own [lo, hi].  Segments are streamed and
    never joined, so memory stays at one segment.
    """
    for lo, hi, group in _merged_ranges(scans):
        for seg in prime_array_segments(lo, hi):
            for s in group:
                s.feed(seg[np.searchsorted(seg, s.lo, "left"):
                           np.searchsorted(seg, s.hi, "right")])
    return [s.finish() for s in scans]


def _span_groups(scans: list[_RowScan], jobs: int) -> list[list[int]]:
    """Split row indices, sorted by start, into at most `jobs` contiguous
    groups of about equal work.

    A row's work is the integers it adds to the union (its share of the
    sieve) plus its own span (its scan): rows low in t5 overlap heavily,
    and balancing on the union span alone leaves their scanning to one
    group.
    """
    order = sorted(range(len(scans)), key=lambda i: scans[i].lo)
    work, reach = [], -1
    for i in order:
        lo, hi = scans[i].lo, scans[i].hi
        work.append(max(0, hi - max(lo, reach + 1) + 1) + max(0, hi - lo + 1))
        reach = max(reach, hi)
    total = sum(work) or 1
    groups: list[list[int]] = [[] for _ in range(jobs)]
    done = 0
    for i, w in zip(order, work):
        groups[min(jobs - 1, (2 * done + w) * jobs // (2 * total))].append(i)
        done += w
    return [g for g in groups if g]


def run_exception_tables(table: str, block: int | None = None,
                         jobs: int = 1) -> list[CheckReport]:
    """Run every row of one exception table (or one of its blocks).

    t5 rows take the every-prime scan, t6 rows the thinned one.  The rows
    share one sieve of the union of their ranges.  With `jobs` > 1 the
    rows, sorted by start, are split into `jobs` contiguous groups of about
    equal work, each scanned the same way in its own process.  Reports
    come back in table order regardless of `jobs`.
    """
    name = table.lower()
    if name == "t5":
        blocks, scanner = load_table5(), _Scan1
    elif name == "t6":
        blocks, scanner = load_table6(), _ScanSqrt
    else:
        raise ValueError(f"unknown exception table {table!r} (want t5 or t6)")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if block is not None:
        if not 1 <= block <= len(blocks):
            raise ValueError(
                f"{name} has blocks 1..{len(blocks)}, got {block}")
        picked: tuple[ExceptionBlock, ...] = (blocks[block - 1],)
    else:
        picked = blocks
    scans = [scanner(b.alpha, b.delta, b.rho, q, lo, hi)
             for b in picked for (q, lo, hi) in b.rows]
    groups = _span_groups(scans, jobs)
    if len(groups) < 2:
        return _scan_shared(scans)
    reports: list[CheckReport | None] = [None] * len(scans)
    with ProcessPoolExecutor(max_workers=len(groups)) as pool:
        futures = [pool.submit(_scan_shared, [scans[i] for i in g])
                   for g in groups]
        for g, fut in zip(groups, futures):
            for i, rep in zip(g, fut.result()):
                reports[i] = rep
    return reports
