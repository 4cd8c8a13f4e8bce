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

Each segment is split into its residue classes in one pass: one stable
(radix) sort on the residues mod q, in the smallest unsigned dtype that
holds q, and one `bincount` for the class bounds.  Every class is then a
contiguous, increasing slice of the sorted segment, and each scanner
reads its slices; the per-class window calls see the same class primes,
in the same runs, as a per-class mask would give them.

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

from .sieve import prime_array_segments
from .tables import ExceptionBlock, load_table5, load_table6
from .thm1 import h1, hsqrt

__all__ = ["GUARD", "CheckReport", "check1", "check_sqrt", "row_guard",
           "run_exception_tables"]

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


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one checker run: empty `failures` means the claim held.

    `wall_time` is the row's own scanning time (its scanner's `feed` and
    `finish` calls); generating the primes, shared or not, is excluded.
    """

    q: int
    x0: int
    x_end: int
    mode: str  # "single" or "sqrt"
    failures: tuple[tuple[int, float], ...]  # (residue, missed deadline)
    primes_scanned: int
    wall_time: float


class _RowScan:
    """One row's scan state: per-class deadlines and last inspected
    points, failures, primes seen.

    The row covers the primes in [lo, hi], lo = max(x0, 2) and
    hi = floor(x_end + h(x_end)).  Subclasses supply `mode`, the window
    function `h` and `_scan(a, cp)`, which consumes the next non-empty,
    increasing run `cp` of class-`a` primes.
    """

    mode: str

    def __init__(self, alpha: float, delta: float, rho: float, q: int,
                 x0: int, x_end: int) -> None:
        t_start = time.perf_counter()
        if q < 1:
            raise ValueError(f"modulus q must be at least 1, got {q}")
        if x0 < 1:
            raise ValueError(f"scan start x0 must be at least 1, got {x0}")
        self.params = (alpha, delta, rho, q)
        self.q, self.x0, self.x_end = q, x0, x_end
        self.lo = max(int(x0), 2)
        self.hi = math.floor(x_end + self.h(*self.params, float(x_end)))
        self.guard = row_guard(self.hi)
        self.classes = [a for a in range(q) if math.gcd(a, q) == 1]
        init = float(x0 + self.h(*self.params, float(x0)))
        self.deadline = dict.fromkeys(self.classes, init)
        # last inspected point of each class: x0, then its class primes
        self.last = dict.fromkeys(self.classes, x0)
        self.failures: list[tuple[int, float]] = []
        self.scanned = 0
        self.busy = time.perf_counter() - t_start

    def feed(self, seg) -> None:
        """Scan the next increasing array of primes from [lo, hi], one
        residue-class slice at a time (see the module docstring)."""
        t_start = time.perf_counter()
        seg = np.asarray(seg)
        if seg.size:
            # uint8 below q = 256, uint16 below 65536: keys numpy radix-sorts
            res = (seg % self.q).astype(np.min_scalar_type(self.q))
            split = seg[np.argsort(res, kind="stable")]
            bounds = [0, *np.bincount(res, minlength=self.q).cumsum().tolist()]
            for a in self.classes:
                if bounds[a + 1] > bounds[a]:
                    self._scan(a, split[bounds[a]:bounds[a + 1]])
        self.busy += time.perf_counter() - t_start

    def finish(self) -> CheckReport:
        """Flag every class with no inspected prime in (x_end, hi]: its
        window at x = x_end holds no prime of the class."""
        t_start = time.perf_counter()
        for a in self.classes:
            if self.last[a] <= self.x_end:
                self.failures.append((a, self.deadline[a]))
        self.failures.sort()
        return CheckReport(q=self.q, x0=self.x0, x_end=self.x_end,
                           mode=self.mode, failures=tuple(self.failures),
                           primes_scanned=self.scanned,
                           wall_time=self.busy + time.perf_counter() - t_start)


class _Scan1(_RowScan):
    """Every-prime scan with window length h1."""

    mode = "single"
    h = staticmethod(h1)

    def _scan(self, a: int, cp: np.ndarray) -> None:
        alpha, delta, rho, q = self.params
        self.last[a] = int(cp[-1])
        cp = cp.astype(np.float64)
        self.scanned += cp.size
        dl = np.empty_like(cp)
        dl[0] = self.deadline[a]
        if cp.size > 1:
            dl[1:] = cp[:-1] + h1(alpha, delta, rho, q, cp[:-1])
        for i in np.flatnonzero(dl - self.guard <= cp):
            self.failures.append((a, float(dl[i])))
        self.deadline[a] = float(cp[-1] + h1(alpha, delta, rho, q, cp[-1]))


class _ScanSqrt(_RowScan):
    """Thinned scan with window length hsqrt (see `check_sqrt`)."""

    mode = "sqrt"
    h = staticmethod(hsqrt)

    def __init__(self, alpha: float, delta: float, rho: float, q: int,
                 x0: int, x_end: int) -> None:
        super().__init__(alpha, delta, rho, q, x0, x_end)
        # 1-based countdown to the next inspected class prime
        self.todo = {a: self._jump(d) for a, d in self.deadline.items()}

    @staticmethod
    def _jump(deadline: float) -> int:
        return math.isqrt(math.floor(deadline)) + 1

    def _scan(self, a: int, cp: np.ndarray) -> None:
        alpha, delta, rho, q = self.params
        deadline, guard = self.deadline, self.guard
        n = int(cp.size)
        self.scanned += n
        idx = self.todo[a] - 1  # 0-based position of the next inspection
        while idx < n:
            self.last[a] = int(cp[idx])
            p = float(cp[idx])
            if deadline[a] - guard <= p:
                self.failures.append((a, deadline[a]))
            deadline[a] = float(p + hsqrt(alpha, delta, rho, q, p))
            idx += self._jump(deadline[a])
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
