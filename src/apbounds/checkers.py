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

A cut of a row is the part of a segment inside the row's range.  Each
scanner splits its cuts into blocks of B = 2^k consecutive primes, B >= q,
and gets residues mod q only for the primes it reads.

* The every-prime scanner proves the cut from samples when it can.  It
  reads the residues of the first m = min(16 q, B) primes of every block
  but the last, and of the last m primes of the cut: about m n / B + m
  primes, with one `bincount` telling which classes each sample holds.
  If every class occurs in every sample, consecutive class primes lie in
  the same or adjacent blocks, so no in-cut gap exceeds the widest run of
  two blocks; if that run, the guard and a rounding allowance stay below
  h1 at the cut's first prime, no in-cut gap can fail (the soundness
  argument is at `_Scan1._proves`).  Each class's first prime then lies
  in the first sample and its last prime in the last one, so a proved
  cut costs each class two lookups: its first prime meets the carried-in
  deadline, its last prime sets the next one.  Any other cut takes the
  exact path: it gets every residue, one stable (radix) sort on them
  makes every class a contiguous, increasing slice, and each slice is
  scanned prime by prime.

* The thinned scanner gets every residue of the cut and one count table:
  one `bincount` over block * q + residue counts each class in each
  block, at most n + q entries.  It counts each class down through the
  table and finds each inspected class prime in its block, so it reads B
  residues per inspection and never the whole class.

One driver, `_scan_shared`, runs every scan: it sieves the union of its
rows' ranges once and hands each prime segment to every row that overlaps
it.  `check1` and `check_sqrt` run it on one row, and
`run_exception_tables` on a table's rows, so overlapping rows share one
sieve.  Results are invariant under how the stream is chunked, which the
tests exercise by substituting `prime_array_segments` with one that yields
deliberately awkward chunk sizes.

The sieve blocks of the merged ranges, laid end to end, are the turns of a
`ring.run` on every usable CPU (`_scan_ring`).  Rank r strikes the blocks
t = r (mod R) from base primes and first offsets made once before the
fork.  A rank feeds its block's primes to the rows only once the token of
the turn has come: it carries the state of the rows still open (per-class
deadline, last point and thinned countdown, failures and counts, as a few
flat arrays), so every row sees its primes in order, in one process at a
time, and every report is what one process gives.  With one rank (one
block, one usable CPU, or no `os.fork`) the ranges are sieved in this
process, and no state is packed.
"""
from __future__ import annotations

import contextlib
import math
import pickle
import time
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import ring
from .sieve import MAX_HI, Blocks, prime_array_segments
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
# 2^-20 < GUARD, so the guard there is exactly GUARD.  A tier-1 test
# measures the premise against 50 digits on the running numpy: with numpy
# 2.4.6 on an AVX-512 Xeon a deadline was within 1.5 ulp and np.log within
# 0.5 ulp.
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
    `mode`, the window function `h` and `_cut(seg)`, which consumes the
    next non-empty cut `seg` of the row's primes; each sizes its own
    blocks and gets the residues it reads with `_residues`.
    """

    mode: str
    # the per-class arrays carried from one cut to the next
    carried = ("deadline", "last")

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
            self._cut(seg)
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


def _residues(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q, as x - q (x // q): numpy's integer % is slower."""
    res = x // q
    res *= q
    return np.subtract(x, res, out=res)


def _block_counts(res: np.ndarray, q: int, shift: int) -> np.ndarray:
    """The cut's block count table: counts[j, a] is the number of class-a
    primes among the B = 2^shift entries from jB on.  With B >= q it has
    at most n + q entries.  The keys jq + a are built in the smallest
    unsigned dtype that holds the table size."""
    size = (((res.size - 1) >> shift) + 1) * q
    keys = np.repeat(np.arange(0, size, q, dtype=np.min_scalar_type(size)),
                     1 << shift)[:res.size]
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

    def _cut(self, seg) -> None:
        """Prove the cut's in-class gaps from block samples (`_proves`),
        or scan it exactly (`_split`).  Either way the carried-in deadline
        is tested on each class's first prime, and the last prime sets
        `last` and the next deadline."""
        q, n = self.q, int(seg.size)
        h0 = float(h1(*self.params, float(seg[0])))
        # blocks as large as keep two of them within about half a window,
        # so that a class is all but sure to occur in every block
        shift = (q - 1).bit_length()
        gap = (int(seg[-1]) - int(seg[0])) / max(n - 1, 1)
        while shift < (n - 1).bit_length() and 8 * gap * 2**shift <= h0:
            shift += 1
        ends = self._proves(seg, h0, shift)
        if ends is None:
            self._split(seg)
            return
        # every class occurs, so every prime but those dividing q is a
        # class prime; only a cut that starts at or below q holds any
        if seg[0] <= q:
            n -= int(np.count_nonzero(q % seg[seg <= q] == 0))
        self.scanned += n
        self.proved += n
        first, last = ends
        p = seg[first].astype(np.float64)
        dl = self.deadline[self.classes]
        late = dl - self.guard <= p
        self.failures.extend(zip(self.classes[late].tolist(),
                                 dl[late].tolist()))
        p = seg[last]
        self.last[self.classes] = p
        p = p.astype(np.float64)
        self.deadline[self.classes] = p + h1(*self.params, p)

    def _proves(self, seg, h0, shift):
        """The indices in `seg` of each class's first and last prime when
        no gap between two class primes of the cut can fail, else None.

        The samples are the first k = min(16 q, B, n) primes of blocks 0
        to max(nb - 2, 0) of the cut's nb blocks of B = 2^shift, and its
        last k primes; the proof asks every class to occur in each.

        Soundness.  (1) Adjacent blocks: the interior blocks 1 .. nb - 2
        are sampled, so every class occurs in every interior block, and
        consecutive class primes p < p' lie in one block or in adjacent
        ones (a block between them would hold a class prime between them),
        so p' - p <= `_span`.  The first sample opens the cut and the last
        one closes it, so every class's first prime lies in the first
        sample and its last prime in the last.  (2) Monotonicity: with
        alpha, delta, rho >= 0, h1 is nondecreasing on x >= 1, so
        h1(p) >= h1(seg[0]).  (3) Rounding: below 2^53 every prime is a
        float.  With no negative term the computed h1 is within 12u of
        h1 (u = 2^-53; about ten roundings: log, products, sums, sqrt;
        a tier-1 test measured at most 3.5u with numpy 2.4.6 on an AVX-512
        Xeon, at the table-5/6 parameters up to `sieve.MAX_HI`),
        so fl(h1(p)) >= (1 - 24u) h0, h0 = fl(h1(seg[0])).  Rounding is
        monotone, so the computed deadline minus the guard g is at least
        ((p + (1 - 24u) h0)(1 - u) - g)(1 - u) >= p + h0 - g - 26u h0
        - 2u p.  As p' <= p + span, the exact test `deadline - g <= p'`
        cannot fire when span + g + 26u h0 + 2u p < h0.  Since
        2u p <= 2 ulp(hi) <= g / 8 (`row_guard`), the span test below
        suffices: 2^-48 h0 = 32u h0 also covers the 2u h0 by which its
        own float sum may err.  It reads one prime per block, so it runs
        before the samples are read.
        """
        if not (self.provable and _span(seg, shift) + 2 * self.guard
                + 2.0**-48 * h0 < h0):
            return None
        q, n = self.q, seg.size
        k = min(16 * q, 1 << shift, n)
        rows = max((n - 1) >> shift, 1)
        head = _residues(seg[:rows << shift].reshape(rows, -1)[:, :k], q)
        tail = _residues(seg[n - k:], q)
        # sample j's residues become keys jq + a; row 0 keeps its residues
        head += np.arange(0, rows * q, q)[:, None]
        counts = np.bincount(np.concatenate((head, tail + rows * q),
                                            axis=None),
                             minlength=(rows + 1) * q)
        if not counts.reshape(-1, q)[:, self.classes].all():
            return None
        first = np.full(q, k)
        np.minimum.at(first, head[0], np.arange(k))
        last = np.full(q, -1)
        np.maximum.at(last, tail, np.arange(n - k, n))
        return first[self.classes], last[self.classes]

    def _split(self, seg) -> None:
        """The exact path: the residues of the whole cut, then one stable
        (radix) sort of the cut on them, in the smallest unsigned dtype
        that holds q, makes every class a contiguous, increasing slice;
        each goes to `_scan`."""
        res = _residues(seg, self.q)
        total = np.bincount(res, minlength=self.q)
        self.scanned += int(total[self.classes].sum())
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
    carried = ("deadline", "last", "todo")

    def __init__(self, alpha: float, delta: float, rho: float, q: int,
                 x0: int, x_end: int) -> None:
        super().__init__(alpha, delta, rho, q, x0, x_end)
        # 1-based countdown to the next inspected class prime, by residue
        self.todo = np.zeros(q, dtype=np.int64)
        self.todo[self.classes] = self._jump(float(self.deadline[0]))

    @staticmethod
    def _jump(deadline: float) -> int:
        return math.isqrt(math.floor(deadline)) + 1

    def _cut(self, seg) -> None:
        """Count down each class through the cut and inspect only the
        class primes the countdown lands on, each found in its block."""
        alpha, delta, rho, q = self.params
        # kept for the whole cut, so in the smallest dtype that holds q
        res = _residues(seg, q).astype(np.min_scalar_type(q))
        # B about sqrt(n q): the table has about n q / B entries and an
        # inspection reads B residues
        shift = max((q - 1).bit_length(), (seg.size * q).bit_length() // 2)
        cum = _block_counts(res, q, shift).cumsum(axis=0)
        for a in self.classes.tolist():
            col, d = cum[:, a], float(self.deadline[a])
            n = int(col[-1])
            self.scanned += n
            idx = int(self.todo[a]) - 1  # 0-based: the next inspection
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


def _feed(group: list[_RowScan], seg: np.ndarray) -> None:
    """Hand `seg` to each row of `group` that overlaps it, cut to the row's
    own [lo, hi].  A row whose range misses the segment's first-to-last
    span is skipped before either search, so the sieve's fine split costs
    the rows it does not touch nothing."""
    if seg.size:
        first, last = int(seg[0]), int(seg[-1])
        for s in group:
            if s.lo <= last and first <= s.hi:
                s.feed(seg[np.searchsorted(seg, s.lo, "left"):
                           np.searchsorted(seg, s.hi, "right")])


def _scan_shared(scans: list[_RowScan]) -> list[CheckReport]:
    """Run row scanners off one shared sieve; reports in the order given.

    Each merged range is sieved once, and every segment goes to the rows
    that overlap it (`_feed`).  Segments are streamed and never joined,
    and each is dropped before the next is asked for, so one segment is
    alive at a time.  The ranges' sieve blocks, laid end to end, are the
    turns of a `ring.run` (`_scan_ring`); with one rank the ranges are
    sieved here, one after the other.
    """
    ranges = _merged_ranges(scans)
    plans = [Blocks(lo, hi) for lo, hi, _ in ranges]
    if ring.ranks(sum(p.turns for p in plans)) > 1:
        return _scan_ring(scans, ranges, plans)
    for lo, hi, group in ranges:
        for seg in prime_array_segments(lo, hi):
            _feed(group, seg)
            del seg
    return [s.finish() for s in scans]


def _scan_ring(scans, ranges, plans) -> list[CheckReport]:
    """`_scan_shared` on the ranks of a ring: turn T is one sieve block.

    Each rank strikes its block, then waits for the token, which carries
    the state of the rows that earlier turns have fed and later ones
    still feed (`_pack`).  It feeds the block's quarters to the rows
    exactly as one process does, finishes the rows that end in the block,
    and hands the state of the rows still open on.  A turn's result is
    the reports of the rows it finished, indexed by row; rows with an
    empty range are finished here.
    """
    for plan in plans:  # base primes and first offsets, once for all ranks
        plan.ready()
    index = {id(s): i for i, s in enumerate(scans)}
    starts = list(accumulate((p.turns for p in plans), initial=0))
    opens, ends = {}, {}  # turn -> rows open into it, rows it finishes
    for plan, start, (_, _, group) in zip(plans, starts, ranges):
        for s in group:
            first, last = (start + t for t in plan.turns_of(s.lo, s.hi))
            for t in range(first + 1, last + 1):
                opens.setdefault(t, []).append(index[id(s)])
            ends.setdefault(last, []).append(index[id(s)])

    def work(rank, ranks, baton):
        done = []
        for plan, start, (lo, hi, group) in zip(plans, starts, ranges):

            @contextlib.contextmanager
            def turn(t, start=start):
                t += start
                _load([scans[i] for i in opens.get(t, ())], baton.take(t))
                yield
                done.append([(i, scans[i].finish()) for i in ends.get(t, ())])
                rows = [scans[i] for i in opens.get(t + 1, ())]
                baton.give(t, _pack(rows) if rows else b"")

            for seg in prime_array_segments(lo, hi, plan, (rank - start)
                                            % ranks, ranks, turn):
                _feed(group, seg)
                del seg
        return done

    reports: list = [None] * len(scans)
    for finished in ring.run(starts[-1], work):
        for i, rep in finished:
            reports[i] = rep
    return [rep if rep is not None else s.finish()
            for s, rep in zip(scans, reports)]


def _pack(rows: list[_RowScan]) -> bytes:
    """The carried state of `rows` as a few flat arrays: their per-class
    arrays, counts, busy times and failures, each laid row after row."""
    per_class: dict[str, list] = {}
    for s in rows:
        for name in s.carried:
            per_class.setdefault(name, []).append(getattr(s, name)[s.classes])
    fails = [f for s in rows for f in s.failures]
    return pickle.dumps((
        {name: np.concatenate(v) for name, v in per_class.items()},
        np.array([(s.scanned, s.proved, len(s.failures)) for s in rows],
                 dtype=np.int64),
        np.array([s.busy for s in rows]),
        np.array([a for a, _ in fails], dtype=np.int64),
        np.array([d for _, d in fails], dtype=np.float64)), protocol=5)


def _load(rows: list[_RowScan], payload: bytes | None) -> None:
    """Set the state of `rows` from `_pack`'s payload (none for no rows);
    RuntimeError unless it holds exactly their state."""
    if not rows and not payload:
        return
    if not payload:
        raise RuntimeError(f"no state came for the {len(rows)} rows open "
                           f"into a turn")
    per_class, counts, busy, residues, deadlines = pickle.loads(payload)
    if len(counts) != len(rows):
        raise RuntimeError(f"the state of {len(counts)} rows came for "
                           f"{len(rows)}")
    fails = list(zip(residues.tolist(), deadlines.tolist()))
    at, f = dict.fromkeys(per_class, 0), 0
    for s, (scanned, proved, n_fail), b in zip(rows, counts.tolist(),
                                              busy.tolist()):
        k = s.classes.size
        for name in s.carried:
            getattr(s, name)[s.classes] = per_class[name][at[name]:
                                                          at[name] + k]
            at[name] += k
        s.scanned, s.proved, s.busy = scanned, proved, b
        s.failures = fails[f:f + n_fail]
        f += n_fail
    if f != len(fails) or any(at[k] != v.size for k, v in per_class.items()):
        raise RuntimeError("the state that came does not fit its rows")


def run_exception_tables(table: str,
                         block: int | None = None) -> list[CheckReport]:
    """Run every row of one exception table (or one of its blocks).

    t5 rows take the every-prime scan, t6 rows the thinned one.  The rows
    share one sieve of the union of their ranges, in table order.
    """
    name = table.lower()
    if name == "t5":
        blocks, scanner = load_table5(), _Scan1
    elif name == "t6":
        blocks, scanner = load_table6(), _ScanSqrt
    else:
        raise ValueError(f"unknown exception table {table!r} (want t5 or t6)")
    if block is not None:
        if not 1 <= block <= len(blocks):
            raise ValueError(
                f"{name} has blocks 1..{len(blocks)}, got {block}")
        picked: tuple[ExceptionBlock, ...] = (blocks[block - 1],)
    else:
        picked = blocks
    return _scan_shared([scanner(b.alpha, b.delta, b.rho, q, lo, hi)
                         for b in picked for (q, lo, hi) in b.rows])
