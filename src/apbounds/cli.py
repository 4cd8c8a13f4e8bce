"""Command-line front end.

Everything the library verifies is reachable from here:

    apbounds verify thm1-at [--q Q] --x X [--sqrt]     (one point; Q = 3)
    apbounds verify thm1-at [--sample-grid N | --full] [--sqrt]     (sweep)
    apbounds verify thm1-tables
    apbounds verify thm2 [--slack S]
    apbounds verify thm2-tables
    apbounds verify thm3 [--sample-grid N]
    apbounds verify corollary [--sample-grid N]
    apbounds verify lemma5          (the two exact table-2 certificates)
    apbounds verify lemma8
    apbounds check t5|t6 [--block B]
    apbounds check custom --q Q --x0 X0 --x X [--params "a,d,r"] [--sqrt]
    apbounds regen-report [--full] [--sample-grid N] --out report.jsonl

Each run produces records (one verified inequality each); with --out they
are written as JSON lines after a commented header, and the process exits
0 iff every record passed.  Every battery hands over `margins.ColumnBlock`s,
the one record type: one per point of an analytic battery, one per
CHUNK_POINTS moduli of a thm1-at sweep and one over all of a check's scans.
A thm1-at sweep and `verify thm3` add a `_Stream`, whose blocks are
evaluated turn by turn as the pass reaches them: a turn is CHUNK_POINTS
moduli of a sweep, or a run of at most CHUNK_POINTS thm3 grid points.  One
pass writes each block's lines straight from its columns (byte for byte the
stdlib encoder's text), tallies its count, worst margin (NaN counts as the
worst) and failed rows per suite, and drops it, so a process holds one
turn's blocks at a time, whatever the range.

Formatting floats is nearly all of a sweep's time, and sieving nearly all
of a check's, so on Linux both run on every usable CPU, on the one ring of
`ring.run`: R = min(usable CPUs, turns) processes take the turns in
rotation.  A stream's rank evaluates and formats its own turns and writes
each one into the report file through the file description they share,
once the rank before it has passed the token (`_Stream.run`); a check's
ranks strike their own sieve blocks and pass its rows' state with the
token (`checkers`).  The children send their results back through pipes,
merged in turn order, so bodies, stdout and exit codes do not depend on R;
`taskset` narrows R for both.  A process that fails makes the run raise (a
nonzero exit, never a PASS), and no process outlives the call.  R = 1 (one
turn, one usable CPU, or no fork) runs the same loop in this process.

The run's config is the parsed command line, checked by `_config`.  A flag
that the chosen target would ignore is a usage error (exit 2), and so is a
value out of range: `--slack` must be finite and >= 0, `--x` finite and > 0
(an integer literal is read exactly), `--q`, `--x0` and `--sample-grid`
at least 1, `--sample-grid` at most 10^6, `--block` a block of the
table, `--params` three finite numbers, and `--x0` at most `--x`, with
every prime of the row at most `sieve.MAX_HI` (about 9.22e18).  A
`verify thm1-at` point needs a window: 0 < phi(q) log q < sqrt(x).
A report file that cannot be opened is a usage error too: `--out` is opened
before any battery runs.  `regen-report --full` includes the sqrt-count
refresh rows that are known to fail (m = 19, 20, 21), so it exits 1 by
design; the default battery is all-green.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import sys
from itertools import accumulate

import numpy as np

from . import ring
from .checkers import check1, check_sqrt, row_top, run_exception_tables
from .majorant import verify_constants, verify_majorant, verify_tail_sign
from .margins import (CHUNK_POINTS, DEFAULT_SLACK, BoundColumn, ColumnBlock,
                      worst_margin)
# perfbench's traced run rebinds BoundEval here to count evaluations, so the
# name stays bound in this module
from .margins import BoundEval  # noqa: F401
# perfbench's traced run rebinds phi_table here as the sieve layer's entry
# point, so the name stays bound in this module
from .sieve import phi_table  # noqa: F401
from .tables import (load_table4, load_table5, load_table6, load_table7,
                     load_table8)
from .thm1 import (h1, hsqrt, totients, verify_thm1_at, verify_thm1_largeq,
                   window_operands, x0_of)
from .thm23 import (THM3_STARTS, corollary_default_n, verify_corollary,
                    verify_thm2_at, verify_thm2_largeq, verify_thm3)

# The one exception to DEFAULT_SLACK: the q = 11 plain rho = 100 anchor's
# inv_T margin is 1.32e-10, below the generic 1e-9 guard, so the family
# gets a tighter default (see verify thm2 --slack).  It goes once the
# anchors are judged on enclosures instead of a relative slack.
THM2_SLACK = 1e-12

_VERIFY_TARGETS = ("thm1-at", "thm1-tables", "thm2", "thm2-tables",
                   "thm3", "corollary", "lemma5", "lemma8")
_CHECK_TARGETS = ("t5", "t6", "custom")
DEFAULT_PARAMS = "0.5,1,30"
# The widest grid range, thm3's first-claim grid up to 1e6, holds fewer
# integers, and `_grid` builds all of its points before deduplicating them.
MAX_SAMPLE_GRID = 10**6

# Where each flag means something: command -> targets (None for
# regen-report, which has none).  A flag set anywhere else would be
# ignored, so _config() rejects it as a usage error.
_FLAG_SCOPE = {
    "q": {"verify": ("thm1-at",), "check": ("custom",)},
    "x": {"verify": ("thm1-at",), "check": ("custom",)},
    "x0": {"check": ("custom",)},
    "params": {"check": ("custom",)},
    "sqrt": {"verify": ("thm1-at",), "check": ("custom",)},
    "block": {"check": ("t5", "t6")},
    # regen-report hands both on to thm3 and corollary (--full also adds
    # lemma5 and thm2-tables)
    "sample_grid": {"verify": ("thm1-at", "thm3", "corollary"),
                    "regen-report": (None,)},
    "full": {"verify": ("thm1-at",), "regen-report": (None,)},
    # lemma5's certificates and the check scans are exact, so they have no
    # slack to set (regen-report --full runs lemma5 with its fixed pass rule)
    "slack": {"verify": tuple(t for t in _VERIFY_TARGETS if t != "lemma5"),
              "regen-report": (None,)},
}


# ---------------------------------------------------------------- records

def _grid(lo: float, hi: float, n: int, skip=()) -> np.ndarray:
    """n geometric points of [lo, hi] rounded half to even, increasing and
    distinct, less `skip`.  The rounded points never decrease, so a repeat
    is its left neighbour's (np.unique costs 1 MB resident: numpy.ma)."""
    pts = np.rint(np.geomspace(lo, hi, n)).astype(np.int64)
    new = np.diff(pts, prepend=lo - 1) != 0
    return pts[new & ~np.isin(pts, list(skip))]


def _points(grid):
    """The grid's integers as Python ints (np.int64 does not JSON-encode),
    made CHUNK_POINTS at a time."""
    for lo in range(0, len(grid), CHUNK_POINTS):
        yield from grid[lo:lo + CHUNK_POINTS].tolist()


def _int_or_float(tok: str) -> int | float:
    """--x: an integer literal stays exact, so a scan end past 2^53 is not
    rounded; anything else is a float."""
    try:
        return int(tok)
    except ValueError:
        return float(tok)


def _window_params(text: str) -> tuple[float, float, float]:
    """Finite (alpha, delta, rho) from "a,d,r", else ValueError."""
    alpha, delta, rho = (float(t) for t in text.split(","))
    if not all(map(math.isfinite, (alpha, delta, rho))):
        raise ValueError(f"non-finite window parameter in {text!r}")
    return alpha, delta, rho


def _slack(cfg: argparse.Namespace, default: float = DEFAULT_SLACK) -> float:
    return cfg.slack if cfg.slack is not None else default


# ---------------------------------------------------------------- batteries

class _Stream:
    """A battery's blocks, evaluated turn by turn as the pass reaches them.

    `turns` is a sequence, and `evaluate(turn)` yields that turn's
    ColumnBlocks in report order, so a process holds one turn's blocks at
    a time.  `len` is the number of records, which the battery knows
    before the pass (the report header states it).  `run` takes the turns
    on every usable CPU.
    """

    def __init__(self, n_records: int, turns, evaluate) -> None:
        self._n_records, self.turns, self.evaluate = n_records, turns, evaluate

    def __len__(self) -> int:
        return self._n_records

    def _take(self, fh, rank: int, ranks: int, baton: ring.Baton):
        """Take turns rank, rank + ranks, ... in order; yield each one's
        tally (see `_tally`).

        A turn's lines are built as a list first.  The rank then waits for
        the token of the turn (`ring.Baton`), writes and flushes the lines
        into the file description every rank shares, and passes the token
        on, so the turns reach the file in order.
        """
        n = len(self.turns)
        for t in range(rank, n, ranks):
            tally, lines = {}, []
            for block in self.evaluate(self.turns[t]):
                if fh is not None:
                    lines += block.lines()
                _tally(tally, block)
            baton.take(t)
            if fh is not None:
                fh.writelines(lines)
                fh.flush()
            baton.give(t)
            yield tally

    def run(self, fh) -> list[dict]:
        """Each turn's tally in turn order, with the turns' lines written to
        `fh` (None: no report) in turn order, by the processes of a
        `ring.run`: with R > 1 the forked ranks write through the file
        description they share, and each sends its tallies back to this
        process; a rank that fails makes this raise.
        """
        if fh is not None:  # nothing buffered may be written twice
            fh.flush()
        return ring.run(len(self.turns),
                        lambda rank, ranks, baton:
                        self._take(fh, rank, ranks, baton))


def _battery_thm1_at(cfg: argparse.Namespace, recs: list) -> None:
    p1 = load_table4()[0]
    slack = _slack(cfg)
    suite = "verify:thm1-at"
    if cfg.x is not None:
        # one point, with a scalar modulus: factored, so any --q is fine
        q = cfg.q if cfg.q is not None else 3
        x = float(cfg.x)
        inputs = {"q": q, "x": x, "sqrt": cfg.sqrt}
        recs.append(ColumnBlock(suite, verify_thm1_at(
            q, x, p1, sqrt_mode=cfg.sqrt, slack=slack), inputs))
        return
    # Sweep mode: every modulus outside the finite exception table, checked
    # at its reference scale x0(q).  --full walks the whole certified range
    # (up to the all-moduli threshold q0 for the plain window); otherwise a
    # geometric subsample of --sample-grid points (default 200).  One turn
    # is CHUNK_POINTS moduli: one columnar call, whose columns become one
    # ColumnBlock; no whole-range list is built.
    blocks = load_table6() if cfg.sqrt else load_table5()
    skip = sorted({q for q, _, _ in blocks[0].rows})
    q_top = 10**5  # the sqrt sweep's and every sample grid's top modulus
    if cfg.full:
        qs = range(3, (q_top if cfg.sqrt else p1.q0) + 1)
        n_points = len(qs) - sum(q in qs for q in skip)
    else:
        qs = _grid(3, q_top, cfg.sample_grid or 200, skip)
        n_points = len(qs)
    if not n_points:  # a grid of one point is q = 3, an exception-table row
        return

    def evaluate(lo):
        q = np.array(qs[lo:lo + CHUNK_POINTS], dtype=np.int64)
        q = q[~np.isin(q, skip)]
        phi = totients(q)  # once a chunk, for x0 and the check
        x = x0_of(p1, q, cfg.sqrt, phi=phi)
        cols = verify_thm1_at(q, x, p1, sqrt_mode=cfg.sqrt, slack=slack,
                              phi=phi)
        yield ColumnBlock(suite, cols, {"q": q.tolist(), "x": x.tolist(),
                                        "sqrt": cfg.sqrt})

    # every point has as many rows as one point has checks, so the count is
    # known before the pass that evaluates them
    q = int(next(q for q in qs if q not in skip))
    per_point = len(verify_thm1_at(q, x0_of(p1, q, cfg.sqrt), p1,
                                   sqrt_mode=cfg.sqrt))
    recs.append(_Stream(n_points * per_point,
                        range(0, len(qs), CHUNK_POINTS), evaluate))


def _battery_thm1_tables(cfg: argparse.Namespace, recs: list) -> None:
    slack = _slack(cfg)
    for row in load_table4():
        for sqrt_mode in (False, True):
            q0 = row.q0_sqrt if sqrt_mode else row.q0
            inputs = {"alpha": row.alpha, "delta": row.delta,
                      "rho": row.rho, "q0": q0, "sqrt": sqrt_mode}
            recs.append(ColumnBlock("verify:thm1-tables", verify_thm1_largeq(
                row, sqrt_mode=sqrt_mode, slack=slack), inputs))


def _battery_thm2(cfg: argparse.Namespace, recs: list) -> None:
    t7 = load_table7()
    slack = _slack(cfg, THM2_SLACK)
    for q in t7.plain:  # the anchor moduli; each row gives both modes
        for sqrt_mode in (False, True):
            x0 = (t7.sqrt if sqrt_mode else t7.plain)[q]
            recs.append(ColumnBlock("verify:thm2", verify_thm2_at(
                q, math.log(float(x0)), sqrt_mode=sqrt_mode, slack=slack),
                {"q": q, "x0": x0, "sqrt": sqrt_mode}))


def _battery_thm2_tables(cfg: argparse.Namespace, recs: list) -> None:
    slack = _slack(cfg)
    plain8, sqrt8 = load_table8()
    for sqrt_mode, rows in ((False, plain8), (True, sqrt8)):
        for m, q0 in rows:
            inputs = {"m": int(m), "q0": int(q0), "sqrt": sqrt_mode}
            recs.append(ColumnBlock("verify:thm2-tables", verify_thm2_largeq(
                m, q0, sqrt_mode=sqrt_mode, slack=slack), inputs))


def _battery_thm3(cfg: argparse.Namespace, recs: list) -> None:
    slack = _slack(cfg)
    suite = "verify:thm3"
    # each claim at its start, then each on a grid from its start up
    claims = [(mode, refined, np.array([lo]))
              for mode, starts in THM3_STARTS.items()
              for refined, lo in zip((False, True), starts)]
    n = cfg.sample_grid or 25
    for refined, hi in ((False, 10**6), (True, 1000)):
        for mode, starts in THM3_STARTS.items():
            claims.append((mode, refined, _grid(starts[refined], hi, n)))

    # the claims' grids laid end to end: a turn is the run of at most
    # CHUNK_POINTS points from `lo`, one block per point
    starts = list(accumulate((len(c[2]) for c in claims), initial=0))

    def evaluate(lo):
        for (mode, refined, qs), start in zip(claims, starts):
            part = qs[max(lo - start, 0):max(lo + CHUNK_POINTS - start, 0)]
            for q in part.tolist():
                yield ColumnBlock(suite, verify_thm3(
                    q, mode=mode, refined=refined, slack=slack),
                    {"q": q, "mode": mode, "refined": refined})

    # every point has as many rows as the first, so the count is known
    # before the pass that evaluates them
    mode, refined, qs = claims[0]
    per_point = len(verify_thm3(int(qs[0]), mode=mode, refined=refined))
    recs.append(_Stream(per_point * starts[-1],
                        range(0, starts[-1], CHUNK_POINTS), evaluate))


def _battery_corollary(cfg: argparse.Namespace, recs: list) -> None:
    slack = _slack(cfg)
    for q in _points(_grid(3, 10**4, cfg.sample_grid or 25)):
        n = corollary_default_n(q)
        recs.append(ColumnBlock("verify:corollary",
                                verify_corollary(q, n, slack=slack),
                                {"q": q, "n": n}))


def _battery_lemma5(cfg: argparse.Namespace, recs: list) -> None:
    recs.append(ColumnBlock("verify:lemma5", [verify_majorant()],
                            {"g_dominated_to": 5}))
    recs.append(ColumnBlock("verify:lemma5", [verify_tail_sign()],
                            {"n_min": 2, "n_positive": 4}))


def _battery_lemma8(cfg: argparse.Namespace, recs: list) -> None:
    recs.append(ColumnBlock("verify:lemma8",
                            verify_constants(slack=_slack(cfg)), {}))


_BATTERIES = {
    "thm1-at": _battery_thm1_at,
    "thm1-tables": _battery_thm1_tables,
    "thm2": _battery_thm2,
    "thm2-tables": _battery_thm2_tables,
    "thm3": _battery_thm3,
    "corollary": _battery_corollary,
    "lemma5": _battery_lemma5,
    "lemma8": _battery_lemma8,
}


# ---------------------------------------------------------------- check

def _run_check(cfg: argparse.Namespace, recs: list) -> None:
    if cfg.target in ("t5", "t6"):
        suite = f"check:{cfg.target}"
        reports = run_exception_tables(cfg.target, block=cfg.block)
    else:
        suite = "check:custom"
        scan = check_sqrt if cfg.sqrt else check1
        reports = [scan(*cfg.params, cfg.q, cfg.x0, int(cfg.x))]
    for rep in reports:
        # wall_time goes to stdout only: records must be reproducible
        print(f"[{suite}] q={rep.q} [{rep.x0}, {rep.x_end}] {rep.mode}: "
              f"{len(rep.failures)} failures over {rep.primes_scanned} "
              f"primes ({rep.primes_proved} by block proof) in "
              f"{rep.wall_time:.2f}s")
    # an exact count, negated as a float (no failure reads -0.0): the
    # default slack cannot move its verdict
    failures = np.array([len(rep.failures) for rep in reports], dtype=float)
    inputs = {k: [getattr(rep, k) for rep in reports]
              for k in ("q", "x0", "x_end", "mode", "primes_scanned")}
    recs.append(ColumnBlock(suite, [BoundColumn("coverage", -failures, -0.5)],
                            inputs))


# ---------------------------------------------------------------- report

_REPORT_DEFAULT = ("thm1-tables", "thm2", "thm3", "corollary", "lemma8")
_REPORT_FULL_EXTRA = ("lemma5", "thm2-tables")


def _run_report(cfg: argparse.Namespace, recs: list) -> None:
    targets = _REPORT_DEFAULT + (_REPORT_FULL_EXTRA if cfg.full else ())
    for target in targets:
        _BATTERIES[target](cfg, recs)


# ---------------------------------------------------------------- driver

def _add(suites: dict, suite: str, checks: int, worst: float,
         fails) -> None:
    tally = suites.setdefault(suite, [0, math.inf, []])
    tally[0] += checks
    tally[1] = worst_margin((tally[1], worst))
    tally[2] += fails


def _tally(suites: dict, block: ColumnBlock) -> None:
    """Add `block` to `suites`, suite -> [checks, worst margin (NaN counts
    as the worst), failed rows], in report order."""
    if len(block):
        _add(suites, block.suite, len(block), block.worst_margin,
             block.records(failed_only=True))


def _written(fh, cfg: argparse.Namespace, records: list) -> dict:
    """One pass over `records` in report order: with a report file `fh`,
    write its header and each block's lines; tally each block (see
    `_tally`) and drop it.  A stream runs its turns through `_Stream.run`.
    The pass takes each item out of `records`, so it holds no block (and
    no sides that block read) it has moved past.  Returns the tallies."""
    if fh is not None:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        fh.write(f"# apbounds {cfg.command}"
                 f"{' ' + cfg.target if cfg.target else ''} report\n")
        fh.write(f"# generated: {stamp}\n")
        fh.write(f"# records: {sum(map(len, records))}\n")
    suites: dict = {}
    records.reverse()
    while records:
        rec = records.pop()
        if isinstance(rec, _Stream):
            for turn in rec.run(fh):
                for suite, tally in turn.items():
                    _add(suites, suite, *tally)
        else:
            if fh is not None:
                fh.writelines(rec.lines())
            _tally(suites, rec)
    return suites


def _print_summary(suites: dict) -> tuple[int, int]:
    """One line per suite of the tallies and one per failed record; returns
    the number of checks and of failed checks."""
    for suite, (checks, worst, fails) in suites.items():
        verdict = "PASS" if not fails else "FAIL"
        print(f"[{suite}] {verdict}: {checks} checks, "
              f"{len(fails)} failed, worst margin {worst:.6e}")
        for r in fails:
            print(f"    FAIL {r['name']} inputs={r['inputs']} "
                  f"lhs={r['lhs']:.9e} rhs={r['rhs']:.9e}")
    return (sum(t[0] for t in suites.values()),
            sum(len(t[2]) for t in suites.values()))


def dispatch(cfg: argparse.Namespace) -> int:
    # the report file is opened before any battery runs: a path that cannot
    # be written is a usage error, not a failed run.  Its text layer is made
    # after the batteries: made before a scan, it left the process's peak
    # RSS 0.3 MB higher (measured; the cause was not traced).
    try:
        fd = os.open(cfg.out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666) \
            if cfg.out else None
    except OSError as exc:
        _parser().error(f"--out {cfg.out}: {exc.strerror}")
    fh = None
    try:
        records: list = []  # ColumnBlocks and streams, in report order
        if cfg.command == "verify":
            _BATTERIES[cfg.target](cfg, records)
        elif cfg.command == "check":
            _run_check(cfg, records)
        else:  # regen-report: _config's parser allows no other command
            _run_report(cfg, records)
        if fd is not None:
            fh = open(fd, "w", encoding="utf-8")
        # one pass: each block is written (with --out), tallied and
        # dropped, so a process holds one turn's blocks at a time
        checks, failed = _print_summary(_written(fh, cfg, records))
    finally:
        if fh is not None:
            fh.close()
        elif fd is not None:
            os.close(fd)
    print(f"total: {checks} checks, {failed} failed")
    return 0 if not failed else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, help="modulus")
    p.add_argument("--x", type=_int_or_float,
                   help="evaluation point / scan end")
    p.add_argument("--x0", type=int, help="scan start")
    p.add_argument("--params",
                   help='check custom: window parameters "alpha,delta,rho" '
                        f'(default "{DEFAULT_PARAMS}")')
    p.add_argument("--sqrt", action="store_true",
                   help="verify thm1-at | check custom: square-root-count "
                        "variant")
    p.add_argument("--block", type=int,
                   help="check t5|t6: restrict the scan to one parameter block")
    p.add_argument("--out", help="write JSONL records here")
    p.add_argument("--slack", type=float,
                   help="override the relative pass threshold")
    p.add_argument("--sample-grid", dest="sample_grid", type=int,
                   help="geometric subsample size for sweep batteries")
    p.add_argument("--full", action="store_true",
                   help="exhaustive sweep / include lemma5 and failing suites")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="apbounds",
        description="verification batteries for explicit prime-counting "
                    "window bounds in arithmetic progressions")
    sub = ap.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify", help="run one verification battery")
    pv.add_argument("target", choices=_VERIFY_TARGETS)
    _add_common(pv)
    pc = sub.add_parser("check", help="scan prime gaps against the window")
    pc.add_argument("target", choices=_CHECK_TARGETS)
    _add_common(pc)
    pr = sub.add_parser("regen-report",
                        help="run the standard batteries, write JSONL "
                             "(--full adds lemma5 and the thm2 refresh "
                             "rows, which contain known failures)")
    _add_common(pr)
    return ap


def _scope_text(scope: dict) -> str:
    return " and ".join(command if targets == (None,)
                        else f"{command} {'|'.join(targets)}"
                        for command, targets in scope.items())


def _config(argv=None) -> argparse.Namespace:
    """The checked command line, with `target` (None for regen-report),
    `params` parsed into (alpha, delta, rho) from --params or
    DEFAULT_PARAMS.  Any usage error exits 2 here."""
    ap = _parser()
    ns = ap.parse_args(argv)
    ns.target = target = getattr(ns, "target", None)
    for flag, scope in _FLAG_SCOPE.items():
        value = getattr(ns, flag)
        if value is not None and value is not False \
                and target not in scope.get(ns.command, ()):
            ap.error(f"--{flag.replace('_', '-')} only applies to "
                     f"{_scope_text(scope)}")
    for flag in ("q", "x0", "sample_grid"):
        value = getattr(ns, flag)
        if value is not None and value < 1:
            ap.error(f"--{flag.replace('_', '-')} must be at least 1, "
                     f"got {value}")
    if ns.sample_grid is not None and ns.sample_grid > MAX_SAMPLE_GRID:
        ap.error(f"--sample-grid must be at most {MAX_SAMPLE_GRID}, "
                 f"got {ns.sample_grid}")
    if ns.slack is not None and not 0.0 <= ns.slack < math.inf:  # NaN too
        ap.error(f"--slack must be a finite number >= 0, got {ns.slack}")
    # an integer --x is exact, so it is bounded by the largest float
    if ns.x is not None and not 0.0 < ns.x <= sys.float_info.max:  # NaN too
        ap.error(f"--x must be a finite number > 0, got {ns.x}")
    if ns.block is not None:
        n_blocks = len(load_table5() if target == "t5" else load_table6())
        if not 1 <= ns.block <= n_blocks:
            ap.error(f"--block: {target} has blocks 1..{n_blocks}, "
                     f"got {ns.block}")
    text = DEFAULT_PARAMS if ns.params is None else ns.params
    try:
        ns.params = _window_params(text)
    except ValueError:
        ap.error(f'--params takes three numbers "alpha,delta,rho", '
                 f'all finite, got {text!r}')
    if (ns.command, target) == ("check", "custom"):
        if None in (ns.q, ns.x0, ns.x):
            ap.error("check custom needs --q, --x0 and --x")
        if ns.x0 > ns.x:
            ap.error(f"check custom: --x0 {ns.x0} lies past --x {ns.x:g}")
        try:
            row_top(hsqrt if ns.sqrt else h1, *ns.params, ns.q, ns.x0,
                    int(ns.x))
        except ValueError as exc:
            ap.error(f"check custom: {exc}")
    if (ns.command, target) == ("verify", "thm1-at"):
        if ns.x is None and ns.q is not None:
            ap.error("verify thm1-at: --q needs --x (one point)")
        if ns.x is not None and (ns.full or ns.sample_grid is not None):
            ap.error("verify thm1-at: --x checks one point; "
                     "--full and --sample-grid choose a sweep")
        if ns.full and ns.sample_grid is not None:
            ap.error("verify thm1-at: --full and --sample-grid "
                     "exclude each other")
        if ns.x is not None:
            try:
                window_operands(3 if ns.q is None else ns.q, ns.x)
            except ValueError as exc:
                ap.error(f"verify thm1-at: a point {exc}")
    return ns


def main(argv=None) -> int:
    return dispatch(_config(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
