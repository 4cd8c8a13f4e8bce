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
    apbounds check t5|t6 [--block B] [--jobs J]   (J >= 1 groups of rows)
    apbounds check custom --q Q --x0 X0 --x X [--params "a,d,r"] [--sqrt]
    apbounds regen-report [--full] [--sample-grid N] --out report.jsonl

Each run produces a list of records (one verified inequality each); with
--out they are written as JSON lines after a commented header, and the
process exits 0 iff every record passed.  A record is a dict row
(`BoundEval.record`), except that a thm1-at sweep and `verify thm3` each
add one `_Stream`, whose records are evaluated as the pass reaches them.
A sweep's moduli go CHUNK_POINTS at a time through one columnar call each,
and each chunk's rows come out as one `margins.ColumnBlock`; thm3 yields
its dict rows point by point.  The writer encodes a block's lines straight
from its columns, byte for byte what the stdlib encoder writes for the
dict rows, and hands the file one point's lines at a time (the file's own
buffer joins them); each block builds its own line template.  The stdout
summary takes its counts and worst margin from numpy (a NaN margin counts
as the worst).  One pass over the records writes and tallies each row or
block and then drops it, so a sweep holds one chunk's columns at a time,
whatever its range; the `# records:` header comes from each stream's
point count.

The run's config is the parsed command line, checked by `_config`.  A flag
that the chosen target would ignore is a usage error (exit 2), and so is a
value out of range: `--slack` must be finite and >= 0, `--x` finite and > 0
(an integer literal is read exactly), `--q`, `--x0`, `--sample-grid` and
`--jobs` at least 1, `--sample-grid` at most 10^6, `--block` a block of the
table, `--params` three finite numbers, and `--x0` at most `--x`, with
every prime of the row at most `sieve.MAX_HI` (about 9.22e18).  A
`verify thm1-at` point needs a window: 0 < phi(q) log q < sqrt(x).
`regen-report --full` includes the sqrt-count refresh rows that are known
to fail (m = 19, 20, 21), so it exits 1 by design; the default battery is
all-green.
"""

from __future__ import annotations

import argparse
import datetime
import math
import sys

import numpy as np

from .checkers import check1, check_sqrt, row_top, run_exception_tables
from .majorant import verify_constants, verify_majorant, verify_tail_sign
from .margins import (CHUNK_POINTS, DEFAULT_SLACK, BoundEval, ColumnBlock,
                      _encode, worst_margin)
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
    "jobs": {"check": ("t5", "t6")},
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

def _grid(lo: float, hi: float, n: int, skip=()) -> list[int]:
    pts = {int(round(g)) for g in np.geomspace(lo, hi, n)}
    return sorted(pts - set(skip))


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
    """A battery's records, each evaluated when a pass reaches it.

    `rows()` starts a pass: it yields the dict rows or ColumnBlocks in
    report order, so a pass holds one point's rows or one chunk's columns
    at a time.  `len` is the number of records, which the battery knows
    before any pass (the report header states it).
    """

    def __init__(self, n_records: int, rows) -> None:
        self._n_records, self._rows = n_records, rows

    def __len__(self) -> int:
        return self._n_records

    def __iter__(self):
        return iter(self._rows())


def _battery_thm1_at(cfg: argparse.Namespace, recs: list) -> None:
    p1 = load_table4()[0]
    slack = _slack(cfg)
    suite = "verify:thm1-at"
    if cfg.x is not None:
        # one point, with a scalar modulus: factored, so any --q is fine
        q = cfg.q if cfg.q is not None else 3
        x = float(cfg.x)
        inputs = {"q": q, "x": x, "sqrt": cfg.sqrt}
        recs.extend(ev.record(suite, inputs) for ev in
                    verify_thm1_at(q, x, p1, sqrt_mode=cfg.sqrt, slack=slack))
        return
    # Sweep mode: every modulus outside the finite exception table, checked
    # at its reference scale x0(q).  --full walks the whole certified range
    # (up to the all-moduli threshold q0 for the plain window); otherwise a
    # geometric subsample of --sample-grid points (default 200).  The moduli
    # go through CHUNK_POINTS at a time, one columnar call per chunk whose
    # columns become one ColumnBlock; no whole-range list is built.
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

    def moduli():
        for lo in range(0, len(qs), CHUNK_POINTS):
            q = np.array(qs[lo:lo + CHUNK_POINTS], dtype=np.int64)
            yield q[~np.isin(q, skip)]

    def evaluate(q):
        phi = totients(q)  # once a chunk, for x0 and the check
        x = x0_of(p1, q, cfg.sqrt, phi=phi)
        cols = verify_thm1_at(q, x, p1, sqrt_mode=cfg.sqrt, slack=slack,
                              phi=phi)
        return ColumnBlock(suite, cols, {"q": q.tolist(), "x": x.tolist(),
                                         "sqrt": cfg.sqrt})

    def blocks():
        chunks = moduli()
        next(chunks)
        yield first
        yield from map(evaluate, chunks)

    # the first block is evaluated up front: its columns are the rows of
    # every point
    first = evaluate(next(moduli()))
    recs.append(_Stream(n_points * len(first.columns), blocks))


def _battery_thm1_tables(cfg: argparse.Namespace, recs: list[dict]) -> None:
    slack = _slack(cfg)
    for row in load_table4():
        for sqrt_mode in (False, True):
            q0 = row.q0_sqrt if sqrt_mode else row.q0
            inputs = {"alpha": row.alpha, "delta": row.delta,
                      "rho": row.rho, "q0": q0, "sqrt": sqrt_mode}
            for ev in verify_thm1_largeq(row, sqrt_mode=sqrt_mode,
                                         slack=slack):
                recs.append(ev.record("verify:thm1-tables", inputs))


def _battery_thm2(cfg: argparse.Namespace, recs: list[dict]) -> None:
    t7 = load_table7()
    slack = _slack(cfg, THM2_SLACK)
    for q in t7.plain:  # the anchor moduli; each row gives both modes
        for sqrt_mode in (False, True):
            x0 = (t7.sqrt if sqrt_mode else t7.plain)[q]
            for ev in verify_thm2_at(q, math.log(float(x0)),
                                     sqrt_mode=sqrt_mode, slack=slack):
                recs.append(ev.record("verify:thm2",
                                      {"q": q, "x0": x0, "sqrt": sqrt_mode}))


def _battery_thm2_tables(cfg: argparse.Namespace, recs: list[dict]) -> None:
    slack = _slack(cfg)
    plain8, sqrt8 = load_table8()
    for sqrt_mode, rows in ((False, plain8), (True, sqrt8)):
        for m, q0 in rows:
            inputs = {"m": int(m), "q0": int(q0), "sqrt": sqrt_mode}
            for ev in verify_thm2_largeq(m, q0, sqrt_mode=sqrt_mode,
                                         slack=slack):
                recs.append(ev.record("verify:thm2-tables", inputs))


def _battery_thm3(cfg: argparse.Namespace, recs: list) -> None:
    slack = _slack(cfg)
    suite = "verify:thm3"
    # each claim at its start, then each on a grid from its start up
    claims = [(mode, refined, [lo]) for mode, starts in THM3_STARTS.items()
              for refined, lo in zip((False, True), starts)]
    n = cfg.sample_grid or 25
    for refined, hi in ((False, 10**6), (True, 1000)):
        for mode, starts in THM3_STARTS.items():
            claims.append((mode, refined, _grid(starts[refined], hi, n)))

    def rows():
        for mode, refined, qs in claims:
            for q in qs:
                inputs = {"q": q, "mode": mode, "refined": refined}
                for ev in verify_thm3(q, mode=mode, refined=refined,
                                      slack=slack):
                    yield ev.record(suite, inputs)

    # every point has as many rows as the first, so the count is known
    # before the pass that evaluates them
    mode, refined, qs = claims[0]
    per_point = len(verify_thm3(qs[0], mode=mode, refined=refined))
    recs.append(_Stream(per_point * sum(len(c[2]) for c in claims), rows))


def _battery_corollary(cfg: argparse.Namespace, recs: list[dict]) -> None:
    slack = _slack(cfg)
    for q in _grid(3, 10**4, cfg.sample_grid or 25):
        n = corollary_default_n(q)
        for ev in verify_corollary(q, n, slack=slack):
            recs.append(ev.record("verify:corollary", {"q": q, "n": n}))


def _battery_lemma5(cfg: argparse.Namespace, recs: list[dict]) -> None:
    ev = verify_majorant()
    recs.append(ev.record("verify:lemma5", {"g_dominated_to": 5}))
    ev = verify_tail_sign()
    recs.append(ev.record("verify:lemma5", {"n_min": 2, "n_positive": 4}))


def _battery_lemma8(cfg: argparse.Namespace, recs: list[dict]) -> None:
    for ev in verify_constants(slack=_slack(cfg)):
        recs.append(ev.record("verify:lemma8", {}))


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

def _run_check(cfg: argparse.Namespace, recs: list[dict]) -> None:
    if cfg.target in ("t5", "t6"):
        suite = f"check:{cfg.target}"
        reports = run_exception_tables(cfg.target, block=cfg.block,
                                       jobs=cfg.jobs)
    else:
        suite = "check:custom"
        scan = check_sqrt if cfg.sqrt else check1
        reports = [scan(*cfg.params, cfg.q, cfg.x0, int(cfg.x))]
    for rep in reports:
        # an exact count: the default slack cannot move its verdict
        ev = BoundEval("coverage", -float(len(rep.failures)), -0.5)
        inputs = {"q": rep.q, "x0": rep.x0, "x_end": rep.x_end,
                  "mode": rep.mode, "primes_scanned": rep.primes_scanned}
        recs.append(ev.record(suite, inputs))
        # wall_time goes to stdout only: records must be reproducible
        print(f"[{suite}] q={rep.q} [{rep.x0}, {rep.x_end}] {rep.mode}: "
              f"{len(rep.failures)} failures over {rep.primes_scanned} "
              f"primes ({rep.primes_proved} by block proof) in "
              f"{rep.wall_time:.2f}s")


# ---------------------------------------------------------------- report

_REPORT_DEFAULT = ("thm1-tables", "thm2", "thm3", "corollary", "lemma8")
_REPORT_FULL_EXTRA = ("lemma5", "thm2-tables")


def _run_report(cfg: argparse.Namespace, recs: list[dict]) -> None:
    targets = _REPORT_DEFAULT + (_REPORT_FULL_EXTRA if cfg.full else ())
    for target in targets:
        _BATTERIES[target](cfg, recs)


# ---------------------------------------------------------------- driver

def _size(rec) -> int:
    """How many records a dict row, a ColumnBlock or a stream stands for."""
    return 1 if isinstance(rec, dict) else len(rec)


def _rows(records: list):
    """The dict rows and ColumnBlocks of `records` in report order, a
    stream's one by one as each is evaluated."""
    for rec in records:
        if isinstance(rec, _Stream):
            yield from rec
        else:
            yield rec


def _written(fh, cfg: argparse.Namespace, records: list):
    """Write the report header to `fh`, then yield each dict row and
    ColumnBlock of `records` (as `_rows` does) once its lines are written."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    fh.write(f"# apbounds {cfg.command}"
             f"{' ' + cfg.target if cfg.target else ''} report\n")
    fh.write(f"# generated: {stamp}\n")
    fh.write(f"# records: {sum(_size(r) for r in records)}\n")
    for rec in _rows(records):
        if isinstance(rec, ColumnBlock):
            fh.writelines(rec.lines())
        else:
            fh.write(_encode(rec) + "\n")
        yield rec


def _print_summary(records) -> tuple[int, int]:
    """One line per suite and one per failed record; returns the number of
    checks and of failed checks.  One pass over `records`, which may be a
    generator; a sweep is tallied block by block as each is evaluated."""
    suites: dict[str, list] = {}  # suite -> [checks, worst margins, fails]
    for rec in _rows(records):
        if isinstance(rec, ColumnBlock):
            if not len(rec):
                continue
            suite, worst = rec.suite, rec.worst_margin
            fails = list(rec.records(failed_only=True))
        else:
            suite, worst = rec["suite"], rec["margin"]
            fails = [] if rec["pass"] else [rec]
        tally = suites.setdefault(suite, [0, [], []])
        tally[0] += _size(rec)
        tally[1].append(worst)
        tally[2] += fails
    for suite, (checks, worsts, fails) in suites.items():
        verdict = "PASS" if not fails else "FAIL"
        print(f"[{suite}] {verdict}: {checks} checks, "
              f"{len(fails)} failed, worst margin {worst_margin(worsts):.6e}")
        for r in fails:
            print(f"    FAIL {r['name']} inputs={r['inputs']} "
                  f"lhs={r['lhs']:.9e} rhs={r['rhs']:.9e}")
    return (sum(t[0] for t in suites.values()),
            sum(len(t[2]) for t in suites.values()))


def dispatch(cfg: argparse.Namespace) -> int:
    records: list = []  # dict rows, ColumnBlocks and streams, in report order
    if cfg.command == "verify":
        _BATTERIES[cfg.target](cfg, records)
    elif cfg.command == "check":
        _run_check(cfg, records)
    else:  # regen-report: _config's parser allows no other command
        _run_report(cfg, records)
    # one pass: each row or block is written (with --out), tallied and
    # dropped, so a sweep holds one chunk's columns at a time
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            checks, failed = _print_summary(_written(fh, cfg, records))
    else:
        checks, failed = _print_summary(records)
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
    p.add_argument("--jobs", type=int,
                   help="check t5|t6: worker processes, each scanning one "
                        "group of rows off its own shared sieve (default 1)")
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
    DEFAULT_PARAMS, and `jobs` 1 unless --jobs is given.  Any usage error
    exits 2 here."""
    ap = _parser()
    ns = ap.parse_args(argv)
    ns.target = target = getattr(ns, "target", None)
    for flag, scope in _FLAG_SCOPE.items():
        value = getattr(ns, flag)
        if value is not None and value is not False \
                and target not in scope.get(ns.command, ()):
            ap.error(f"--{flag.replace('_', '-')} only applies to "
                     f"{_scope_text(scope)}")
    for flag in ("q", "x0", "jobs", "sample_grid"):
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
    ns.jobs = ns.jobs or 1
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
