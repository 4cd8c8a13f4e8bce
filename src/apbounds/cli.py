"""Command-line front end.

Everything the library verifies is reachable from here:

    apbounds verify thm1-at [--q Q --x X] [--sqrt] [--sample-grid N | --full]
    apbounds verify thm1-tables
    apbounds verify thm2 [--slack S]
    apbounds verify thm2-tables
    apbounds verify thm3 [--sample-grid N]
    apbounds verify corollary [--sample-grid N]
    apbounds verify lemma5          (exact polynomial certificate + sweep)
    apbounds verify lemma8
    apbounds check t5|t6 [--block B] [--jobs J]   (J >= 1 groups of rows)
    apbounds check custom --q Q --x0 X0 --x X [--params "a,d,r"] [--sqrt]
    apbounds regen-report [--full] --out report.jsonl

Each run produces a list of records (one verified inequality each); with
--out they are written as JSON lines after a commented header, and the
process exits 0 iff every record passed.  `regen-report --full` includes
the sqrt-count refresh rows that are known to fail (m = 19, 20, 21), so
it exits 1 by design; the default battery is all-green.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .checkers import check1, check_sqrt, run_exception_tables
from .majorant import verify_constants, verify_majorant
from .margins import DEFAULT_SLACK, BoundEval
from .sieve import phi_table
from .tables import (load_table4, load_table5, load_table6, load_table7,
                     load_table8)
from .thm1 import verify_thm1_at, verify_thm1_largeq, x0_of
from .thm23 import (corollary_default_n, verify_corollary, verify_thm2_at,
                    verify_thm2_largeq, verify_thm3)

# The rho=100 anchor margins sit just above 1e-10, so the family gets a
# tighter default slack than the generic 1e-9 (see verify thm2 --slack).
THM2_SLACK = 1e-12

_VERIFY_TARGETS = ("thm1-at", "thm1-tables", "thm2", "thm2-tables",
                   "thm3", "corollary", "lemma5", "lemma8")
_CHECK_TARGETS = ("t5", "t6", "custom")


@dataclass
class RunConfig:
    """Parsed invocation; constructible directly for programmatic use."""

    command: str
    target: str | None = None
    q: int | None = None
    x: float | None = None
    x0: int | None = None
    params: str = "0.5,1,30"
    sqrt: bool = False
    block: int | None = None
    jobs: int = 1
    out: str | None = None
    slack: float | None = None
    sample_grid: int | None = None
    full: bool = False


# ---------------------------------------------------------------- records

def _py(v):
    """JSON-safe scalar (numpy types don't serialize)."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


def _record(ev: BoundEval, suite: str, inputs: dict) -> dict:
    rec = ev.record(suite, {k: _py(v) for k, v in inputs.items()})
    rec["lhs"] = float(rec["lhs"])
    rec["rhs"] = float(rec["rhs"])
    rec["margin"] = float(rec["margin"])
    rec["pass"] = bool(rec["pass"])
    return rec


def _grid(lo: float, hi: float, n: int, skip=()) -> list[int]:
    pts = {int(round(g)) for g in np.geomspace(lo, hi, n)}
    return sorted(pts - set(skip))


def _slack(cfg: RunConfig, default: float = DEFAULT_SLACK) -> float:
    return cfg.slack if cfg.slack is not None else default


# ---------------------------------------------------------------- batteries

def _battery_thm1_at(cfg: RunConfig, recs: list[dict]) -> None:
    p1 = load_table4()[0]
    slack = _slack(cfg)
    suite = "verify:thm1-at"
    if cfg.x is not None:
        q = cfg.q if cfg.q is not None else 3
        x = float(cfg.x)
        for ev in verify_thm1_at(q, x, p1, sqrt_mode=cfg.sqrt, slack=slack):
            recs.append(_record(ev, suite, {"q": q, "x": x, "sqrt": cfg.sqrt}))
        return
    # Sweep mode: every modulus outside the finite exception table, checked
    # at its reference scale x0(q).  --full walks the whole certified range
    # (up to the all-moduli threshold q0 for the plain window); otherwise a
    # geometric subsample of --sample-grid points (default 200).
    blocks = load_table6() if cfg.sqrt else load_table5()
    skip = {q for q, _, _ in blocks[0].rows}
    if cfg.full:
        limit = 10**5 if cfg.sqrt else p1.q0
        qs = [q for q in range(3, limit + 1) if q not in skip]
        phis = phi_table(limit)
        m_hat = p1.m_sqrt if cfg.sqrt else p1.m
        for q in qs:
            x = (m_hat * float(phis[q]) * math.log(q)) ** 2
            for ev in verify_thm1_at(q, x, p1, sqrt_mode=cfg.sqrt,
                                     slack=slack):
                recs.append(_record(ev, suite,
                                    {"q": q, "x": x, "sqrt": cfg.sqrt}))
        return
    for q in _grid(3, 10**5, cfg.sample_grid or 200, skip):
        x = x0_of(p1, q, cfg.sqrt)
        for ev in verify_thm1_at(q, x, p1, sqrt_mode=cfg.sqrt, slack=slack):
            recs.append(_record(ev, suite, {"q": q, "x": x, "sqrt": cfg.sqrt}))


def _battery_thm1_tables(cfg: RunConfig, recs: list[dict]) -> None:
    slack = _slack(cfg)
    for row in load_table4():
        for sqrt_mode in (False, True):
            q0 = row.q0_sqrt if sqrt_mode else row.q0
            inputs = {"alpha": row.alpha, "delta": row.delta,
                      "rho": row.rho, "q0": q0, "sqrt": sqrt_mode}
            for ev in verify_thm1_largeq(row, sqrt_mode=sqrt_mode,
                                         slack=slack):
                recs.append(_record(ev, "verify:thm1-tables", inputs))


def _battery_thm2(cfg: RunConfig, recs: list[dict]) -> None:
    t7 = load_table7()
    slack = _slack(cfg, THM2_SLACK)
    for q in range(3, 13):
        for sqrt_mode in (False, True):
            x0 = (t7.sqrt if sqrt_mode else t7.plain)[q]
            for ev in verify_thm2_at(q, math.log(float(x0)),
                                     sqrt_mode=sqrt_mode, slack=slack):
                recs.append(_record(ev, "verify:thm2",
                                    {"q": q, "x0": x0, "sqrt": sqrt_mode}))


def _battery_thm2_tables(cfg: RunConfig, recs: list[dict]) -> None:
    slack = _slack(cfg)
    plain8, sqrt8 = load_table8()
    for sqrt_mode, rows in ((False, plain8), (True, sqrt8)):
        for m, q0 in rows:
            inputs = {"m": int(m), "q0": int(q0), "sqrt": sqrt_mode}
            for ev in verify_thm2_largeq(m, q0, sqrt_mode=sqrt_mode,
                                         slack=slack):
                recs.append(_record(ev, "verify:thm2-tables", inputs))


def _battery_thm3(cfg: RunConfig, recs: list[dict]) -> None:
    slack = _slack(cfg)
    suite = "verify:thm3"
    thresholds = [(220, "first-claim", False), (35, "first-claim", True),
                  (500, "sqrt-claim", False), (67, "sqrt-claim", True)]
    seen = list(thresholds)
    n = cfg.sample_grid or 25
    for mode, lo in (("first-claim", 220), ("sqrt-claim", 500)):
        for q in _grid(lo, 10**6, n):
            seen.append((q, mode, False))
    for mode, lo in (("first-claim", 35), ("sqrt-claim", 67)):
        for q in _grid(lo, 1000, n):
            seen.append((q, mode, True))
    for q, mode, refined in seen:
        inputs = {"q": q, "mode": mode, "refined": refined}
        for ev in verify_thm3(q, mode=mode, refined=refined, slack=slack):
            recs.append(_record(ev, suite, inputs))


def _battery_corollary(cfg: RunConfig, recs: list[dict]) -> None:
    slack = _slack(cfg)
    for q in _grid(3, 10**4, cfg.sample_grid or 25):
        n = corollary_default_n(q)
        for ev in verify_corollary(q, n, slack=slack):
            recs.append(_record(ev, "verify:corollary", {"q": q, "n": n}))


def _battery_lemma5(cfg: RunConfig, recs: list[dict]) -> None:
    ev = verify_majorant()
    recs.append(_record(ev, "verify:lemma5", {"gamma_max": 1e6}))


def _battery_lemma8(cfg: RunConfig, recs: list[dict]) -> None:
    slack = _slack(cfg, 1e-12)
    for ev in verify_constants(slack=slack):
        recs.append(_record(ev, "verify:lemma8", {}))


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

def _run_check(cfg: RunConfig, recs: list[dict]) -> None:
    slack = _slack(cfg)
    if cfg.target in ("t5", "t6"):
        suite = f"check:{cfg.target}"
        reports = run_exception_tables(cfg.target, block=cfg.block,
                                       jobs=cfg.jobs)
    else:
        suite = "check:custom"
        if cfg.q is None or cfg.x0 is None or cfg.x is None:
            raise SystemExit("check custom needs --q, --x0 and --x")
        alpha, delta, rho = (float(t) for t in cfg.params.split(","))
        scan = check_sqrt if cfg.sqrt else check1
        reports = [scan(alpha, delta, rho, cfg.q, cfg.x0, int(cfg.x))]
    for rep in reports:
        ev = BoundEval("coverage", -float(len(rep.failures)), -0.5, slack)
        inputs = {"q": rep.q, "x0": rep.x0, "x_end": rep.x_end,
                  "mode": rep.mode, "primes_scanned": rep.primes_scanned}
        recs.append(_record(ev, suite, inputs))
        # wall_time goes to stdout only: records must be reproducible
        print(f"[{suite}] q={rep.q} [{rep.x0}, {rep.x_end}] {rep.mode}: "
              f"{len(rep.failures)} failures over {rep.primes_scanned} "
              f"primes in {rep.wall_time:.2f}s")


# ---------------------------------------------------------------- report

_REPORT_DEFAULT = ("thm1-tables", "thm2", "thm3", "corollary", "lemma8")
_REPORT_FULL_EXTRA = ("lemma5", "thm2-tables")


def _run_report(cfg: RunConfig, recs: list[dict]) -> None:
    targets = _REPORT_DEFAULT + (_REPORT_FULL_EXTRA if cfg.full else ())
    for target in targets:
        _BATTERIES[target](cfg, recs)


# ---------------------------------------------------------------- driver

def _write_out(path: str, cfg: RunConfig, records: list[dict]) -> None:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# apbounds {cfg.command}"
                 f"{' ' + cfg.target if cfg.target else ''} report\n")
        fh.write(f"# generated: {stamp}\n")
        fh.write(f"# records: {len(records)}\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _print_summary(records: list[dict]) -> None:
    suites: dict[str, list[dict]] = {}
    for rec in records:
        suites.setdefault(rec["suite"], []).append(rec)
    for suite, rows in suites.items():
        failed = [r for r in rows if not r["pass"]]
        worst = min(r["margin"] for r in rows)
        verdict = "PASS" if not failed else "FAIL"
        print(f"[{suite}] {verdict}: {len(rows)} checks, "
              f"{len(failed)} failed, worst margin {worst:.6e}")
        for r in failed:
            print(f"    FAIL {r['name']} inputs={r['inputs']} "
                  f"lhs={r['lhs']:.9e} rhs={r['rhs']:.9e}")


def dispatch(cfg: RunConfig) -> int:
    records: list[dict] = []
    if cfg.command == "verify":
        _BATTERIES[cfg.target](cfg, records)
    elif cfg.command == "check":
        _run_check(cfg, records)
    elif cfg.command == "regen-report":
        _run_report(cfg, records)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown command {cfg.command!r}")
    if cfg.out:
        _write_out(cfg.out, cfg, records)
    _print_summary(records)
    ok = all(r["pass"] for r in records)
    print(f"total: {len(records)} checks, "
          f"{sum(not r['pass'] for r in records)} failed")
    return 0 if ok else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, help="modulus")
    p.add_argument("--x", type=float, help="evaluation point / scan end")
    p.add_argument("--x0", type=int, help="scan start")
    p.add_argument("--params", default="0.5,1,30",
                   help='window parameters "alpha,delta,rho"')
    p.add_argument("--sqrt", action="store_true",
                   help="square-root-count variant")
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


def main(argv=None) -> int:
    ap = _parser()
    ns = ap.parse_args(argv)
    target = getattr(ns, "target", None)
    if ns.command != "check" or target not in ("t5", "t6"):
        for flag in ("block", "jobs"):
            if getattr(ns, flag) is not None:
                ap.error(f"--{flag} only applies to check t5|t6")
    if ns.jobs is not None and ns.jobs < 1:
        ap.error(f"--jobs must be at least 1, got {ns.jobs}")
    cfg = RunConfig(command=ns.command, target=target,
                    q=ns.q, x=ns.x, x0=ns.x0, params=ns.params, sqrt=ns.sqrt,
                    block=ns.block, jobs=ns.jobs or 1, out=ns.out,
                    slack=ns.slack, sample_grid=ns.sample_grid, full=ns.full)
    return dispatch(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
