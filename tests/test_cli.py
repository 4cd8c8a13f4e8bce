"""Command-line interface tests. Everything runs in-process through main()
except the tests that need a fresh interpreter: a smoke test, the import
budgets, a peak-RSS budget and the benchmark tracer's entry points."""
from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from apbounds import checkers, cli, ring, sieve, thm1
from apbounds.arith import factorize
from apbounds.checkers import CheckReport
from apbounds.cli import (_BATTERIES, _config, _grid, _print_summary,
                          _run_check, _run_report, _Stream, _tally, dispatch,
                          main)
from apbounds.margins import (CHUNK_POINTS, BoundColumn, BoundEval,
                              ColumnBlock)
from apbounds.sieve import phi_at
from apbounds.tables import load_table4, load_table6, load_table7
from apbounds.thm1 import verify_thm1_at, x0_of


def read_records(path):
    recs = []
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        recs.append(json.loads(line))
    return recs


def body_bytes(path):
    return b"\n".join(ln for ln in path.read_bytes().splitlines()
                      if not ln.startswith(b"#"))


def summary(blocks):
    """The report pass's tallies of `blocks`, for `_print_summary`."""
    suites = {}
    for block in blocks:
        _tally(suites, block)
    return suites


# ---------------------------------------------------------------- verify

def test_verify_thm1_at_point_pass():
    assert main(["verify", "thm1-at", "--q", "3", "--x", "193269"]) == 0


def test_verify_thm1_at_point_fail():
    assert main(["verify", "thm1-at", "--q", "3", "--x", "23656"]) == 1


def test_verify_thm1_at_point_domain_edge(capsys):
    # q = 2 has a window (phi(2) log 2 > 0); just past sqrt(x) = phi(3) log 3
    # a point is judged, not rejected
    assert main(["verify", "thm1-at", "--q", "2", "--x", "1e6"]) == 0
    assert main(["verify", "thm1-at", "--q", "3", "--x", "4.83"]) == 1
    assert "total: 5 checks" in capsys.readouterr().out


def test_verify_thm1_at_point_sqrt(tmp_path):
    out = tmp_path / "pt.jsonl"
    rc = main(["verify", "thm1-at", "--q", "3", "--x", "332263", "--sqrt",
               "--out", str(out)])
    assert rc == 0
    recs = read_records(out)
    assert {r["name"] for r in recs} >= {"main", "inv_T", "h_over_x"}
    assert all(r["pass"] for r in recs)


def test_verify_thm1_at_sweep_sampled(tmp_path):
    out = tmp_path / "sweep.jsonl"
    rc = main(["verify", "thm1-at", "--sample-grid", "40", "--out", str(out)])
    assert rc == 0
    recs = read_records(out)
    assert recs and all(r["pass"] for r in recs)
    qs = {r["inputs"]["q"] for r in recs}
    # exceptions are skipped by the sweep
    assert qs.isdisjoint(set(range(3, 23)) | {24})
    assert all(3 <= q <= 10**5 for q in qs)


@pytest.mark.parametrize("flag", [[], ["--sqrt"]])
def test_verify_thm1_at_one_point_grid_is_empty(tmp_path, flag):
    # a grid of one point is q = 3, which the exception tables cover
    out = tmp_path / "one.jsonl"
    assert main(["verify", "thm1-at", "--sample-grid", "1", "--out",
                 str(out)] + flag) == 0
    assert read_records(out) == []


def test_verify_thm1_at_point_beyond_uint64(tmp_path):
    out = tmp_path / "big.jsonl"
    q = 10**20
    assert main(["verify", "thm1-at", "--q", str(q), "--x", "1e50",
                 "--out", str(out)]) == 0
    recs = read_records(out)
    assert len(recs) == 5
    assert all(r["inputs"] == {"q": q, "x": 1e50, "sqrt": False}
               for r in recs)


@pytest.mark.parametrize("sqrt_mode", [False, True])
def test_thm1_sweep_matches_scalar_calls(tmp_path, sqrt_mode):
    out = tmp_path / "grid.jsonl"
    argv = ["verify", "thm1-at", "--sample-grid", "200", "--out", str(out)]
    assert main(argv + (["--sqrt"] if sqrt_mode else [])) == 0
    recs = read_records(out)
    p1 = load_table4()[0]
    want = []
    for q in dict.fromkeys(r["inputs"]["q"] for r in recs):
        x = x0_of(p1, q, sqrt_mode)
        inputs = {"q": q, "x": x, "sqrt": sqrt_mode}
        want += [{"suite": "verify:thm1-at", "name": ev.name,
                  "inputs": inputs, "lhs": ev.lhs, "rhs": ev.rhs,
                  "margin": ev.margin, "pass": ev.passed}
                 for ev in verify_thm1_at(q, x, p1, sqrt_mode=sqrt_mode)]
    assert len(recs) == len(want) > 5 * 150
    for got, exp in zip(recs, want):
        assert (got["suite"], got["name"], got["inputs"], got["pass"]) \
            == (exp["suite"], exp["name"], exp["inputs"], exp["pass"])
        for k in ("lhs", "rhs"):
            assert abs(got[k] - exp[k]) \
                <= 4 * math.ulp(max(abs(got[k]), abs(exp[k]))), (got, exp)
    # the shared encoder writes exactly what json.dumps would
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert body == [json.dumps(r, sort_keys=True) for r in recs]


def test_thm1_sweep_streams_chunk_by_chunk(tmp_path, monkeypatch, capsys):
    # the sweep evaluates at most CHUNK_POINTS moduli a call, sieves each
    # chunk's totients once for x0 and the check, and writes and
    # summarizes exactly what one block over all of its moduli would.  One
    # process takes every turn, so the counters see every call; the one
    # scalar call counts a point's checks.
    sizes, sieved = [], []

    def counted(q, *args, **kwargs):
        if np.ndim(q):
            sizes.append(len(q))
        return verify_thm1_at(q, *args, **kwargs)

    def counted_phi(q):
        sieved.append(len(q))
        return phi_at(q)

    monkeypatch.setattr(cli, "verify_thm1_at", counted)
    monkeypatch.setattr(thm1, "phi_at", counted_phi)
    monkeypatch.setattr(ring, "usable_cpus", lambda: 1)
    out = tmp_path / "sweep.jsonl"
    assert main(["verify", "thm1-at", "--sample-grid", "10000", "--sqrt",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert len(sizes) >= 3
    assert sieved == sizes
    assert max(sizes) <= CHUNK_POINTS
    p1 = load_table4()[0]
    qs = _grid(3, 10**5, 10000,
               {q for q, _, _ in load_table6()[0].rows}).tolist()
    assert sum(sizes) == len(qs)
    x = x0_of(p1, np.array(qs), True)
    whole = ColumnBlock("verify:thm1-at",
                        verify_thm1_at(np.array(qs), x, p1, sqrt_mode=True),
                        {"q": qs, "x": x.tolist(), "sqrt": True})
    lines = out.read_bytes().splitlines(keepends=True)
    assert lines[2] == f"# records: {len(whole)}\n".encode()
    assert b"".join(lines[3:]) == "".join(whole.lines()).encode()
    # each point's x is formatted once: the x_floor lhs reuses its text
    fields = list(dict.fromkeys(whole._template()[1]))
    j = [c.name for c in whole.columns].index("x_floor")
    assert whole._twins(fields) == {(j, 0): ("in", "x")}
    checks, failed = _print_summary(summary([whole]))
    assert stdout == capsys.readouterr().out \
        + f"total: {checks} checks, {failed} failed\n"


def test_verify_thm1_tables(tmp_path):
    out = tmp_path / "t1.jsonl"
    assert main(["verify", "thm1-tables", "--out", str(out)]) == 0
    recs = read_records(out)
    assert all(r["pass"] for r in recs)
    mains = [r for r in recs if r["name"] == "main"]
    assert len(mains) == 24  # 12 parameter rows, two interval shapes
    assert sum(1 for r in recs if r["name"].startswith("mono_guard[")) == 24


def test_verify_thm2_small_q(tmp_path):
    out = tmp_path / "t2.jsonl"
    assert main(["verify", "thm2", "--out", str(out)]) == 0
    recs = read_records(out)
    assert recs and all(r["pass"] for r in recs)
    assert {r["inputs"]["q"] for r in recs if "q" in r["inputs"]} >= set(range(3, 13))
    # three records (main and the two side conditions) per table-7 anchor
    t7 = load_table7()
    anchors = [(q, sqrt_mode, x0) for sqrt_mode, col in
               ((False, t7.plain), (True, t7.sqrt)) for q, x0 in col.items()]
    assert len(anchors) == 20
    got = Counter((r["inputs"]["q"], r["inputs"]["sqrt"], r["inputs"]["x0"])
                  for r in recs)
    assert got == {a: 3 for a in anchors}


def test_verify_thm2_slack_override():
    # the tightest anchor margin is ~1.3e-10, so a coarser slack must fail
    assert main(["verify", "thm2", "--slack", "1e-9"]) == 1


def test_verify_thm2_tables_flags_known_failures(tmp_path):
    out = tmp_path / "t2big.jsonl"
    rc = main(["verify", "thm2-tables", "--out", str(out)])
    assert rc == 1
    recs = read_records(out)
    bad = [r for r in recs if not r["pass"]]
    assert bad
    bad_rows = {(r["inputs"]["m"], r["inputs"]["sqrt"]) for r in bad}
    assert bad_rows == {(19, True), (20, True), (21, True)}
    # every plain-shape row is clean
    assert all(r["pass"] for r in recs if not r["inputs"]["sqrt"])


def test_thm2_tables_leaves_factorize_cache_bounded(capsys):
    # the refresh scan takes its totients from the sieve, and what is still
    # factored (the refined retry's omega) stays within the cache's bound
    misses = factorize.cache_info().misses
    assert main(["verify", "thm2-tables"]) == 1
    info = factorize.cache_info()
    assert info.misses > misses
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_verify_thm3(tmp_path):
    out = tmp_path / "t3.jsonl"
    assert main(["verify", "thm3", "--sample-grid", "25", "--out", str(out)]) == 0
    assert all(r["pass"] for r in read_records(out))


# The child reads its own peak from VmHWM: ru_maxrss would count the pages
# of the forked test process before the exec.  A stream's ranks are forked
# after the exec, so their peak is RUSAGE_CHILDREN's ru_maxrss (KiB).
_PEAK_SCRIPT = """
import contextlib, io, resource, sys
import apbounds.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = apbounds.cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    kib = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(rc, max(kib, kids))
"""


def test_verify_thm3_streams_its_grid(tmp_path):
    # thm3 yields each point's block as it evaluates it, walks its grid
    # array CHUNK_POINTS points at a time and keeps one running worst
    # margin per suite, so a grid of 10^5 points per claim peaks about
    # 3 MB above the default 25 (17.5 MB above with a list of the grid and
    # every margin held until the summary)
    peaks = {}
    for grid in ("25", "10000", "100000"):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_SCRIPT, "verify", "thm3",
             "--sample-grid", grid, "--out", str(tmp_path / f"{grid}.jsonl")],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        rc, kib = map(int, proc.stdout.split())
        assert rc == 0
        peaks[grid] = kib / 1024
    assert peaks["10000"] - peaks["25"] < 8.0, peaks
    assert peaks["100000"] - peaks["25"] < 8.0, peaks
    head = (tmp_path / "10000.jsonl").read_text().splitlines()[2]
    assert head == f"# records: {len(read_records(tmp_path / '10000.jsonl'))}"


def test_verify_corollary():
    assert main(["verify", "corollary", "--sample-grid", "12"]) == 0


def test_verify_lemma8(tmp_path):
    out = tmp_path / "l8.jsonl"
    assert main(["verify", "lemma8", "--out", str(out)]) == 0
    recs = read_records(out)
    names = {r["name"] for r in recs}
    assert {"sum_a_lower", "sum_a_upper", "ratio_sum", "digamma_half",
            "digamma_shift", "zeta_weighted"} <= names


def test_verify_lemma5(tmp_path):
    # both table-2 claims, each as one exact certificate record
    out = tmp_path / "l5.jsonl"
    assert main(["verify", "lemma5", "--out", str(out)]) == 0
    recs = read_records(out)
    assert [(r["name"], r["inputs"], r["pass"]) for r in recs] == [
        ("majorant[algebraic-certificate]", {"g_dominated_to": 5}, True),
        ("S_sign[algebraic-certificate]", {"n_min": 2, "n_positive": 4}, True),
    ]


# ---------------------------------------------------------------- check

def test_check_t5_block2(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    rc = main(["check", "t5", "--block", "2", "--out", str(out)])
    assert rc == 0
    recs = read_records(out)
    assert len(recs) == 3
    assert [r["inputs"]["q"] for r in recs] == [3, 4, 6]
    assert all(r["pass"] for r in recs)
    assert all(r["inputs"]["primes_scanned"] > 0 for r in recs)
    # the block-proof share is printed per row, never recorded
    assert capsys.readouterr().out.count(" by block proof) in ") == 3
    assert not any("primes_proved" in r["inputs"] for r in recs)


@pytest.mark.parametrize("ranks", [1, 2, 3])
def test_check_t6_block2_ranks(tmp_path, monkeypatch, capsys, ranks):
    # one row; blocks of 1001 wheel positions cut its range into 5 turns,
    # so with R > 1 its state passes from rank to rank
    monkeypatch.setattr(sieve, "SEG", 1001)
    monkeypatch.setattr(ring, "usable_cpus", lambda: ranks)
    b = load_table6()[1]
    (lo, hi, _), = checkers._merged_ranges([checkers._ScanSqrt(
        b.alpha, b.delta, b.rho, *b.rows[0])])
    assert sieve.Blocks(lo, hi).turns == 5
    out = tmp_path / "c6.jsonl"
    rc = main(["check", "t6", "--block", "2", "--out", str(out)])
    assert rc == 0
    recs = read_records(out)
    assert len(recs) == 1 and recs[0]["pass"]
    stdout = capsys.readouterr().out
    assert "[check:t6] q=3 [682534, 752106] sqrt: 0 failures over 10386 " \
        "primes (0 by block proof)" in stdout
    _no_child_left()


def test_check_custom_q1_scans_every_prime(tmp_path):
    # residue 0 is the one coprime class mod 1: the scan must see every
    # prime, and windows this narrow must fail
    out = tmp_path / "q1.jsonl"
    rc = main(["check", "custom", "--q", "1", "--x0", "23656",
               "--x", "193269", "--params", "0.0001,0,0.001",
               "--out", str(out)])
    assert rc == 1
    (rec,) = read_records(out)
    assert not rec["pass"]
    assert rec["inputs"]["primes_scanned"] == 14805


@pytest.mark.parametrize("ranks", [2, 3])
def test_check_ranks_match_one_process(tmp_path, monkeypatch, ranks):
    for table in ("t5", "t6"):
        one, many = tmp_path / f"{table}-1.jsonl", tmp_path / f"{table}-n.jsonl"
        monkeypatch.setattr(ring, "usable_cpus", lambda: 1)
        assert main(["check", table, "--block", "1", "--out", str(one)]) == 0
        monkeypatch.setattr(ring, "usable_cpus", lambda: ranks)
        assert main(["check", table, "--block", "1", "--out", str(many)]) == 0
        assert body_bytes(one) == body_bytes(many)
    _no_child_left()


@pytest.mark.parametrize("argv", [
    ["check", "t6", "--jobs", "2"],
    ["check", "t5", "--block", "1", "--jobs", "1"],
])
def test_check_jobs_is_a_usage_error(argv, capsys):
    # scans take every usable CPU, so there is no count of jobs to set
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "custom", "--q", "3", "--x0", "23656", "--x", "193269",
     "--block", "2"],
    ["check", "custom", "--q", "3", "--x0", "23656", "--x", "193269",
     "--block", "1"],
    ["verify", "corollary", "--block", "2"],
    ["verify", "thm2", "--block", "1"],
    ["regen-report", "--block", "1"],
])
def test_table_flags_rejected_elsewhere(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "only applies to check t5|t6" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify", "thm1-at", "--q", "7"], "--q needs --x"),
    (["verify", "thm1-at", "--x", "1e7", "--sample-grid", "5"],
     "--x checks one point"),
    (["verify", "thm1-at", "--q", "5", "--x", "1e7", "--full"],
     "--x checks one point"),
    (["verify", "thm1-at", "--full", "--sample-grid", "10"],
     "--full and --sample-grid exclude each other"),
    (["verify", "thm2", "--sqrt"], "--sqrt only applies"),
    (["verify", "thm1-tables", "--sqrt"], "--sqrt only applies"),
    (["check", "t5", "--block", "1", "--sqrt"], "--sqrt only applies"),
    (["regen-report", "--sqrt"], "--sqrt only applies"),
    (["verify", "thm2", "--q", "5"], "--q only applies"),
    (["verify", "corollary", "--x", "1e6"], "--x only applies"),
    (["check", "t5", "--block", "1", "--q", "3"], "--q only applies"),
    (["regen-report", "--x", "1e6"], "--x only applies"),
    (["verify", "thm1-at", "--q", "3", "--x", "193269", "--x0", "23656"],
     "--x0 only applies"),
    (["verify", "thm1-at", "--sample-grid", "5", "--params", "0.5,1,30"],
     "--params only applies"),
    (["check", "t6", "--x0", "5"], "--x0 only applies"),
    (["regen-report", "--params", "0.5,1,30"], "--params only applies"),
    (["verify", "thm1-tables", "--sample-grid", "5"],
     "--sample-grid only applies"),
    (["verify", "thm2", "--sample-grid", "5"], "--sample-grid only applies"),
    (["verify", "thm2-tables", "--sample-grid", "5"],
     "--sample-grid only applies"),
    (["verify", "lemma5", "--sample-grid", "5"], "--sample-grid only applies"),
    (["verify", "lemma8", "--sample-grid", "5"], "--sample-grid only applies"),
    (["check", "t5", "--sample-grid", "5"], "--sample-grid only applies"),
    (["check", "custom", "--q", "3", "--x0", "23656", "--x", "193269",
      "--sample-grid", "5"], "--sample-grid only applies"),
    (["verify", "thm2", "--full"], "--full only applies"),
    (["verify", "thm3", "--full"], "--full only applies"),
    (["verify", "corollary", "--full"], "--full only applies"),
    (["check", "t6", "--full"], "--full only applies"),
    (["check", "custom", "--q", "3", "--x0", "23656", "--x", "193269",
      "--full"], "--full only applies"),
    # a zero is a value that was given, not an unset flag
    (["verify", "thm2", "--x", "0"], "--x only applies"),
    (["verify", "lemma8", "--sample-grid", "0"], "--sample-grid only applies"),
    # lemma5's certificate is exact: it has no slack to override
    (["verify", "lemma5", "--slack", "1"], "--slack only applies"),
    # a negative slack would pass failing inequalities
    (["verify", "thm2-tables", "--slack", "-1"],
     "--slack must be a finite number >= 0"),
    (["verify", "thm2", "--slack", "nan"],
     "--slack must be a finite number >= 0"),
    (["verify", "corollary", "--slack", "inf"],
     "--slack must be a finite number >= 0"),
    (["verify", "thm1-at", "--sample-grid", "0"],
     "--sample-grid must be at least 1"),
    (["verify", "thm3", "--sample-grid", "-5"],
     "--sample-grid must be at least 1"),
    (["check", "t5", "--block", "0"], "--block: t5 has blocks 1..11"),
    (["check", "t6", "--block", "99"], "--block: t6 has blocks 1..11"),
    (["check", "custom", "--q", "3", "--x0", "23656", "--x", "193269",
      "--params", "1,2"], "--params takes three numbers"),
    (["check", "custom", "--q", "3", "--x0", "23656", "--x", "193269",
      "--params", "0.5,1,thirty"], "--params takes three numbers"),
    (["check", "custom", "--q", "3", "--x", "193269"],
     "check custom needs --q, --x0 and --x"),
    (["check", "custom"], "check custom needs --q, --x0 and --x"),
    (["check", "custom", "--q", "0", "--x0", "23656", "--x", "193269"],
     "--q must be at least 1"),
    (["check", "custom", "--q", "-3", "--x0", "23656", "--x", "193269"],
     "--q must be at least 1"),
    (["verify", "thm1-at", "--q", "0", "--x", "1e7"],
     "--q must be at least 1"),
    (["check", "custom", "--q", "3", "--x0", "193270", "--x", "193269"],
     "--x0 193270 lies past --x"),
    # non-finite points and parameters, and scans that start below 1 (where
    # h(x0) is NaN)
    (["check", "custom", "--q", "3", "--x0", "2", "--x", "nan"],
     "--x must be a finite number > 0"),
    (["check", "custom", "--q", "3", "--x0", "2", "--x", "inf"],
     "--x must be a finite number > 0"),
    (["verify", "thm1-at", "--x", "nan"], "--x must be a finite number > 0"),
    (["verify", "thm1-at", "--q", "3", "--x", "-5"],
     "--x must be a finite number > 0"),
    (["check", "custom", "--q", "3", "--x0", "0", "--x", "5",
      "--params", "0,0,0.001"], "--x0 must be at least 1"),
    (["check", "custom", "--q", "3", "--x0", "-4", "--x", "5", "--sqrt"],
     "--x0 must be at least 1"),
    (["check", "custom", "--q", "3", "--x0", "23656", "--x", "193269",
      "--params", "nan,0,0"], "--params takes three numbers"),
    (["check", "custom", "--q", "3", "--x0", "23656", "--x", "193269",
      "--params", "inf,0,0"], "--params takes three numbers"),
    # a scan's verdict is an exact count: it has no slack to override
    (["check", "t5", "--block", "2", "--slack", "0.5"], "--slack only applies"),
    (["check", "t6", "--block", "1", "--slack", "0"], "--slack only applies"),
    (["check", "custom", "--q", "3", "--x0", "23656", "--x", "193269",
      "--slack", "1e-9"], "--slack only applies"),
    (["check", "t5", "--block", "2", "--slack", "inf"], "--slack only applies"),
    # a point with no window: sqrt(x) <= phi(q) log q, or phi(1) log 1 = 0
    (["verify", "thm1-at", "--q", "3", "--x", "4"],
     "a point needs 0 < phi(q) log q < sqrt(x)"),
    (["verify", "thm1-at", "--x", "4.8"],
     "a point needs 0 < phi(q) log q < sqrt(x)"),
    (["verify", "thm1-at", "--q", "1", "--x", "1e6", "--sqrt"],
     "a point needs 0 < phi(q) log q < sqrt(x)"),
    # phi(q) past the float range
    (["verify", "thm1-at", "--q", str(10**400), "--x", "1e50"],
     "a point needs 0 < phi(q) log q < sqrt(x)"),
    # rows whose primes would leave the sieve's int64 range (MAX_HI, just
    # under 2^63): past it at x0, at x, or only at x + h(x)
    (["check", "custom", "--q", "3", "--x0", "10000000000000000000",
      "--x", "1e19"], "needs primes past 9223372030780774809"),
    (["check", "custom", "--q", "3", "--x0", "2", "--x", "1e19", "--sqrt"],
     "needs primes past 9223372030780774809"),
    (["check", "custom", "--q", "3", "--x0", "9000000000000000000",
      "--x", "9.22337203e18"], "needs primes past 9223372030780774809"),
    # a grid builds all of its points first; 10^6 covers the widest range
    (["verify", "thm1-at", "--sample-grid", "1000001"],
     "--sample-grid must be at most 1000000"),
    # the report file is opened before any battery runs (a scan included)
    (["verify", "lemma8", "--out", "/nonexistent/d/r.jsonl"],
     "--out /nonexistent/d/r.jsonl: No such file or directory"),
    (["verify", "lemma8", "--out", "."], "--out .: Is a directory"),
    (["check", "t6", "--out", "/nonexistent/d/r.jsonl"],
     "No such file or directory"),
])
def test_ignored_flags_rejected(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_zero_slack_is_accepted(capsys):
    # zero is the majorant's own slack; the six known FAILs still fail
    assert main(["verify", "thm2-tables", "--slack", "0"]) == 1
    assert "total: 68 checks, 6 failed" in capsys.readouterr().out
    # a scan takes no slack at all, zero included
    with pytest.raises(SystemExit) as exc:
        main(["check", "t5", "--block", "2", "--slack", "0"])
    assert exc.value.code == 2


def test_flags_kept_where_they_apply(tmp_path):
    # regen-report hands --sample-grid to thm3 and corollary
    small = tmp_path / "small.jsonl"
    big = tmp_path / "big.jsonl"
    assert main(["regen-report", "--sample-grid", "3", "--out", str(small)]) \
        == 0
    assert main(["regen-report", "--sample-grid", "6", "--out", str(big)]) \
        == 0
    assert len(read_records(small)) < len(read_records(big))
    assert main(["check", "custom", "--q", "3", "--x0", "23656", "--x",
                 "193269"]) == 0  # --params defaults to 0.5,1,30


def test_check_custom_pass():
    rc = main(["check", "custom", "--q", "3", "--x0", "23656", "--x", "193269",
               "--params", "0.5,1,30"])
    assert rc == 0


def test_check_custom_forced_failure(tmp_path):
    out = tmp_path / "f.jsonl"
    rc = main(["check", "custom", "--q", "3", "--x0", "10000", "--x", "100000",
               "--params", "0,0,0.1229", "--out", str(out)])
    assert rc == 1
    recs = read_records(out)
    assert len(recs) == 1 and not recs[0]["pass"]


def test_check_custom_end_of_range_fails_closed(tmp_path):
    # h is about 2 on [97, 98]: no window there reaches 101 or 103
    out = tmp_path / "end.jsonl"
    rc = main(["check", "custom", "--q", "3", "--x0", "97", "--x", "98",
               "--params", "0,0,0.101", "--out", str(out)])
    assert rc == 1
    (rec,) = read_records(out)
    assert rec["lhs"] == -2.0


def test_check_custom_x_keeps_an_integer_exact(monkeypatch, capsys):
    # a float --x would round 2^53 + 1 down and put --x0 past it; the scan
    # is replaced, so nothing is sieved near 2^53
    calls = []

    def scan(alpha, delta, rho, q, x0, x_end):
        calls.append((alpha, delta, rho, q, x0, x_end))
        return CheckReport(q, x0, x_end, "single", (), 1, 0, 0.0)

    monkeypatch.setattr(cli, "check1", scan)
    x = str(2**53 + 1)
    assert main(["check", "custom", "--q", "3", "--x0", x, "--x", x,
                 "--params", "0,0,1e-9"]) == 0
    assert capsys.readouterr().err == ""
    ((*_, x0, x_end),) = calls
    assert x0 == x_end == 2**53 + 1 and type(x_end) is int


def test_check_custom_takes_negative_params_after_equals(monkeypatch,
                                                        capsys):
    # "--params -1,0,0" reads as a flag and exits 2; "--params=-1,0,0" is
    # the documented form, and its values reach the scan
    with pytest.raises(SystemExit) as exc:
        main(["check", "custom", "--q", "3", "--x0", "23656", "--x",
              "193269", "--params", "-1,0,0"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    calls = []

    def scan(alpha, delta, rho, q, x0, x_end):
        calls.append((alpha, delta, rho))
        return CheckReport(q, x0, x_end, "single", (), 1, 0, 0.0)

    monkeypatch.setattr(cli, "check1", scan)
    assert main(["check", "custom", "--q", "3", "--x0", "23656", "--x",
                 "193269", "--params=-1,0,0"]) == 0
    assert calls == [(-1.0, 0.0, 0.0)]


def test_check_custom_sqrt():
    rc = main(["check", "custom", "--q", "3", "--x0", "81589", "--x", "332263",
               "--params", "0.5,1,30", "--sqrt"])
    assert rc == 0


# ---------------------------------------------------------------- reports

def test_record_shape(tmp_path):
    out = tmp_path / "r.jsonl"
    main(["verify", "corollary", "--sample-grid", "5", "--out", str(out)])
    recs = read_records(out)
    for r in recs:
        assert set(r) == {"suite", "name", "inputs", "lhs", "rhs", "margin", "pass"}
        assert isinstance(r["inputs"], dict)
        assert isinstance(r["pass"], bool)
        for k in ("lhs", "rhs", "margin"):
            assert isinstance(r[k], (int, float))
    # sorted keys on every line
    for line in out.read_text().splitlines():
        if line.startswith("#"):
            continue
        assert json.loads(line) is not None
        assert line.index('"inputs"') < line.index('"lhs"') < line.index('"name"')


def test_regen_report_reproducible(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["regen-report", "--out", str(a)]) == 0
    assert main(["regen-report", "--out", str(b)]) == 0
    assert a.read_text().splitlines()[0].startswith("#")
    assert body_bytes(a) == body_bytes(b)
    assert len(read_records(a)) > 50


# sha256 of each battery's report body (every line but the "#" header) and
# its exit code: any change to how records are built or written moves one
BODY_SHA256 = {
    "verify thm1-at --q 3 --x 193269.0": (
        0, "855d7f10fa30f190719047bf6d62f4307fc7b3e9a84635af340b1521684440bc"),
    "verify thm1-at --q 3 --x 193269.0 --sqrt": (
        1, "71ffc3b3a380e1cb3000a57d82c4879486f1d1acdde9bd0b531190c4d92b7824"),
    "verify thm1-at --sample-grid 50": (
        0, "7610f742301a0e281d4d5e17d8c0503f092eaabab1ccb15f849e2d2487d8e144"),
    "verify thm1-tables": (
        0, "96908bc18be2956f00c4b761eec541229bb55557425843e93c81bbbe74ff35a2"),
    "verify thm2": (
        0, "1207e7b2593452053d7e0bd82f28e43afbd50630945463bb49676104b3c7756d"),
    "verify thm2-tables": (
        1, "1fe5245509b9c67c056d36885e99034825a94dd3e6204c05f8d8b2aff2dc9d01"),
    "verify thm3": (
        0, "2cc139504c567068f20c03bdd8313e18f71d6ccde7e808316ee98ac83652cbed"),
    "verify corollary": (
        0, "1ddc6899baede28966fc51dc8947d75771649e73a602d45bde44f39093b0564e"),
    "verify lemma5": (
        0, "038ff537f2107886fdef94e896251a77d5c62e964c70ff5b49da6a5e4928201a"),
    "verify lemma8": (
        0, "f0b759370b201398387f5802820877507929b81fe7e85f534bf7f829c4184504"),
    "check custom --q 3 --x0 23656 --x 193269": (
        0, "0900b769fc221d8b1ed3c2e5c759143144328312ebf34c5a8134676ae3ec2fcb"),
    "check custom --q 3 --x0 97 --x 98 --params 0,0,0.101": (
        1, "df8f25b378865c90645601fa060d10067ece6a022f4adfebc8251350bcf87a77"),
    "check t6 --block 1": (
        0, "6790be9d02575bdf12fd64677d32a895dd7604f5a377e5780a2921442f2c2409"),
    "regen-report": (
        0, "8cf02d9a611e270b735258a94b86207ea3eee33cea034d4e66ab784286be8d08"),
}


@pytest.mark.parametrize("argv", list(BODY_SHA256))
def test_report_body_is_pinned(tmp_path, argv):
    out = tmp_path / "r.jsonl"
    rc = main(argv.split() + ["--out", str(out)])
    body = b"".join(ln for ln in out.read_bytes().splitlines(keepends=True)
                    if not ln.startswith(b"#"))
    assert (rc, hashlib.sha256(body).hexdigest()) == BODY_SHA256[argv]


# Taken at the commit before streams ran on several processes: the body
# sha256, the stdout sha256 and the exit code, which no count of ranks may
# change.  The thm1-at grid of 5000 points makes 3 turns, and thm3's grid
# of 3000 points per claim 8; with
# --slack 0.05 about 3,000 rows fail, spread over every turn.
RANKED_SHA256 = {
    "verify thm1-at --sample-grid 5000": (
        0, "a129bbbe2ee455fb055b8ad97418c9ed83a7eadd4f36513107eececc6d5c9d01",
        "e88737bded57957351b3c143fe679499cdd486cc2d498340677407005831a295"),
    "verify thm1-at --sample-grid 5000 --sqrt": (
        0, "6df2a40268a50dcbca002f59d2e178f2c777e21c7f6bd862c3dd12f2167b4159",
        "a8a96f783ea78cfdf19cbcd4864ae090da85fc963ddbbabbb7962b3571c528ca"),
    "verify thm1-at --sample-grid 5000 --slack 0.05": (
        1, "d1acdf383928770134349b9e28015e7dae8c40ef7835665bbb37ab967344aa68",
        "cb29930293a6fe0c8770732b31d8fc8869f029b93b2564f5d2246cf487e36cc2"),
    "verify thm3 --sample-grid 3000": (
        0, "da7d95c91d4788941244eecf7279a14ce3922beccaf5d6058885f3af0b324380",
        "2be29897a8471051337fad0a9e10eb3dd4a88c02c58dd0a25a9efe0856720343"),
    "regen-report --sample-grid 3000": (
        0, "edabb786e0afc997590d9b14eb9de87a92d14024f8b7959e347f9733e000b6c2",
        "5105f5fc0f631f890937a480ec849bbc5153918a9d371729afcec39e56229093"),
}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Taken at the commit before scans ran on several processes: the body
# sha256, the sha256 of stdout with the per-row scan times masked, and the
# exit code.  `check t5` makes 23 turns (sieve blocks) in 4 merged ranges
# and `check t6` 49 in 5; each custom row from 10^6 makes 3, and the two
# failing ones (608 and 316 failures) fail in 3 and 4 blocks.
SCAN_RANKED_SHA256 = {
    "check t5": (
        0, "43d243cb9b275dca61a450259310fe17d46a4b64bcecd45d2518489543fc3249",
        "a3e601ee1f29087fd019d8adc58889b627ed75b31682b8ed67e3aea1b11f7f3e"),
    "check t6": (
        0, "1a566c2b197bb0720f90b97abab462ec547e463807420aba05eee46452080bbc",
        "83d5b932e6f3360c9482e7dd65b4038438640d56356d1a431b4b0e4988a3ab02"),
    "check t6 --block 2": (
        0, "766cc654da25e8bc7ba397326b5958c2b8ca1dae1c3d395846f140329d8644cc",
        "f852509e28ff4d491d762a1895ea9b897fe4ea552e1da7b6f8e14cb567898a3c"),
    "check custom --q 3 --x0 1000000 --x 9000000": (
        0, "7fd3853503f88f833efd49be6c95bd8a44d7608836dd406598c8f9de6be9828f",
        "25ba8df8cd58d1f64b244db5c68bc9acd1eab5547377ffb36ddc7a1b77618aa9"),
    "check custom --q 3 --x0 1000000 --x 9000000 --sqrt": (
        0, "4e33fd049e3ab0af1ea82ebe8be4dbc716b382fdfb171e561933ce6130e2c373",
        "621cb65cdbf4855f1743252cbca66ae4e2d029c60a514078293965925ea4620b"),
    "check custom --q 3 --x0 1000000 --x 12000000 --params 0,0,0.05": (
        1, "dd56153f6398c9db049034db2d75c29813873e9466fe9c1dc5a044594d4e8a20",
        "a43f1f4895f0711799e456cccd5c3b2fe714c9845e4373e6829d0445331a3d67"),
    "check custom --q 3 --x0 1000000 --x 12000000 --params=-1,0,14 --sqrt": (
        1, "5c4e90debda5e99276af7e5f3a33239c535a1053c8802ef63eb971a7f630be91",
        "f8b202e008e432a330b0bb668326c707f3cf6f7016c6adb6a9a52cf8949ab20d"),
}


@pytest.mark.parametrize("ranks", [1, 2, 3])
@pytest.mark.parametrize("argv", list(SCAN_RANKED_SHA256))
def test_scan_ranks_write_the_same_bytes(tmp_path, monkeypatch, capsys,
                                         argv, ranks):
    monkeypatch.setattr(ring, "usable_cpus", lambda: ranks)
    out = tmp_path / "r.jsonl"
    rc = main(argv.split() + ["--out", str(out)])
    body = b"".join(ln for ln in out.read_bytes().splitlines(keepends=True)
                    if not ln.startswith(b"#"))
    stdout = re.sub(r" in \d+\.\d+s$", " in _s", capsys.readouterr().out,
                    flags=re.M).encode()
    assert (rc, hashlib.sha256(body).hexdigest(),
            hashlib.sha256(stdout).hexdigest()) == SCAN_RANKED_SHA256[argv]
    _no_child_left()


@pytest.mark.parametrize("ranks", [1, 2, 3])
@pytest.mark.parametrize("argv", list(RANKED_SHA256))
def test_stream_ranks_write_the_same_bytes(tmp_path, monkeypatch, capsys,
                                           argv, ranks):
    monkeypatch.setattr(ring, "usable_cpus", lambda: ranks)
    out = tmp_path / "r.jsonl"
    rc = main(argv.split() + ["--out", str(out)])
    body = b"".join(ln for ln in out.read_bytes().splitlines(keepends=True)
                    if not ln.startswith(b"#"))
    stdout = capsys.readouterr().out.encode()
    assert (rc, hashlib.sha256(body).hexdigest(),
            hashlib.sha256(stdout).hexdigest()) == RANKED_SHA256[argv]
    _no_child_left()


@pytest.mark.parametrize("argv", [
    ["verify", "thm1-at", "--sample-grid", "1000"], ["verify", "thm3"],
    ["regen-report"],
    # scans of one sieve block
    ["check", "custom", "--q", "3", "--x0", "23656", "--x", "193269"],
    ["check", "t6", "--block", "2"]])
def test_one_turn_never_forks(monkeypatch, argv):
    def fork():
        raise AssertionError("forked for one turn")

    monkeypatch.setattr(ring, "usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", fork)
    assert main(argv) == 0


def _failing_turn(monkeypatch, in_child: bool):
    """verify_thm1_at that raises on its second column call in a child of
    this process (in_child) or in this process."""
    home, calls = os.getpid(), Counter()

    def verify(q, *args, **kwargs):
        if np.ndim(q):
            calls[os.getpid()] += 1
            if (os.getpid() != home) == in_child \
                    and calls[os.getpid()] == 2:
                raise ValueError("second turn")
        return verify_thm1_at(q, *args, **kwargs)

    monkeypatch.setattr(cli, "verify_thm1_at", verify)


# --sample-grid 8000 makes 5 turns.  With 2 ranks, rank 1 dies in turn 3,
# so rank 0 finds its pipe closed when it passes the token after turn 2,
# or reads EOF when it waits for the token of turn 4.  With 3 ranks, rank 1
# dies in the last turn, and rank 0 finds its tallies missing.
@pytest.mark.parametrize("ranks", [2, 3])
def test_a_failing_child_fails_the_run(tmp_path, monkeypatch, capfd, ranks):
    monkeypatch.setattr(ring, "usable_cpus", lambda: ranks)
    _failing_turn(monkeypatch, in_child=True)
    with pytest.raises((RuntimeError, BrokenPipeError)):
        main(["verify", "thm1-at", "--sample-grid", "8000",
              "--out", str(tmp_path / "r.jsonl")])
    out, err = capfd.readouterr()
    assert "PASS" not in out and "total:" not in out
    assert "ValueError: second turn" in err
    _no_child_left()


def test_a_failing_rank_0_reaps_its_children(tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(ring, "usable_cpus", lambda: 3)
    _failing_turn(monkeypatch, in_child=False)
    with pytest.raises(ValueError, match="second turn"):
        main(["verify", "thm1-at", "--sample-grid", "8000",
              "--out", str(tmp_path / "r.jsonl")])
    assert "total:" not in capfd.readouterr().out
    _no_child_left()


def _failing_strike(monkeypatch, in_child: bool):
    """A sieve whose second block strike raises in a child of this process
    (in_child) or in this process."""
    home, calls = os.getpid(), Counter()
    strike = sieve.Blocks._strike

    def failing(self, *args):
        calls[os.getpid()] += 1
        if (os.getpid() != home) == in_child and calls[os.getpid()] == 2:
            raise ValueError("second turn")
        return strike(self, *args)

    monkeypatch.setattr(sieve.Blocks, "_strike", failing)


# the row sieves [10^6, 4 10^7 + h]: 11 blocks, so every rank has at
# least three turns
_LONG_ROW = ["check", "custom", "--q", "3", "--x0", "1000000",
             "--x", "40000000"]


@pytest.mark.parametrize("ranks", [2, 3])
def test_a_failing_scan_rank_fails_the_run(tmp_path, monkeypatch, capfd,
                                           ranks):
    (lo, hi, _), = checkers._merged_ranges([checkers._Scan1(
        0.5, 1.0, 30.0, 3, 10**6, 4 * 10**7)])
    assert sieve.Blocks(lo, hi).turns == 11
    monkeypatch.setattr(ring, "usable_cpus", lambda: ranks)
    _failing_strike(monkeypatch, in_child=True)
    with pytest.raises((RuntimeError, BrokenPipeError)):
        main(_LONG_ROW + ["--out", str(tmp_path / "r.jsonl")])
    out, err = capfd.readouterr()
    assert "PASS" not in out and "total:" not in out
    assert "ValueError: second turn" in err
    _no_child_left()


def test_a_failing_scan_rank_0_reaps_its_children(tmp_path, monkeypatch,
                                                  capfd):
    monkeypatch.setattr(ring, "usable_cpus", lambda: 3)
    _failing_strike(monkeypatch, in_child=False)
    with pytest.raises(ValueError, match="second turn"):
        main(_LONG_ROW + ["--out", str(tmp_path / "r.jsonl")])
    assert "total:" not in capfd.readouterr().out
    _no_child_left()


def _plain_json(v):
    if type(v) is dict:
        return all(type(k) is str and _plain_json(w) for k, w in v.items())
    return type(v) in (str, int, float, bool) or v is None


def test_records_are_plain_python():
    # every record type the CLI builds, in memory, down to exact builtin
    # types: json.dumps turns none of them away and writes no numpy repr
    items: list = []
    _run_report(_config(["regen-report", "--full"]), items)
    _BATTERIES["thm1-at"](_config(["verify", "thm1-at", "--sample-grid",
                                    "20", "--sqrt"]), items)
    _BATTERIES["thm1-at"](_config(["verify", "thm1-at", "--q", "3",
                                    "--x", "193269.0"]), items)
    _run_check(_config(["check", "custom", "--q", "3", "--x0", "23656",
                        "--x", "193269.0"]), items)
    _run_check(_config(["check", "t6", "--block", "1"]), items)
    # a stream's blocks, turn by turn, as the report pass evaluates them
    pending = items
    items = [b for r in items for b in
             (chain.from_iterable(map(r.evaluate, r.turns))
              if isinstance(r, _Stream) else [r])]
    cli._written(None, None, pending)  # no report file: tallies only
    assert pending == []  # the pass takes each item out of the list
    assert all(isinstance(r, ColumnBlock) for r in items)
    recs = [row for r in items for row in r.records()]
    suites = {r["suite"] for r in recs}
    assert {"verify:lemma5", "verify:lemma8", "verify:thm2-tables",
            "verify:thm1-at", "check:custom", "check:t6"} <= suites
    for r in recs:
        assert _plain_json(r), r
        assert type(r["pass"]) is bool
        json.dumps(r)


def _point(suite, margin, **inputs):
    """A one-point block of one comparison, lhs = margin against rhs = 0."""
    return ColumnBlock(suite, [BoundEval("c", margin, 0.0)], inputs)


def test_summary_reports_a_nan_margin_as_worst(capsys):
    # min() would print 5.0e-01 here: NaN compares false both ways
    points = [_point("s", 1.0), _point("s", math.nan), _point("s", 0.5)]
    lhs = np.array([1.0, math.nan, 0.5])
    block = ColumnBlock("b", [BoundColumn("c", lhs, 0.0)], {"i": [0, 1, 2]})
    for order in (points, points[::-1], [block],
                  [block, _point("b", 0.25)]):
        assert _print_summary(summary(order))[1] == 1
        head = capsys.readouterr().out.splitlines()[0]
        assert head.endswith("1 failed, worst margin nan"), head
    assert _print_summary(summary([_point("s", 1.0), _point("s", 0.5)])) \
        == (2, 0)
    assert capsys.readouterr().out.splitlines()[0].endswith(
        "worst margin 5.000000e-01")


def test_summary_and_verdict_take_blocks_and_rows_alike(capsys):
    # a block over three points and a one-point block of a BoundEval
    lhs = np.array([1.0, -1.0, 0.5])
    block = ColumnBlock("s", [BoundColumn("a", lhs, 0.0),
                              BoundColumn("b", 1.0, np.zeros(3))],
                        {"q": [3, 4, 5]})
    assert _print_summary(summary([block, _point("s", -2.0, q=7)])) == (7, 2)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "[s] FAIL: 7 checks, 2 failed, worst margin -2.000000e+00"
    assert out[1].startswith("    FAIL a inputs={'q': 4} lhs=-1.0")
    assert out[2].startswith("    FAIL c inputs={'q': 7} lhs=-2.0")


# ---------------------------------------------------------------- plumbing

def test_runconfig_dispatch_direct():
    cfg = _config(["verify", "corollary", "--sample-grid", "6"])
    assert dispatch(cfg) == 0


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "thm7"])
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_subprocess_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "apbounds", "verify", "corollary",
         "--sample-grid", "6"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "corollary" in proc.stdout


def test_cli_import_leaves_scipy_out():
    # scipy is not a dependency; an import of it would cost about 0.5 s of
    # set-up on every run
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, apbounds.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Loaded by no battery: mpmath (only the unreached sin^2 integral imports
# it), and the process pool and multiprocessing (the scans and the streams
# fork their ranks with `os.fork`).
_LAZY_MODULES = ("mpmath", "concurrent.futures", "multiprocessing")

_BUDGET_SCRIPT = """
import contextlib, io, json, sys
import apbounds.cli
lazy = {lazy!r}
def loaded():
    return [m for m in lazy if m in sys.modules]
steps = [("import", 0, loaded())]
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = apbounds.cli.main(argv)
    steps.append((" ".join(argv), rc, loaded()))
print(json.dumps(steps))
"""


def test_import_budget_batteries_load_only_what_they_run():
    quiet = [["check", "t5", "--block", "2"],
             # six rows over several sieve blocks, so a ring's ranks take
             # them on every usable CPU
             ["check", "t6", "--block", "1"],
             ["check", "custom", "--q", "3", "--x0", "23656",
              "--x", "193269"],
             ["verify", "thm1-at", "--sample-grid", "30", "--sqrt"],
             ["verify", "thm2"],
             ["verify", "lemma5"],
             # its digamma and zeta sums are taken in decimal
             ["verify", "lemma8"]]
    script = _BUDGET_SCRIPT.format(lazy=_LAZY_MODULES, argvs=quiet)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert steps == [[s, 0, []] for s in
                     ["import"] + [" ".join(a) for a in quiet]]


def test_full_report_runs_without_mpmath(tmp_path):
    # regen-report --full runs every battery of the report, lemma8 and
    # lemma5 included (exit 1: the known refresh failures)
    script = _BUDGET_SCRIPT.format(
        lazy=_LAZY_MODULES,
        argvs=[["regen-report", "--full", "--out", str(tmp_path / "r")]])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert [s[:2] for s in steps] == [["import", 0],
                                      [f"regen-report --full --out "
                                       f"{tmp_path / 'r'}", 1]]
    assert "mpmath" not in steps[1][2]


_POOL_SCRIPT = """
import contextlib, io, os, sys
from apbounds import cli, ring
if sys.argv[1] == "one":  # as under taskset -c with one CPU
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
print(ring.ranks(10), [m for m in ("concurrent.futures", "multiprocessing")
                        if m in sys.modules])
"""


def test_no_battery_loads_a_process_pool(tmp_path):
    # every scan and every stream runs its ranks on os.fork and pipes, so
    # no battery imports concurrent.futures or multiprocessing, whatever
    # the count of usable CPUs
    argvs = [["check", "t5"], ["check", "t6"],
             ["check", "custom", "--q", "3", "--x0", "1000000",
              "--x", "9000000", "--sqrt"],
             ["verify", "thm1-at", "--sample-grid", "5000"],
             ["verify", "thm3", "--sample-grid", "3000"]]
    for cpus in ("one", "all"):
        proc = subprocess.run(
            [sys.executable, "-c", _POOL_SCRIPT.format(argvs=argvs), cpus],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        ranks, loaded = proc.stdout.split(" ", 1)
        assert int(ranks) == (1 if cpus == "one" else ring.ranks(10))
        assert loaded.strip() == "[]"


def test_benchmark_tracer_finds_its_entry_points():
    # perfbench's traced run rebinds named entry points in apbounds.cli,
    # apbounds.checkers and the BoundEval users; each name must resolve
    tracer = Path(__file__).resolve().parents[1] / "perfbench"
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(tracer)!r}); import tracer; "
         "tracer.Tracer().install()"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
