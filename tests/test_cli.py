"""Command-line interface tests. Everything runs in-process through main()
except one subprocess smoke test."""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

from apbounds.cli import RunConfig, dispatch, main


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


# ---------------------------------------------------------------- verify

def test_verify_thm1_at_point_pass():
    assert main(["verify", "thm1-at", "--q", "3", "--x", "193269"]) == 0


def test_verify_thm1_at_point_fail():
    assert main(["verify", "thm1-at", "--q", "3", "--x", "23656"]) == 1


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


def test_verify_thm3(tmp_path):
    out = tmp_path / "t3.jsonl"
    assert main(["verify", "thm3", "--sample-grid", "25", "--out", str(out)]) == 0
    assert all(r["pass"] for r in read_records(out))


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
    out = tmp_path / "l5.jsonl"
    assert main(["verify", "lemma5", "--out", str(out)]) == 0
    recs = read_records(out)
    assert any(r["name"] == "majorant[algebraic-certificate]" for r in recs)


# ---------------------------------------------------------------- check

def test_check_t5_block2(tmp_path):
    out = tmp_path / "c.jsonl"
    rc = main(["check", "t5", "--block", "2", "--out", str(out)])
    assert rc == 0
    recs = read_records(out)
    assert len(recs) == 3
    assert [r["inputs"]["q"] for r in recs] == [3, 4, 6]
    assert all(r["pass"] for r in recs)
    assert all(r["inputs"]["primes_scanned"] > 0 for r in recs)


def test_check_t6_block2_jobs(tmp_path):
    out = tmp_path / "c6.jsonl"
    rc = main(["check", "t6", "--block", "2", "--jobs", "2", "--out", str(out)])
    assert rc == 0
    recs = read_records(out)
    assert len(recs) == 1 and recs[0]["pass"]


def test_check_jobs_matches_serial(tmp_path):
    for table in ("t5", "t6"):
        one, two = tmp_path / f"{table}-1.jsonl", tmp_path / f"{table}-2.jsonl"
        assert main(["check", table, "--block", "1", "--jobs", "1",
                     "--out", str(one)]) == 0
        assert main(["check", table, "--block", "1", "--jobs", "2",
                     "--out", str(two)]) == 0
        assert body_bytes(one) == body_bytes(two)


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_check_rejects_nonpositive_jobs(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "t5", "--block", "2", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "custom", "--q", "3", "--x0", "23656", "--x", "193269",
     "--jobs", "2"],
    ["check", "custom", "--q", "3", "--x0", "23656", "--x", "193269",
     "--block", "1"],
    ["verify", "corollary", "--jobs", "2"],
    ["verify", "thm2", "--block", "1"],
    ["regen-report", "--jobs", "1"],
])
def test_table_flags_rejected_elsewhere(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "only applies to check t5|t6" in capsys.readouterr().err


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


# ---------------------------------------------------------------- plumbing

def test_runconfig_dispatch_direct():
    cfg = RunConfig(command="verify", target="corollary", sample_grid=6)
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
