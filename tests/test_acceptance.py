"""Acceptance gate. Each test runs one headline capability end to end at its
stated tolerance and budget, and prints a single PASS/FAIL line."""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from apbounds.arith import factorize, phi_of, theta_of
from apbounds.checkers import check1, run_exception_tables
from apbounds.majorant import (
    S_of,
    pairing_threshold,
    s_sign_sweep,
    verify_constants,
    verify_majorant,
)
from apbounds.sieve import phi_table, primes_between
from apbounds.tables import (load_table2, load_table4, load_table5, load_table7,
                             load_table8)
from apbounds.thm1 import (
    h1,
    verify_thm1_at,
    verify_thm1_largeq,
    x0_of,
)
from apbounds.thm23 import (
    corollary_default_n,
    verify_corollary,
    verify_thm2_at,
    verify_thm2_largeq,
    verify_thm3,
)

GUARD_EXEMPT_SQRT_ROWS = {19, 20, 21}  # see notes/decisions.md in the repo root


def announce(label, ok, detail):
    print(f"[accept] {label}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


# 1 ------------------------------------------------------------------------

def test_accept_t5_scan():
    t0 = time.perf_counter()
    first = run_exception_tables("t5", block=1)
    t_first = time.perf_counter() - t0
    rest = []
    for b in range(2, 12):
        rest.extend(run_exception_tables("t5", block=b))
    t_all = time.perf_counter() - t0
    reports = first + rest
    n_fail = sum(len(r.failures) for r in reports)
    n_primes = sum(r.primes_scanned for r in reports)
    ok = n_fail == 0 and t_first <= 60.0 and t_all <= 600.0
    announce("t5-scan", ok,
             f"{len(reports)} rows, {n_fail} failures, {n_primes} primes, "
             f"block1 {t_first:.1f}s<=60, full {t_all:.1f}s<=600")
    assert n_fail == 0
    assert n_primes == 24_999_706
    assert t_first <= 60.0 and t_all <= 600.0


# 2 ------------------------------------------------------------------------

def test_accept_t6_scan():
    t0 = time.perf_counter()
    first = run_exception_tables("t6", block=1)
    t_first = time.perf_counter() - t0
    rest = []
    for b in range(2, 12):
        rest.extend(run_exception_tables("t6", block=b))
    t_all = time.perf_counter() - t0
    reports = first + rest
    n_fail = sum(len(r.failures) for r in reports)
    n_primes = sum(r.primes_scanned for r in reports)
    ok = n_fail == 0 and t_first <= 60.0 and t_all <= 1200.0
    announce("t6-scan", ok,
             f"{len(reports)} rows, {n_fail} failures, {n_primes} primes, "
             f"block1 {t_first:.1f}s<=60, full {t_all:.1f}s<=1200")
    assert n_fail == 0
    assert n_primes == 22_885_977
    assert t_first <= 60.0 and t_all <= 1200.0


# 3 ------------------------------------------------------------------------

def test_accept_large_modulus_certification():
    rows = load_table4()
    t0 = time.perf_counter()
    bad = []
    for row in rows:
        for evals in (verify_thm1_largeq(row),
                      verify_thm1_largeq(row, sqrt_mode=True)):
            bad.extend((row.q0, e.name, e.margin) for e in evals if not e.passed)
    dt = time.perf_counter() - t0
    ok = not bad and dt < 1.0
    announce("large-modulus-certification", ok,
             f"12 rows x 2 shapes, {len(bad)} failing margins, {dt * 1e3:.0f}ms<1s")
    assert not bad, bad
    assert dt < 1.0


# 4 ------------------------------------------------------------------------

def test_accept_reference_scale_sweep():
    rows = load_table4()
    p1 = rows[0]
    exceptions = {q for q, _, _ in load_table5()[0].rows}
    t0 = time.perf_counter()
    phis = phi_table(10**5)
    worst = (math.inf, None)
    n_checked = 0
    for q in range(3, 10**5 + 1):
        if q in exceptions:
            continue
        x = (p1.m * float(phis[q]) * math.log(q)) ** 2
        evals = verify_thm1_at(q, x, p1)
        n_checked += 1
        for e in evals:
            if e.margin < worst[0]:
                worst = (e.margin, (q, e.name))
            assert e.passed, (q, e.name, e.margin)
    dt = time.perf_counter() - t0
    ok = dt < 60.0
    announce("reference-scale-sweep", ok,
             f"{n_checked} moduli, worst margin {worst[0]:.3e} at {worst[1]}, "
             f"{dt:.1f}s<60")
    assert n_checked == 10**5 - 2 - len(exceptions)
    assert dt < 60.0


# 5 ------------------------------------------------------------------------

def test_accept_rho100_anchors_and_thresholds():
    t7 = load_table7()
    plain8, sqrt8 = load_table8()
    t0 = time.perf_counter()
    for q in range(3, 13):
        for sqrt_mode, x0 in ((False, t7.plain[q]), (True, t7.sqrt[q])):
            evals = verify_thm2_at(q, math.log(float(x0)), sqrt_mode=sqrt_mode,
                                   slack=1e-12)
            assert all(e.passed for e in evals), \
                (q, sqrt_mode, [(e.name, e.margin) for e in evals])
    for m, q0 in plain8:
        evals = verify_thm2_largeq(m, q0)
        assert all(e.passed for e in evals), \
            (m, q0, [(e.name, e.margin) for e in evals])
    for m, q0 in sqrt8:
        if m in GUARD_EXEMPT_SQRT_ROWS:
            continue
        evals = verify_thm2_largeq(m, q0, sqrt_mode=True)
        assert all(e.passed for e in evals), \
            (m, q0, [(e.name, e.margin) for e in evals])
    dt = time.perf_counter() - t0
    ok = dt < 5.0
    announce("rho100-anchors-and-thresholds", ok,
             f"20 anchors + 8 plain + 5 sqrt threshold rows, {dt:.2f}s<5")
    assert dt < 5.0


@pytest.mark.xfail(strict=True,
                   reason="three sqrt threshold rows are not satisfiable at "
                          "their listed starting moduli; notes/decisions.md "
                          "records the per-modulus counterexamples")
def test_accept_rho100_sqrt_rows_19_20_21():
    _, sqrt8 = load_table8()
    all_ok = True
    for m, q0 in sqrt8:
        if m not in GUARD_EXEMPT_SQRT_ROWS:
            continue
        evals = verify_thm2_largeq(m, q0, sqrt_mode=True)
        ok = all(e.passed for e in evals)
        worst = min(e.margin for e in evals)
        announce(f"rho100-sqrt-threshold m'={m}", ok,
                 f"q0={q0}, worst margin {worst:+.4f}")
        all_ok = all_ok and ok
    assert all_ok


# 6 ------------------------------------------------------------------------

def test_accept_exponential_scale_thresholds():
    t0 = time.perf_counter()
    checks = [
        (220, "first-claim", False),
        (35, "first-claim", True),
        (500, "sqrt-claim", False),
        (67, "sqrt-claim", True),
    ]
    for q, mode, refined in checks:
        evals = verify_thm3(q, mode=mode, refined=refined)
        assert all(e.passed for e in evals), (q, mode, refined)
        assert all(e.margin > 1e-9 for e in evals)
    for q in range(35, 1001):
        evals = verify_thm3(q, mode="first-claim", refined=True)
        assert all(e.passed for e in evals), q
    dt = time.perf_counter() - t0
    ok = dt < 1.0
    announce("exponential-scale-thresholds", ok,
             f"4 threshold points + refined sweep [35,1000], {dt * 1e3:.0f}ms<1s")
    assert dt < 1.0


# 7 ------------------------------------------------------------------------

def test_accept_progression_count_lower_bound():
    t0 = time.perf_counter()
    phis = phi_table(10**4)
    worst = (math.inf, None)
    for q in range(3, 10**4 + 1):
        n = corollary_default_n(q)
        assert n == math.ceil(70 * int(phis[q]) * math.log(q))
        evals = verify_corollary(q, n)
        for e in evals:
            if e.margin < worst[0]:
                worst = (e.margin, (q, e.name))
            assert e.passed, (q, e.name, e.margin)
    dt = time.perf_counter() - t0
    ok = dt < 5.0
    announce("progression-count-lower-bound", ok,
             f"q in [3,1e4], worst margin {worst[0]:.3e} at {worst[1]}, {dt:.2f}s<5")
    assert dt < 5.0


# 8 ------------------------------------------------------------------------

def test_accept_oscillation_envelope():
    t0 = time.perf_counter()
    grid = np.geomspace(1e-2, 1e6, 500)
    vals = [abs(theta_of(float(y)).theta) for y in grid]
    peak = max(vals)
    dt = time.perf_counter() - t0
    ok = peak <= 1.0 + 1e-6 and dt < 5.0
    announce("oscillation-envelope", ok,
             f"max |theta| = {peak:.8f} <= 1+1e-6 over 500-pt grid, {dt:.2f}s<5")
    assert peak <= 1.0 + 1e-6
    # the grid must actually probe the envelope, not just small-y values
    # (the cos(2y) oscillation brings |theta| within 5e-9 of 1 on this grid)
    assert peak > 0.999
    assert dt < 5.0


# 9 ------------------------------------------------------------------------

def test_accept_majorant_and_constant_sums():
    t0 = time.perf_counter()
    total = sum(load_table2())
    assert 14_999_000_000 <= total * 1000 <= 15_000_000_000  # 1.4999 <= sum <= 1.5
    evals = verify_constants()
    assert all(e.passed for e in evals), [(e.name, e.margin) for e in evals]
    assert s_sign_sweep(2, 10284) == (4,)
    for n in range(2, 10285):
        sv = S_of(n)
        assert abs(sv.value) > sv.err_bound, n
        assert (sv.value > 0) == (n == 4), n
    assert pairing_threshold() < 10284
    cert = verify_majorant()
    assert cert.passed, cert.name
    dt = time.perf_counter() - t0
    ok = dt < 30.0
    announce("majorant-and-constant-sums", ok,
             f"6 sum bounds, sign sweep to 10284, tail threshold "
             f"{pairing_threshold():.1f}, certificate {cert.name}, {dt:.1f}s<30")
    assert dt < 30.0


# 10 -----------------------------------------------------------------------

def test_accept_oracle_equivalence():
    t0 = time.perf_counter()
    # (a) sieve vs divisor-loop primality over [2, 1e6]
    n = np.arange(2, 10**6 + 1, dtype=np.int64)
    keep = np.ones(n.size, dtype=bool)
    for d in range(2, math.isqrt(10**6) + 1):
        keep &= (n % d != 0) | (n == d)
    oracle = n[keep]
    sieved = primes_between(2, 10**6)
    assert np.array_equal(oracle, sieved)

    # (b) totients from factorize vs the additive identity sum_{d|n} phi(d) = n,
    # which pins every value, plus direct coprime counts on an initial range
    # (counting gcds across the whole range would be equivalent but far slower)
    Q = 10**5
    phis = np.array([0] + [phi_of(q) for q in range(1, Q + 1)], dtype=np.int64)
    acc = np.zeros(Q + 1, dtype=np.int64)
    for d in range(1, Q + 1):
        acc[d::d] += phis[d]
    assert np.array_equal(acc[1:], np.arange(1, Q + 1))
    base = np.arange(1, 2001, dtype=np.int64)
    for q in range(1, 2001):
        assert phis[q] == np.count_nonzero(np.gcd(base[:q], q) == 1), q
    f97 = factorize(97 * 89 * 4)
    assert sorted(p for p, _ in f97.factors) == [2, 89, 97]
    assert dict(f97.factors)[2] == 2

    # (c) scan verdict vs a per-class maximal-gap walk
    rep = check1(0.5, 1.0, 30.0, 3, 23656, 10**5)
    hi = math.floor(1e5 + h1(0.5, 1.0, 30.0, 3, 1e5))
    P = primes_between(23656, hi)
    brute_ok = True
    for a in (1, 2):
        cp = P[P % 3 == a].astype(np.float64)
        dl = np.empty_like(cp)
        dl[0] = 23656 + h1(0.5, 1.0, 30.0, 3, 23656.0)
        dl[1:] = cp[:-1] + h1(0.5, 1.0, 30.0, 3, cp[:-1])
        if np.any(dl - 1e-6 <= cp):
            brute_ok = False
        if cp[-1] + h1(0.5, 1.0, 30.0, 3, float(cp[-1])) - 1e-6 < 1e5:
            brute_ok = False
    assert brute_ok == (rep.failures == ())

    dt = time.perf_counter() - t0
    announce("oracle-equivalence", True,
             f"sieve==trial-division to 1e6, totient identity to 1e5, "
             f"scan==gap-walk, {dt:.1f}s")
