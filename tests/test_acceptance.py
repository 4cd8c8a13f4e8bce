"""Acceptance gate. Each test runs one headline capability end to end at its
stated tolerance and budget, and prints a single PASS/FAIL line."""
from __future__ import annotations

import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from apbounds.arith import factorize, phi_of, theta_of
from apbounds.checkers import check1, run_exception_tables
from apbounds.majorant import (
    verify_constants,
    verify_majorant,
    verify_tail_sign,
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


# sha256 of every row's (q, x0, x_end, mode, primes_scanned, failures), in
# table order: a scan that moves any record fails here
T5_ROWS_SHA256 = \
    "2aee1bbb73156b35639a36d574622cb1a55fee6a80325b2de24b57440c3ad2f5"
T6_ROWS_SHA256 = \
    "f491dc343f4ab651309b05b41bed45d5bf92cb694e624dddf3ae4881350fa599"


def _rows_sha256(reports):
    rows = [(r.q, r.x0, r.x_end, r.mode, r.primes_scanned, r.failures)
            for r in reports]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


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
    # every t5 prime is settled by block proof: a chunk shape that pushed
    # cuts onto the exact path would keep the rows and lose only speed
    assert sum(r.primes_proved for r in reports) == n_primes
    assert _rows_sha256(reports) == T5_ROWS_SHA256
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
    assert _rows_sha256(reports) == T6_ROWS_SHA256
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
    qs = np.array([q for q in range(3, 10**5 + 1) if q not in exceptions])
    xs = x0_of(p1, qs)
    cols = verify_thm1_at(qs, xs, p1)
    # the worst margin; a tie goes to the smaller modulus, then the earlier
    # inequality
    worst = min((float(c.margin[i]), i, k) for k, c in enumerate(cols)
                for i in [int(np.argmin(c.margin))])
    for c in cols:
        bad = np.flatnonzero(~c.passed)
        assert bad.size == 0, (c.name, qs[bad[:5]], c.margin[bad[:5]])
    # a point call at a column's (q, x) gives that row of every column
    for i in range(0, qs.size, 1000):
        for e, c in zip(verify_thm1_at(int(qs[i]), float(xs[i]), p1), cols):
            assert (e.name, e.lhs, e.rhs, e.passed) \
                == (c.name, c.lhs[i], c.rhs[i], c.passed[i]), (qs[i], e.name)
    dt = time.perf_counter() - t0
    n_checked = qs.size
    ok = dt < 60.0
    announce("reference-scale-sweep", ok,
             f"{n_checked} moduli, worst margin {worst[0]:.3e} at "
             f"{(int(qs[worst[1]]), cols[worst[2]].name)}, {dt:.1f}s<60")
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


# (table-4 row, sqrt mode, q): the one modulus at which each of these rows
# fails `main` at x0(q); none of them is in the row's t5/t6 block
TABLE4_BELOW_Q0_FAILURES = ((4, False, 35), (9, True, 26), (11, True, 24))


@pytest.mark.xfail(strict=True,
                   reason="three table-4 rows fail main at x0(q) below q0, "
                          "one modulus each; notes/decisions.md records the "
                          "counterexamples")
def test_accept_table4_rows_4_9_11_below_q0():
    params = load_table4()
    all_ok = True
    for k, sqrt_mode, q in TABLE4_BELOW_Q0_FAILURES:
        row = params[k - 1]
        x0 = float(x0_of(row, q, sqrt_mode))
        evals = verify_thm1_at(q, x0, row, sqrt_mode=sqrt_mode)
        ok = all(e.passed for e in evals)
        worst = min(e.margin for e in evals)
        announce(f"table4-row{k}-{'sqrt' if sqrt_mode else 'plain'} q={q}",
                 ok, f"x0(q)={x0:.6g}, worst margin {worst:+.4f}")
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
    a_scaled = load_table2()
    total = sum(a_scaled)
    assert 14_999_000_000 <= total * 1000 <= 15_000_000_000  # 1.4999 <= sum <= 1.5
    evals = verify_constants()
    assert all(e.passed for e in evals), [(e.name, e.margin) for e in evals]
    tail = verify_tail_sign()
    assert tail.passed, tail.name
    # an independent float oracle for the tail certificate: S(n) summed
    # term by term is positive for n = 4 alone, each sign clear of the
    # sum's rounding error, and meets 40-digit pins within that error
    n = np.arange(2, 10285)
    terms = (np.array(a_scaled, dtype=float) / 1e7
             * n[:, None].astype(float) ** -(0.75 + np.arange(1, 24) / 2))
    S = terms.sum(axis=1)
    err = 92 * np.finfo(float).eps * np.abs(terms).sum(axis=1)
    assert (np.abs(S) > err).all()
    assert n[S > 0].tolist() == [4]
    pins = {4: 2.373988156e-2, 10283: -4.390558881e-6, 10284: -4.390154565e-6}
    for k, pin in pins.items():
        assert abs(S[k - 2] - pin) <= err[k - 2] + 1e-9 * abs(pin), k
    cert = verify_majorant()
    assert cert.passed, cert.name

    # an independent exact oracle for the majorant certificate: F summed
    # term by term from the kernel, a_j 8b / (b^2 + 16t) with b = 2j + 1
    # (f(s_j, gamma) at t = gamma^2), over one unreduced denominator
    def F(t):
        num, den = 0, 1
        for j, a in enumerate(a_scaled, start=1):
            b = 2 * j + 1
            tn, td = 8 * a * b * t.denominator, (b * b * t.denominator
                                                 + 16 * t.numerator)
            num, den = num * td + tn * den, den * td
        return Fraction(num, den * 10**7)

    # F >= g on [0, 5]: F >= 0 and F^2 >= g^2 = t^2 / ((1/4 + t)(9/4 + t))
    for k in range(1001):
        t = Fraction(k, 200) ** 2
        f = F(t)
        assert f >= 0 and f * f * (1 + 4 * t) * (9 + 4 * t) >= 16 * t * t, k
    # F > 0 past gamma = 5, on a geometric grid to 1e6
    for g in np.geomspace(5.0, 1e6, 400):
        assert F(Fraction(g) ** 2) > 0, g
    dt = time.perf_counter() - t0
    ok = dt < 30.0
    announce("majorant-and-constant-sums", ok,
             f"6 sum bounds, {tail.name} with its float oracle to n = 10284, "
             f"certificate {cert.name} with its exact kernel oracle to "
             f"gamma = 1e6, {dt:.1f}s<30")
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
