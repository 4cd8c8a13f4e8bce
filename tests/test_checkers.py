"""Tests for the interval checkers: the every-prime scan, the sqrt-thinned
jump scan, and the exception-table driver."""
from __future__ import annotations

import math

import numpy as np
import pytest

from apbounds import checkers
from apbounds.checkers import (GUARD, CheckReport, check1, check_sqrt,
                               row_guard, row_top, run_exception_tables)
from apbounds.sieve import MAX_HI, prime_array_segments, primes_between
from apbounds.tables import load_table5, load_table6
from apbounds.thm1 import h1, hsqrt

R1 = (0.5, 1.0, 30.0, 3, 23656, 193269)       # every-prime, q=3
R1_Q24 = (0.5, 1.0, 30.0, 24, 3167368, 3372409)
RS = (0.5, 1.0, 30.0, 3, 81589, 332263)        # sqrt-thinned, q=3
RS_Q8 = (0.5, 1.0, 30.0, 8, 1169230, 1295310)


def naive_check1(alpha, delta, rho, q, x0, x_end):
    """Per-prime reference loop, dict state, no vectorization."""
    phi = sum(1 for a in range(q) if math.gcd(a, q) == 1)
    M = {a: x0 + h1(alpha, delta, rho, q, float(x0))
         for a in range(q) if math.gcd(a, q) == 1}
    last = dict.fromkeys(M, x0)
    hi = math.floor(x_end + h1(alpha, delta, rho, q, float(x_end)))
    failures, count = [], 0
    for p in primes_between(x0, hi).tolist():
        a = p % q
        if a not in M:
            continue
        count += 1
        if M[a] - GUARD <= p:
            failures.append((a, M[a]))
        M[a] = p + h1(alpha, delta, rho, q, float(p))
        last[a] = p
    # a class with no prime in (x_end, hi] misses the window at x_end
    for a in M:
        if last[a] <= x_end:
            failures.append((a, M[a]))
    return sorted(failures), count, phi


def naive_check_sqrt(alpha, delta, rho, q, x0, x_end):
    """Countdown reference for the thinned scan: inspect every N-th class
    prime, N = isqrt(floor(deadline)) + 1."""
    M = {a: x0 + hsqrt(alpha, delta, rho, q, float(x0))
         for a in range(q) if math.gcd(a, q) == 1}
    N = {a: math.isqrt(math.floor(M[a])) + 1 for a in M}
    last = dict.fromkeys(M, x0)
    hi = math.floor(x_end + hsqrt(alpha, delta, rho, q, float(x_end)))
    failures = []
    for p in primes_between(x0, hi).tolist():
        a = p % q
        if a not in M:
            continue
        N[a] -= 1
        if N[a]:
            continue
        if M[a] - GUARD <= p:
            failures.append((a, M[a]))
        M[a] = p + hsqrt(alpha, delta, rho, q, float(p))
        N[a] = math.isqrt(math.floor(M[a])) + 1
        last[a] = p
    # a class with no inspected prime in (x_end, hi] misses x_end's window
    for a in M:
        if last[a] <= x_end:
            failures.append((a, M[a]))
    return sorted(failures)


# ---------------------------------------------------------------- check1

def test_check1_report_shape():
    rep = check1(*R1)
    assert isinstance(rep, CheckReport)
    assert (rep.q, rep.x0, rep.x_end, rep.mode) == (3, 23656, 193269, "single")
    assert rep.failures == ()
    assert rep.primes_scanned == 17470
    assert rep.wall_time >= 0.0


def test_check1_matches_naive_loop():
    want_fail, want_count, _ = naive_check1(*R1)
    rep = check1(*R1)
    assert list(rep.failures) == want_fail
    assert rep.primes_scanned == want_count


def test_check1_q24_row():
    rep = check1(*R1_Q24)
    assert rep.failures == ()
    assert rep.primes_scanned == 53206


def test_check1_deterministic():
    a = check1(*R1)
    b = check1(*R1)
    assert (a.q, a.x0, a.x_end, a.mode, a.failures, a.primes_scanned) == \
           (b.q, b.x0, b.x_end, b.mode, b.failures, b.primes_scanned)


def test_check1_split_invariance(monkeypatch):
    def choppy(lo, hi):
        # hand the scan awkwardly sized chunks; results must not move
        P = primes_between(lo, hi)
        k = 0
        sizes = [1, 997, 3, 4096]
        i = 0
        while k < P.size:
            n = sizes[i % len(sizes)]
            yield P[k:k + n]
            k += n
            i += 1

    ref = check1(*R1)
    monkeypatch.setattr(checkers, "prime_array_segments", choppy)
    rep = check1(*R1)
    assert rep.failures == ref.failures
    assert rep.primes_scanned == ref.primes_scanned


def test_check1_brute_window_coverage():
    # independent view: walking the class primes directly and carrying the
    # deadline by hand must succeed for both classes mod 3 on [23656, 1e5]
    alpha, delta, rho, q, x0, xe = 0.5, 1.0, 30.0, 3, 23656, 100000
    hi = math.floor(xe + h1(alpha, delta, rho, q, float(xe)))
    P = primes_between(x0, hi)
    for a in (1, 2):
        cp = P[P % 3 == a].tolist()
        M = x0 + h1(alpha, delta, rho, q, float(x0))
        for p in cp:
            assert M - GUARD > p, (a, p, M)
            M = p + h1(alpha, delta, rho, q, float(p))
        assert M - GUARD >= xe


def test_check1_forced_failure():
    # shrink the window to 40% of the largest class gap: the scan must trip
    P = primes_between(10**4, 10**5)
    cp = P[P % 3 == 1]
    gaps = np.diff(cp)
    i = int(np.argmax(gaps))
    gmax, at = int(gaps[i]), int(cp[i])
    assert (gmax, at) == (162, 69499)
    rho_star = 0.4 * gmax / (2 * math.sqrt(at))
    rep = check1(0.0, 0.0, rho_star, 3, 10**4, 10**5)
    assert len(rep.failures) == 548
    assert all(isinstance(a, int) and isinstance(d, float) for a, d in rep.failures)
    # failures come out sorted by (residue, deadline)
    assert list(rep.failures) == sorted(rep.failures)


def test_check1_failures_match_naive_on_forced_row():
    args = (0.0, 0.0, 0.1229, 3, 10**4, 10**5)
    want_fail, want_count, _ = naive_check1(*args)
    rep = check1(*args)
    assert rep.primes_scanned == want_count
    assert len(rep.failures) == len(want_fail)
    for (a, d), (wa, wd) in zip(rep.failures, want_fail):
        assert a == wa and d == pytest.approx(wd, rel=1e-12)


# ---------------------------------------------------------------- check_sqrt

def test_check_sqrt_report_shape():
    rep = check_sqrt(*RS)
    assert rep.mode == "sqrt"
    assert rep.failures == ()
    assert rep.primes_scanned == 25093


def test_check_sqrt_q8_row():
    rep = check_sqrt(*RS_Q8)
    assert rep.failures == ()
    assert rep.primes_scanned == 26078


def test_check_sqrt_matches_naive_countdown():
    assert list(check_sqrt(*RS).failures) == naive_check_sqrt(*RS)
    # and on a deliberately failing configuration: alpha = -1 cancels the
    # scan's built-in +1 length shift, leaving bare rho*phi*sqrt(x) windows
    # that the thinned jumps overshoot
    args = (-1.0, 0.0, 5.0, 3, 10**4, 10**5)
    want = naive_check_sqrt(*args)
    got = list(check_sqrt(*args).failures)
    assert len(got) == len(want) > 0
    for (a, d), (wa, wd) in zip(got, want):
        assert a == wa and d == pytest.approx(wd, rel=1e-12)


def test_check_sqrt_split_invariance(monkeypatch):
    def tiny(lo, hi):
        P = primes_between(lo, hi)
        for k in range(0, P.size, 709):
            yield P[k:k + 709]

    ref = check_sqrt(*RS)
    monkeypatch.setattr(checkers, "prime_array_segments", tiny)
    rep = check_sqrt(*RS)
    assert rep.failures == ref.failures
    assert rep.primes_scanned == ref.primes_scanned


def test_check_sqrt_jump_of_one_inspects_every_prime(monkeypatch):
    # forcing the jump to 1 inspects every class prime; that must agree with
    # a check1-style scan run with the taller interval function
    monkeypatch.setattr(checkers._ScanSqrt, "_jump",
                        staticmethod(lambda deadline: 1))
    alpha, delta, rho, q, x0, xe = 0.5, 1.0, 30.0, 3, 81589, 150000
    rep = check_sqrt(alpha, delta, rho, q, x0, xe)
    M = {a: x0 + hsqrt(alpha, delta, rho, q, float(x0)) for a in (1, 2)}
    last = dict.fromkeys(M, x0)
    hi = math.floor(xe + hsqrt(alpha, delta, rho, q, float(xe)))
    want = []
    for p in primes_between(x0, hi).tolist():
        a = p % 3
        if a == 0:
            continue
        if M[a] - GUARD <= p:
            want.append((a, M[a]))
        M[a] = p + hsqrt(alpha, delta, rho, q, float(p))
        last[a] = p
    for a in (1, 2):
        if last[a] <= xe:
            want.append((a, M[a]))
    assert list(rep.failures) == sorted(want)


def test_check_sqrt_huge_jump_starves_scan(monkeypatch):
    # a jump longer than the whole prime list means nothing is ever
    # inspected, so every class must be flagged by the final sweep
    monkeypatch.setattr(checkers._ScanSqrt, "_jump",
                        staticmethod(lambda deadline: 10**9))
    rep = check_sqrt(0.5, 1.0, 30.0, 3, 81589, 332263)
    assert len(rep.failures) == 2
    assert [a for a, _ in rep.failures] == [1, 2]
    m0 = 81589 + hsqrt(0.5, 1.0, 30.0, 3, 81589.0)
    for _, d in rep.failures:
        assert d == pytest.approx(m0, rel=1e-12)


# ---------------------------------------------------------------- class split

# Rows that reach the corners of the one-pass residue-class split: q >= 256
# (16-bit residues), q = 1 (the one class is residue 0), a scan from x0 = 2
# (the primes dividing q sit in non-coprime residues), and windows narrow
# enough that failures are forced.  The scanners evaluate h1/hsqrt on the
# same class primes as the naive loops (check1 on arrays, and a numpy ufunc
# gives an array element the bits it gives the lone value), so the failure
# tuples must match exactly, not just to rounding.
SPLIT_ROWS_1 = [
    (0.0, 0.0, 0.05, 300, 10**5, 2 * 10**5),    # 1550 failures
    (0.5, 1.0, 30.0, 1, 23656, 193269),          # passes
    (0.0, 0.0, 0.001, 1, 23656, 193269),         # fails at every prime
    (0.0, 0.0, 0.3, 30, 2, 10**5),
]
SPLIT_ROWS_SQRT = [
    (-1.0, 0.0, 20.0, 300, 10**5, 2 * 10**5),   # 80 failures
    (-1.0, 0.0, 60.0, 300, 10**5, 2 * 10**5),   # passes
    (-1.0, 0.0, 1.0, 1, 23656, 193269),
    (-1.0, 0.0, 2.0, 30, 2, 10**5),
]


@pytest.mark.parametrize("args", SPLIT_ROWS_1)
def test_check1_class_split_matches_naive(args):
    want_fail, want_count, _ = naive_check1(*args)
    rep = check1(*args)
    assert list(rep.failures) == want_fail
    assert rep.primes_scanned == want_count


@pytest.mark.parametrize("args", SPLIT_ROWS_SQRT)
def test_check_sqrt_class_split_matches_naive(args):
    assert list(check_sqrt(*args).failures) == naive_check_sqrt(*args)


def test_split_rows_reach_their_corners():
    # the rows above do what their comments say
    assert len(check1(*SPLIT_ROWS_1[0]).failures) == 1550
    assert check1(*SPLIT_ROWS_1[1]).failures == ()
    assert len(check_sqrt(*SPLIT_ROWS_SQRT[0]).failures) == 80
    assert check_sqrt(*SPLIT_ROWS_SQRT[1]).failures == ()
    # q = 1 scans every prime in the row's range
    rep = check1(*SPLIT_ROWS_1[1])
    assert rep.primes_scanned == primes_between(23656, checkers._Scan1(
        *SPLIT_ROWS_1[1]).hi).size


def test_end_sweep_flags_a_row_with_nothing_inspected():
    # every class mod 300 has about 283 primes in [1e5, hi], fewer than its
    # first jump of 476, so no class prime is ever inspected.  The first
    # deadline lies past x_end, yet no window past x_end was checked: each
    # class fails at x_end, reported with that first deadline
    alpha, delta, rho, q, x0, xe = -1.0, 0.0, 5.0, 300, 10**5, 2 * 10**5
    m0 = x0 + hsqrt(alpha, delta, rho, q, float(x0))
    assert m0 > xe
    rep = check_sqrt(alpha, delta, rho, q, x0, xe)
    assert rep.failures == tuple((a, m0) for a in range(q)
                                 if math.gcd(a, q) == 1)


def test_end_sweep_flags_a_class_with_no_prime_past_x_end():
    # h is about 2 on [97, 98] and the primes after 97 are 101 and 103, so
    # no window (x, x + h(x)] there holds a prime of either class mod 3,
    # though both deadlines (97 + h(97)) clear x_end
    rep = check1(0.0, 0.0, 0.101, 3, 97, 98)
    assert [a for a, _ in rep.failures] == [1, 2]
    assert all(d > 98 for _, d in rep.failures)
    assert rep.primes_scanned == 1  # 97 itself


@pytest.mark.parametrize("q", [0, -3])
def test_row_scan_rejects_modulus_below_one(q):
    with pytest.raises(ValueError, match="at least 1"):
        check1(0.5, 1.0, 30.0, q, 23656, 193269)
    with pytest.raises(ValueError, match="at least 1"):
        check_sqrt(0.5, 1.0, 30.0, q, 81589, 332263)


@pytest.mark.parametrize("x0", [0, -5])
def test_row_scan_rejects_start_below_one(x0):
    with pytest.raises(ValueError, match="at least 1"):
        check1(0.0, 0.0, 0.001, 3, x0, 5)
    with pytest.raises(ValueError, match="at least 1"):
        check_sqrt(0.0, 0.0, 0.001, 3, x0, 5)


def test_row_scan_rejects_a_reversed_range():
    # x0 past x_end holds no prime to scan; a report of no failures over
    # zero primes would read as a pass
    with pytest.raises(ValueError, match="lies past x_end"):
        check1(0.5, 1.0, 30.0, 3, 200000, 100000)
    with pytest.raises(ValueError, match="lies past x_end"):
        check_sqrt(0.5, 1.0, 30.0, 3, 200000, 100000)


# rows past the sieve's int64 range: x0 and x_end, or only x_end + h(x_end)
INT64_ROWS = [(10**19, 10**19), (2, 10**19),
              (9 * 10**18, int(9.22337203e18))]


@pytest.mark.parametrize("x0, x_end", INT64_ROWS)
def test_row_scan_rejects_primes_past_int64(x0, x_end):
    with pytest.raises(ValueError, match="needs primes past"):
        check1(0.5, 1.0, 30.0, 3, x0, x_end)
    with pytest.raises(ValueError, match="needs primes past"):
        check_sqrt(0.5, 1.0, 30.0, 3, x0, x_end)


def test_row_top_bound_is_exact_at_max_hi():
    # with h = 0 the top is x_end itself, up to float rounding (which
    # rounds MAX_HI down): the last int64-safe row passes, one more fails
    def zero(alpha, delta, rho, q, x):
        return 0.0
    top = row_top(zero, 0.0, 0.0, 0.0, 3, MAX_HI, MAX_HI)
    assert MAX_HI - 1024 < top <= MAX_HI
    for x0, x_end in ((MAX_HI + 1, MAX_HI + 1), (2, MAX_HI + 1)):
        with pytest.raises(ValueError):
            row_top(zero, 0.0, 0.0, 0.0, 3, x0, x_end)
    # a scan-scale row is untouched: hi = floor(x_end + h1(x_end))
    assert row_top(h1, 0.5, 1.0, 30.0, 3, 23656, 193269) \
        == math.floor(193269 + h1(0.5, 1.0, 30.0, 3, 193269.0))


# ---------------------------------------------------------------- block proof

def _chunked(size):
    """A stand-in for `prime_array_segments` that yields `size` primes at a
    time, so that one row's cuts can differ in whether they are proved."""
    def segments(lo, hi):
        P = primes_between(lo, hi)
        for k in range(0, P.size, size):
            yield P[k:k + size]
    return segments


def _top_ratios(q, x0, x_end):
    """The two largest gap / (phi(q) sqrt(p)) over consecutive class primes
    p < p' in [x0, x_end]: with alpha = delta = 0 the in-range gap at p
    fails exactly when rho is at most its ratio."""
    P = primes_between(x0, x_end)
    classes = [a for a in range(q) if math.gcd(a, q) == 1]
    ratios = []
    for a in classes:
        cp = P[P % q == a]
        ratios.append(np.diff(cp) / (len(classes) * np.sqrt(cp[:-1])))
    r = np.sort(np.concatenate(ratios))
    return float(r[-1]), float(r[-2])


EDGE_WINDOWS = [(10**6, 11 * 10**5), (9 * 10**6, 9 * 10**6 + 10**5)]


@pytest.mark.parametrize("x0,xe", EDGE_WINDOWS)
@pytest.mark.parametrize("q", [1, 3])
def test_check1_matches_naive_across_the_edge(monkeypatch, x0, xe, q):
    # rho sweeps from failing rows over the largest gap to rows that pass
    # with room; cuts of 1500 primes let one row mix proved and exact cuts
    r1, _ = _top_ratios(q, x0, xe)
    monkeypatch.setattr(checkers, "prime_array_segments", _chunked(1500))
    proved, exact, verdicts = False, False, set()
    for rho in r1 * np.array([0.8, 0.99, 1.01, 1.3, 2.0, 3.0, 5.0, 8.0]):
        want_fail, want_count, _ = naive_check1(0.0, 0.0, rho, q, x0, xe)
        rep = check1(0.0, 0.0, rho, q, x0, xe)
        assert list(rep.failures) == want_fail
        assert rep.primes_scanned == want_count
        proved |= rep.primes_proved > 0
        exact |= rep.primes_proved < rep.primes_scanned
        verdicts.add(bool(rep.failures))
    # the sweep takes the proof on some cuts and the exact split on others
    assert proved and exact and verdicts == {False, True}


@pytest.mark.parametrize("x0,xe", [(10**6, 13 * 10**5),
                                   (9 * 10**6, 9 * 10**6 + 3 * 10**5)])
@pytest.mark.parametrize("size", [None, 1500])
def test_check_sqrt_matches_naive_across_the_edge(monkeypatch, x0, xe, size):
    if size:
        monkeypatch.setattr(checkers, "prime_array_segments", _chunked(size))
    verdicts = set()
    for rho in (8.0, 12.0, 14.0, 16.0, 20.0):
        want = naive_check_sqrt(-1.0, 0.0, rho, 3, x0, xe)
        rep = check_sqrt(-1.0, 0.0, rho, 3, x0, xe)
        assert list(rep.failures) == want
        assert rep.primes_proved == 0
        verdicts.add(bool(want))
    assert verdicts == {False, True}


@pytest.mark.parametrize("size", [None, 500, 2000])
def test_block_proof_falls_back_on_one_failing_gap(monkeypatch, size):
    # q = 1 keeps the blocks down to a couple of primes at this edge, so
    # that most cuts are proved.  At rho just above the largest ratio the
    # row passes; between the two largest exactly one interior gap fails,
    # and the cut that holds it must take the exact path
    x0, xe = 9 * 10**6, 9 * 10**6 + 10**5
    r1, r2 = _top_ratios(1, x0, xe)
    if size:
        monkeypatch.setattr(checkers, "prime_array_segments", _chunked(size))
    ok = check1(0.0, 0.0, r1 * 1.001, 1, x0, xe)
    assert ok.failures == () and naive_check1(0.0, 0.0, r1 * 1.001, 1,
                                              x0, xe)[0] == []
    rho = (r1 + r2) / 2
    want_fail, want_count, _ = naive_check1(0.0, 0.0, rho, 1, x0, xe)
    rep = check1(0.0, 0.0, rho, 1, x0, xe)
    assert len(want_fail) == 1
    assert list(rep.failures) == want_fail
    assert rep.primes_scanned == want_count
    assert rep.primes_proved < rep.primes_scanned
    if size:
        assert rep.primes_proved > 0


@pytest.mark.parametrize("cuts", [(-49, 1, 51), (-48, 2), (-49, 2), (0, 50)])
def test_failing_gap_at_a_cut_edge(monkeypatch, cuts):
    # cut the stream so that the one failing gap p < p' straddles two
    # cuts (carried in, with the deadline set by a proved cut), ends a cut
    # of either parity, or opens one; the short cuts around it are
    # otherwise provable
    x0, xe = 9 * 10**6, 9 * 10**6 + 10**5
    r1, r2 = _top_ratios(1, x0, xe)
    rho = (r1 + r2) / 2
    P = primes_between(x0, math.floor(xe + h1(0.0, 0.0, rho, 1, float(xe))))
    i = int(np.argmax(np.diff(P) / np.sqrt(P[:-1])))  # the index of p
    bounds = [0, *(i + c for c in cuts), P.size]

    def segments(lo, hi):
        for a, b in zip(bounds, bounds[1:]):
            yield P[a:b]

    monkeypatch.setattr(checkers, "prime_array_segments", segments)
    want_fail, want_count, _ = naive_check1(0.0, 0.0, rho, 1, x0, xe)
    rep = check1(0.0, 0.0, rho, 1, x0, xe)
    assert len(want_fail) == 1
    assert list(rep.failures) == want_fail
    assert rep.primes_scanned == want_count
    assert rep.primes_proved >= (100 if len(cuts) == 3 else 1)


def test_span_is_the_widest_run_of_two_blocks():
    rng = np.random.default_rng(11)
    for n in range(1, 40):
        seg = np.cumsum(rng.integers(1, 50, n))
        for shift in range(4):
            B = 1 << shift
            want = max(int(seg[min((j + 2) * B, n) - 1] - seg[j * B])
                       for j in range(-(-n // B)))
            assert checkers._span(seg, shift) == want


def test_class_missing_from_an_interior_block_forces_the_exact_path():
    # twelve integers about 30 apart in blocks of four (q = 3): class 1
    # occurs only first and last, so block 1 lacks it and its one gap,
    # about 330, spans three blocks.  Any two blocks span about 210 < h,
    # yet that gap fails; only the exact path may judge this cut
    residues = [1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1]
    seg = np.array([(10**6 + 30 * k) // 3 * 3 + r
                    for k, r in enumerate(residues)])
    rho = 0.135  # h1 = rho phi(3) sqrt(x), about 270 here
    scan = checkers._Scan1(0.0, 0.0, rho, 3, int(seg[0]), int(seg[0]))
    assert checkers._span(seg, 2) + 2 * GUARD < h1(0.0, 0.0, rho, 3,
                                                   float(seg[0]))
    scan.feed(seg)
    rep = scan.finish()
    assert rep.primes_proved == 0
    dl = float(seg[0] + h1(0.0, 0.0, rho, 3, float(seg[0])))
    assert dl <= seg[-1]
    assert rep.failures == ((1, dl),)


def test_passing_t5_row_needs_no_sort(monkeypatch):
    # a passing table-5 row is settled by the block proof alone: a silent
    # fall back to the exact split would reach np.argsort
    def no_sort(*args, **kwargs):
        raise AssertionError("np.argsort reached")

    monkeypatch.setattr(checkers.np, "argsort", no_sort)
    rep = check1(*R1_Q24)
    assert rep.failures == ()
    assert rep.primes_proved == rep.primes_scanned == 53206


@pytest.mark.parametrize("q", [1, 3])
def test_block_proof_matches_exact_path_near_1e11(monkeypatch, q):
    # from 2^33 on a float ulp exceeds GUARD, so the row guard and the
    # proof's rounding allowance are the ulp-based ones
    x0, xe = 10**11, 10**11 + 10**5
    scan = checkers._Scan1(0.5, 1.0, 30.0, q, x0, xe)
    assert scan.guard == row_guard(scan.hi) > GUARD
    monkeypatch.setattr(checkers, "prime_array_segments", _chunked(600))
    r1, _ = _top_ratios(q, x0, xe)
    rows = [(0.5, 1.0, 30.0, q, x0, xe)] + [
        (0.0, 0.0, rho, q, x0, xe) for rho in r1 * np.array([0.9, 1.5, 3.0])]
    proofs = [check1(*args) for args in rows]
    monkeypatch.setattr(checkers._Scan1, "_proves", lambda *args: False)
    for args, rep in zip(rows, proofs):
        exact = check1(*args)
        assert exact.primes_proved == 0
        assert _key(rep) == _key(exact)
    assert proofs[0].primes_proved == proofs[0].primes_scanned > 0
    assert any(0 < r.primes_proved < r.primes_scanned for r in proofs)


@pytest.mark.parametrize("q,rho1,rho_sqrt", [(300, 0.05, 20.0),
                                             (65537, 1e-4, 0.05)])
def test_large_moduli_match_naive(monkeypatch, q, rho1, rho_sqrt):
    # q = 65537 needs uint32 residues; blocks of at least q primes keep
    # each cut's count table within n + q entries
    tables = []
    block_counts = checkers._block_counts

    def recording(res, q, shift):
        counts = block_counts(res, q, shift)
        tables.append((res.size, counts.size))
        return counts

    monkeypatch.setattr(checkers, "_block_counts", recording)
    x0, xe = 10**6, 10**6 + 3 * 10**4
    want_fail, want_count, _ = naive_check1(0.0, 0.0, rho1, q, x0, xe)
    rep = check1(0.0, 0.0, rho1, q, x0, xe)
    assert list(rep.failures) == want_fail
    assert rep.primes_scanned == want_count
    args = (-1.0, 0.0, rho_sqrt, q, x0, xe)
    assert list(check_sqrt(*args).failures) == naive_check_sqrt(*args)
    assert tables and all(size <= n + q for n, size in tables)


# ---------------------------------------------------------------- table driver

def test_run_exception_tables_t5_block2():
    reps = run_exception_tables("t5", block=2)
    assert [r.q for r in reps] == [3, 4, 6]
    assert all(r.mode == "single" for r in reps)
    assert all(r.failures == () for r in reps)
    assert reps[0].x0 == 156420 and reps[0].x_end == 415044


def test_run_exception_tables_t5_block3_vacuous():
    assert run_exception_tables("t5", block=3) == []


def test_run_exception_tables_t6_block2():
    reps = run_exception_tables("t6", block=2)
    assert len(reps) == 1
    rep = reps[0]
    assert rep.mode == "sqrt"
    assert (rep.q, rep.x0, rep.x_end) == (3, 682534, 752106)
    assert rep.failures == ()


def test_run_exception_tables_rejects_unknown():
    with pytest.raises(ValueError):
        run_exception_tables("t9")
    with pytest.raises(ValueError):
        run_exception_tables("t5", block=12)


# ---------------------------------------------------------------- shared scan

def _key(rep):
    return (rep.q, rep.x0, rep.x_end, rep.mode, rep.failures,
            rep.primes_scanned)


@pytest.mark.parametrize("table,block,scan", [("t5", 2, check1),
                                              ("t6", 1, check_sqrt)])
@pytest.mark.parametrize("jobs", [1, 2])
def test_shared_scan_matches_per_row(table, block, scan, jobs):
    blk = (load_table5() if table == "t5" else load_table6())[block - 1]
    want = [scan(blk.alpha, blk.delta, blk.rho, q, lo, hi)
            for q, lo, hi in blk.rows]
    got = run_exception_tables(table, block=block, jobs=jobs)
    assert len(got) == len(want) > 1
    assert [_key(r) for r in got] == [_key(r) for r in want]


def _union_length(ranges):
    total, reach = 0, None
    for lo, hi in sorted(ranges):
        if reach is not None and lo <= reach:
            total += max(0, hi - reach)
            reach = max(reach, hi)
        else:
            total += hi - lo + 1
            reach = hi
    return total


@pytest.mark.parametrize("table,block,h", [("t5", 2, h1), ("t6", 1, hsqrt)])
def test_shared_scan_sieves_the_union_once(monkeypatch, table, block, h):
    seen = []

    def recording(lo, hi):
        seen.append((lo, hi))
        return prime_array_segments(lo, hi)

    monkeypatch.setattr(checkers, "prime_array_segments", recording)
    blk = (load_table5() if table == "t5" else load_table6())[block - 1]
    rows = [(max(lo, 2), math.floor(hi + h(blk.alpha, blk.delta, blk.rho, q,
                                           float(hi))))
            for q, lo, hi in blk.rows]
    run_exception_tables(table, block=block)
    assert sum(hi - lo + 1 for lo, hi in seen) == _union_length(rows)
    # the rows overlap, so one sieve per row would cover more
    assert sum(hi - lo + 1 for lo, hi in rows) > _union_length(rows)


def test_shared_scan_keeps_failures_per_row():
    # a forced-failure row (rho = 0.1229, no log growth) and a passing row
    # share every segment of [23656, 1e5]; each must report exactly what it
    # reports when scanned alone
    bad = checkers._Scan1(0.0, 0.0, 0.1229, 3, 10**4, 10**5)
    good = checkers._Scan1(0.5, 1.0, 30.0, 3, 23656, 193269)
    got_bad, got_good = checkers._scan_shared([bad, good])
    alone_bad = check1(0.0, 0.0, 0.1229, 3, 10**4, 10**5)
    assert got_bad.failures == alone_bad.failures
    assert len(got_bad.failures) > 0
    assert got_bad.primes_scanned == alone_bad.primes_scanned
    assert got_good.failures == ()
    assert got_good.primes_scanned == check1(*R1).primes_scanned


def test_shared_scan_groups_cover_rows_in_order():
    scans = [checkers._Scan1(0.5, 1.0, 30.0, 3, x0, x0 + 50000)
             for x0 in (400000, 30000, 90000, 30000, 250000)]
    for jobs in (1, 2, 3, 9):
        groups = checkers._span_groups(scans, jobs)
        assert 1 <= len(groups) <= min(jobs, len(scans))
        flat = [i for g in groups for i in g]
        assert sorted(flat) == list(range(len(scans)))
        # contiguous by start
        assert [scans[i].lo for i in flat] == sorted(s.lo for s in scans)


def test_run_exception_tables_rejects_bad_jobs():
    with pytest.raises(ValueError):
        run_exception_tables("t5", block=2, jobs=0)


# ---------------------------------------------------------------- guard

def test_row_guard_is_guard_on_every_bundled_row():
    for blocks, h in ((load_table5(), h1), (load_table6(), hsqrt)):
        for b in blocks:
            for q, _, x_end in b.rows:
                hi = math.floor(x_end + h(b.alpha, b.delta, b.rho, q,
                                          float(x_end)))
                assert hi < 2**29
                assert row_guard(hi) == GUARD


def test_row_guard_scales_at_large_x():
    hi = 2**62
    assert row_guard(hi) >= 4 * math.ulp(float(hi))
    # from about 2^33 up a float64 ulp exceeds the absolute guard
    assert math.ulp(2.0**34) > GUARD
    assert row_guard(2**34) > GUARD
    scan = checkers._Scan1(0.5, 1.0, 30.0, 3, 2**62, 2**62)
    assert scan.guard == row_guard(scan.hi) > GUARD
