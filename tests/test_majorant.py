"""Tests for the 23-term zero-density majorant, its exact-arithmetic
certificate, and the companion constant sums."""
from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from apbounds import majorant
from apbounds.majorant import (
    SCALE,
    build_certificate_polys,
    count_roots,
    verify_constants,
    verify_majorant,
    verify_tail_sign,
)
from apbounds.tables import load_table2

C = load_table2()


def by_name(evals, name):
    for e in evals:
        if e.name == name:
            return e
    raise AssertionError(f"no eval named {name!r} in {[e.name for e in evals]}")


# ---------------------------------------------------------------- constants

def test_published_constants():
    assert len(C) == 23
    assert sum(C) == 14999779  # sum a_j = 1.4999779 exactly


# ---------------------------------------------------------------- kernel oracle

def F_kernel(a_scaled, t):
    """Oracle: F at t = gamma^2 (a Fraction), summed term by term from the
    kernel, exactly.  With 2 s_j - 1 = b / 2, b = 2j + 1, the term
    (a_j / SCALE) 4(2s_j - 1) / ((2s_j - 1)^2 + 4t) is
    (a_j / SCALE) 8b / (b^2 + 16t); the terms are added over one unreduced
    common denominator, and the sum is reduced once."""
    k, d = t.numerator, t.denominator
    num, den = 0, 1
    for j, a in enumerate(a_scaled, start=1):
        b = 2 * j + 1
        tn, td = 8 * a * b * d, b * b * d + 16 * k  # the term, times SCALE
        num, den = num * td + tn * den, den * td
    return Fraction(num, den * SCALE)


def g_squared(t):
    """g(gamma)^2 = t^2 / ((1/4 + t)(9/4 + t)) at t = gamma^2, exactly."""
    return 16 * t * t / ((1 + 4 * t) * (9 + 4 * t))


def dominates(a_scaled, t):
    """F >= g at t = gamma^2, exactly: F >= 0 and F^2 >= g^2."""
    F = F_kernel(a_scaled, t)
    return F >= 0 and F * F >= g_squared(t)


def kernel_oracle(a_scaled):
    """Sampled verdict on both claims: F >= g at gamma = k / 40 on [0, 5],
    and F > 0 at 60 geometric gamma from 5 to 1e6."""
    near = (Fraction(k, 40) ** 2 for k in range(201))
    far = (Fraction(g) ** 2 for g in np.geomspace(5.0, 1e6, 60))
    return (all(dominates(a_scaled, t) for t in near)
            and all(F_kernel(a_scaled, t) > 0 for t in far))


def test_F_agrees_with_exact_rational_form():
    # (8/SCALE) N(t)/Q(t) is the kernel sum at s_j = 3/4 + j/2, read
    # straight from the definition, and so is the oracle; for the
    # published weights and one shifted copy
    ts = [Fraction(0), Fraction(1, 4), Fraction(9, 4), Fraction(1, 7),
          Fraction(2), Fraction(25, 3), Fraction(25), Fraction(7, 1000),
          Fraction(324), Fraction(10**6), Fraction(3, 2) ** 2,
          Fraction(99, 7) ** 2]
    for a_scaled in (C, shifted(9, 10)):
        N, Q = build_certificate_polys(a_scaled)
        for t in ts:
            F = Fraction(0)
            for j, a in enumerate(a_scaled, start=1):
                w = 2 * (Fraction(3, 4) + Fraction(j, 2)) - 1  # 2 s_j - 1
                F += Fraction(a, SCALE) * 4 * w / (w * w + 4 * t)
            NQ = Fraction(8, SCALE) * sum(c * t**k for k, c in enumerate(N)) \
                / sum(c * t**k for k, c in enumerate(Q))
            assert NQ == F == F_kernel(a_scaled, t), (a_scaled, t)


def test_majorant_touch_nodes():
    # interior nodes where the majorant nearly touches g, exactly:
    # 0 <= F - g <= eps, i.e. F^2 >= g^2 and (F - eps)^2 <= g^2
    for gam, eps in (("1/2", 1e-5), ("3/2", 1e-5), ("2", 1e-5),
                     ("12/5", 1e-5), ("14/5", 1e-5), ("5", 1e-4)):
        t, eps = Fraction(gam) ** 2, Fraction(eps)
        F = F_kernel(C, t)
        assert F * F >= g_squared(t), gam
        assert F >= eps and (F - eps) ** 2 <= g_squared(t), gam
    assert F_kernel(C, Fraction(0)) > 0


def test_majorant_gives_up_past_cutoff():
    # beyond the cutoff F dips under g; only F >= 0 is claimed there
    t = Fraction(18) ** 2
    assert 0 < F_kernel(C, t) and F_kernel(C, t) ** 2 < g_squared(t)
    for gam in ("79/10", "18", "1000", "100000"):
        assert F_kernel(C, Fraction(gam) ** 2) > 0, gam


# ---------------------------------------------------------------- certificate

def test_certificate_polynomials():
    N, Q = build_certificate_polys(C)
    assert len(N) == 23 and len(Q) == 24  # degrees 22 and 23
    assert N[0] > 0  # F(0) > 0
    assert N[-1] == 16**22 * 239  # sum abar_j (2j+1) = 239
    assert Q[0] == math.prod((2 * j + 1) ** 2 for j in range(1, 24))
    assert all(isinstance(c, int) for c in N + Q)


def test_verify_majorant_passes():
    ev = verify_majorant()
    assert ev.name == "majorant[algebraic-certificate]"
    assert ev.passed
    assert ev.margin > 0


def shifted(i, d):
    """Move d units of weight from a_i to a_{i+1}, keeping the tail mass
    sum_j a_j (2j+3) (0-based j) fixed so the gates past tail_mass run."""
    a = list(C)
    a[i] -= (2 * i + 5) * d
    a[i + 1] += (2 * i + 3) * d
    return tuple(a)


def test_verify_majorant_detects_broken_constants():
    # each case stops at its first failing gate, in the gate order
    cases = [
        # one coefficient flipped: loosens the tail, caught before any count
        ((-C[0],) + C[1:], "tail_mass"),
        ((0,) * 23, "N0_positive"),
        # an empty tuple is no coefficients, not the published ones
        ((), "N0_positive"),
        # F changes sign twice near t = 62.4: N has two roots in (0, inf)
        (shifted(9, 10), "N_roots"),
        # F stays positive but dips under g: exact H changes sign near
        # t = 0.24, 0.25, 2.23 and 2.27
        (shifted(2, 3), "H_roots"),
    ]
    for a_scaled, gate in cases:
        ev = verify_majorant(a_scaled)
        assert not ev.passed
        assert ev.name == f"majorant[certificate-failed:{gate}]"


def test_verify_majorant_agrees_with_kernel_oracle_on_perturbations():
    # weight moved between neighbours (the tail mass kept): the
    # certificate passes exactly when the termwise oracle sees F >= g on
    # [0, 5] and F > 0 beyond; the failures stop at N0_positive, N_roots
    # and H_roots
    names = []
    for i in range(0, 22, 3):
        for d in (1, 3, 10):
            ev = verify_majorant(shifted(i, d))
            assert ev.passed == kernel_oracle(shifted(i, d)), (i, d, ev.name)
            names.append(ev.name)
    # every d = 1 passes, and d = 3 from i = 12 on
    assert names.count("majorant[algebraic-certificate]") == 12
    assert set(names) == {"majorant[algebraic-certificate]"} | {
        f"majorant[certificate-failed:{g}]"
        for g in ("N0_positive", "N_roots", "H_roots")}


def test_verify_majorant_fails_closed_on_undecided_count(monkeypatch):
    # with no bisection allowed, neither root count can be settled
    monkeypatch.setattr(majorant, "ROOT_DEPTH", 0)
    ev = verify_majorant()
    assert not ev.passed
    assert ev.name == "majorant[certificate-failed:roots_undecided]"


def test_count_roots_simple_roots():
    # (t - 1)(t - 3)(t - 30)(t + 2), ascending coefficients
    p = [-180, 156, 55, -32, 1]
    assert count_roots(p) == 3
    assert count_roots(p, 25) == 2
    assert count_roots(p, 2) == 1
    assert count_roots([1, 0, 1]) == 0  # t^2 + 1
    assert count_roots([5, 1]) == 0  # root at t = -5 only
    # (2t - 1)(3t - 1): two roots within 1/6 of each other, below 1
    assert count_roots([1, -5, 6], 25) == 2


def test_count_roots_endpoints_and_bisection_points():
    # t = 12.5 is the first bisection point of (0, 25)
    assert count_roots([-25, 2], 25) == 1
    assert count_roots([-25, 2]) == 1
    # t = 1 is where (0, inf) is split
    assert count_roots([-1, 1]) == 1
    # roots at the open endpoints are not counted
    assert count_roots([0, -25, 1], 25) == 0  # t = 0 and t = 25
    assert count_roots([0, 1]) == 0
    # (t - 12.5)(t - 6.25): roots at the first two bisection points
    assert count_roots([625, -150, 8], 25) == 2


def test_count_roots_undecided_fails_closed():
    # a double root at t = 1/3 is never isolated by bisection
    assert count_roots([1, -6, 9], 25) is None
    assert count_roots([1, -6, 9]) is None
    assert count_roots([0, 0]) is None  # the zero polynomial


# ---------------------------------------------------------------- tail sums

def S_direct(a_scaled, n):
    """Float oracle: S(n) = sum_j a_j n^{-s_j} summed term by term over an
    int array n, and a bound on the rounding error of that sum."""
    s = 0.75 + np.arange(1, len(a_scaled) + 1) / 2
    terms = (np.array(a_scaled, dtype=float) / SCALE
             * np.asarray(n, dtype=float)[:, None] ** -s)
    eps = np.finfo(float).eps
    return terms.sum(axis=1), 4 * len(a_scaled) * eps * np.abs(terms).sum(axis=1)


N_SWEEP = np.arange(2, 10285)


def test_S_values():
    # pins from a 40-digit sum; the float oracle meets each within its
    # error bound (about 9e-6 at n = 4, where the terms reach 1e8)
    pins = np.array([2.373988156e-2, -4.390558881e-6, -4.390154565e-6])
    S, err = S_direct(C, np.array([4, 10283, 10284]))
    assert (np.abs(S - pins) <= err + 1e-9 * np.abs(pins)).all()
    assert (err < np.abs(S)).all()


def test_S_sign_sweep():
    # the float oracle agrees with the certificate: positive at n = 4 only,
    # and every sign is clear of the sum's rounding error
    S, err = S_direct(C, N_SWEEP)
    assert (np.abs(S) > err).all()
    assert N_SWEEP[S >= 0].tolist() == [4]
    ev = verify_tail_sign()
    assert ev.name == "S_sign[algebraic-certificate]"
    assert ev.passed and ev.margin > 0


def tail_gate(a_scaled):
    ev = verify_tail_sign(a_scaled)
    assert ev.passed == (ev.name == "S_sign[algebraic-certificate]")
    return None if ev.passed else ev.name.split(":")[1][:-1]


def test_tail_sign_fails_closed_on_a_sign_flip():
    flipped = (-C[0],) + C[1:]
    S, _ = S_direct(flipped, N_SWEEP)
    assert (S[:10] > 0).all()  # S(2), ..., S(11) all turn positive
    assert tail_gate(flipped) == "R_roots"


def test_tail_sign_fails_closed_when_S5_turns_nonnegative():
    # R(1/sqrt5) = -3,436,820.9: this raise of a_1 lifts S(5) above 0
    bumped = (C[0] + 3_437_821,) + C[1:]
    S, err = S_direct(bumped, np.array([5]))
    assert S[0] > err[0]
    assert tail_gate(bumped) == "R_roots"


def test_tail_sign_fails_closed_on_an_undecided_count(monkeypatch):
    # 9u^2 - 6u + 1 = (3u - 1)^2: a double root at u = 1/3 is never isolated
    assert tail_gate((1, -6, 9)) == "roots_undecided"
    assert tail_gate((0,) * 23) == "roots_undecided"  # R = 0
    assert tail_gate(()) == "roots_undecided"
    monkeypatch.setattr(majorant, "ROOT_DEPTH", 0)
    assert tail_gate(C) == "roots_undecided"


def poly(*roots):
    """Integer coefficients of prod (den u - num) over roots num/den."""
    p = [1]
    for r in roots:
        f = Fraction(r)
        p = majorant._poly_mul(p, [-f.numerator, f.denominator])
    return tuple(p)


def test_tail_sign_checks_every_checkpoint():
    # each polynomial has three simple roots in (0, 1), so only a
    # checkpoint sign can fail it; the first wrong one is named
    assert tail_gate(poly("0.49", "0.55", "0.8")) is None
    cases = [
        (tuple(-c for c in poly("0.49", "0.55", "0.8")), "R(0)_sign"),
        (poly("0.3", "0.55", "0.8"), "R(1/sqrt5)_sign"),
        # 5u^2 - 1 vanishes at 1/sqrt5: E^2 k = O^2 exactly
        (tuple(majorant._poly_mul([-1, 0, 5], list(poly("0.55", "0.8")))),
         "R(1/sqrt5)_sign"),
        (poly("1/2", "7/10", "9/10"), "R(1/2)_sign"),  # a zero at 1/2
        (poly("0.46", "0.48", "0.8"), "R(1/2)_sign"),
        (poly("0.49", "0.6", "0.8"), "R(1/sqrt3)_sign"),
        (poly("0.49", "0.55", "0.65"), "R(1/sqrt2)_sign"),
        # a fourth root at u = 1, the open end: still three in (0, 1)
        (tuple(-c for c in poly("0.49", "0.55", "0.8", "1")), "R(1)_sign"),
    ]
    for a_scaled, gate in cases:
        assert majorant.count_roots(list(a_scaled), 1) == 3
        assert tail_gate(a_scaled) == gate, (a_scaled, gate)


def test_sign_at_inv_sqrt_is_exact():
    # hand-checked signs, one of them an exact cancellation (k = 4:
    # 1 - 2u at u = 1/2)
    cases = [([1, -2], 4, 0), ([1, -1], 2, 1), ([-1, 2], 5, -1),
             ([2, -3], 2, -1), ([0, 0, 1], 3, 1), ([5], 7, 1),
             ([-3, 0, 0, 1], 1, -1), ([0, 1], 2, 1), ([0], 3, 0)]
    for p, k, want in cases:
        assert majorant._sign_at_inv_sqrt(p, k) == want, (p, k)
    # against 50 digits where the two terms cancel to a part in 10^10:
    # 10^10 - a / sqrt(2) with a = round(10^10 sqrt 2) + d
    with mp.workdps(50):
        root2 = mp.sqrt(2)
        base = int(mp.nint(10**10 * root2))
        for d in range(-3, 4):
            a = base + d
            exact = mp.mpf(10**10) - a / root2
            assert majorant._sign_at_inv_sqrt([10**10, -a], 2) \
                == int(mp.sign(exact)), d


def test_tail_sign_agrees_with_float_sweep_on_perturbations():
    # each weight scaled by 0.9, 0.99, 1.01 and 1.1: the certificate passes
    # exactly when the float oracle sees S(n) >= 0 at n = 4 alone
    passed = 0
    for j in range(len(C)):
        for f in (0.9, 0.99, 1.01, 1.1):
            a = C[:j] + (round(C[j] * f),) + C[j + 1:]
            S, err = S_direct(a, N_SWEEP)
            assert (np.abs(S) > err).all(), (j, f)
            sweep_ok = N_SWEEP[S >= 0].tolist() == [4]
            assert verify_tail_sign(a).passed == sweep_ok, (j, f)
            passed += sweep_ok
    assert passed == 3  # a_1 at 0.99, 1.01 and 1.1


# ---------------------------------------------------------------- constant sums

def test_verify_constants():
    evals = verify_constants()
    names = [e.name for e in evals]
    assert names == ["sum_a_lower", "sum_a_upper", "ratio_sum",
                     "digamma_half", "digamma_shift", "zeta_weighted"]
    assert all(e.passed for e in evals), [(e.name, e.margin) for e in evals]
    assert by_name(evals, "sum_a_lower").margin == pytest.approx(0.0000779, abs=1e-10)
    assert by_name(evals, "sum_a_upper").margin == pytest.approx(0.0000221, abs=1e-10)
    assert by_name(evals, "ratio_sum").rhs == pytest.approx(-1.5770967586, abs=1e-9)
    assert by_name(evals, "digamma_half").rhs == pytest.approx(0.655196324706, abs=1e-9)
    assert by_name(evals, "digamma_shift").rhs == pytest.approx(0.731389022664, abs=1e-9)
    assert by_name(evals, "zeta_weighted").rhs == pytest.approx(1.33714795151, abs=1e-9)


def test_verify_constants_catches_perturbation():
    bumped = list(C)
    bumped[3] += 10**9  # ~100 in a_j units
    evals = verify_constants(tuple(bumped))
    assert not all(e.passed for e in evals)


# ------------------------------------------- the decimal route against mpmath

S_DEC = [Decimal(3) / 4 + Decimal(j) / 2 for j in range(1, 24)]
PSI_ARGS = [s / 2 for s in S_DEC] + [(s + 1) / 2 for s in S_DEC]


def test_bernoulli_numbers_match_mpmath():
    want = tuple(Fraction(*mp.bernfrac(2 * k)) for k in range(1, 41))
    assert majorant._bernoulli(40) == want


def test_digamma_and_zeta_match_mpmath():
    assert len(PSI_ARGS) == 46
    with mp.workdps(60):
        for x in PSI_ARGS:
            want = mp.digamma(mp.mpf(str(x)))
            got = mp.mpf(str(majorant._digamma(x)))
            assert abs(got - want) <= 1e-38 * abs(want), x
        pairs = majorant._zeta_pairs(23)
        assert len(pairs) == 23
        for s, (z, dz) in zip(S_DEC, pairs):
            s_mp = mp.mpf(str(s))
            for got, want in ((z, mp.zeta(s_mp)), (dz, mp.zeta(s_mp, 1, 1))):
                assert abs(mp.mpf(str(got)) - want) <= 1e-38 * abs(want), s


def test_constant_sums_round_to_mpmaths_floats():
    # the three transcendental sums as mpmath takes them at 40 digits
    with mp.workdps(40):
        a_mp = [mp.mpf(a) / SCALE for a in C]
        s_mp = [mp.mpf(3) / 4 + mp.mpf(j) / 2 for j in range(1, 24)]
        want = {
            "digamma_half": float(mp.fsum(a * mp.digamma(s / 2)
                                          for a, s in zip(a_mp, s_mp))),
            "digamma_shift": float(mp.fsum(a * mp.digamma((s + 1) / 2)
                                           for a, s in zip(a_mp, s_mp))),
            "zeta_weighted": float(
                mp.fsum(a * mp.zeta(s, 1, 1) / mp.zeta(s)
                        for a, s in zip(a_mp, s_mp))
                + mp.log(2) * mp.fsum(a * mp.power(4, -s)
                                      for a, s in zip(a_mp, s_mp))),
        }
    evals = verify_constants()
    assert {name: by_name(evals, name).rhs for name in want} == want


def test_doubling_every_term_count_moves_no_digit(monkeypatch):
    before = ([majorant._digamma(x) for x in PSI_ARGS],
              majorant._zeta_pairs(23))
    monkeypatch.setattr(majorant, "_N", 2 * majorant._N)
    monkeypatch.setattr(majorant, "_M", 2 * majorant._M)
    after = ([majorant._digamma(x) for x in PSI_ARGS],
             majorant._zeta_pairs(23))
    assert after == before
    # and each value is given to the working precision, not past it
    work = Context(prec=majorant._DIGITS)
    values = after[0] + [v for pair in after[1] for v in pair]
    assert all(work.plus(v) == v for v in values)
