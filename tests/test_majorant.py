"""Tests for the 23-term zero-density majorant, its exact-arithmetic
certificate, and the companion constant sums."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from apbounds import majorant
from apbounds.majorant import (
    F_majorant,
    S_of,
    build_certificate_polys,
    count_roots,
    g_of,
    pairing_threshold,
    s_sign_sweep,
    verify_constants,
    verify_majorant,
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


# ---------------------------------------------------------------- pointwise

def test_g_of_shape():
    assert g_of(0.0) == 0.0
    assert g_of(5.0) == pytest.approx(
        25.0 / math.sqrt((0.25 + 25.0) * (2.25 + 25.0)), rel=1e-14)
    grid = [g_of(v) for v in np.linspace(0, 50, 200)]
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert g_of(1e9) == pytest.approx(1.0, abs=1e-12)
    assert all(0.0 <= v < 1.0 for v in grid)
    # scalar in, float out; array in, array out, element for element
    assert type(g_of(5.0)) is float
    vec = g_of(np.linspace(0, 50, 200))
    assert isinstance(vec, np.ndarray) and vec.tolist() == grid


def test_F_vectorized_matches_scalar():
    gs = np.array([0.0, 0.3, 1.0, 2.4, 5.0, 77.0])
    vec = F_majorant(gs)
    assert isinstance(vec, np.ndarray)
    for g, v in zip(gs, vec):
        assert F_majorant(float(g)) == pytest.approx(float(v), rel=1e-15)


def test_F_agrees_with_exact_rational_form():
    # F(gamma) = (8/10^7) N(t)/Q(t) with t = gamma^2 — evaluate the integer
    # polynomials in exact arithmetic and compare
    N, Q = build_certificate_polys(C)
    for gam in (0.0, 0.5, 1.0, 2.5, 7.0, 100.0):
        t = Fraction(gam).limit_denominator(10**6) ** 2
        nv = sum(c * t**k for k, c in enumerate(N))
        qv = sum(c * t**k for k, c in enumerate(Q))
        want = float(Fraction(8, 10**7) * nv / qv)
        assert F_majorant(gam) == pytest.approx(want, rel=1e-10), gam


def test_majorant_touch_nodes():
    # interior nodes where the majorant nearly touches g
    for gam in (0.5, 1.5, 2.0, 2.4, 2.8):
        resid = F_majorant(gam) - g_of(gam)
        assert -1e-12 <= resid <= 1e-5, (gam, resid)
    resid5 = F_majorant(5.0) - g_of(5.0)
    assert -1e-12 <= resid5 <= 1e-4
    assert F_majorant(0.0) > 0.0


def test_majorant_gives_up_past_cutoff():
    # beyond the cutoff the rational function dips under g; only F >= 0 is
    # claimed there
    assert F_majorant(18.0) < g_of(18.0)
    for gam in (7.9, 18.0, 1e3, 1e5):
        assert F_majorant(gam) >= 0.0


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

def test_S_values():
    v4 = S_of(4)
    assert v4.value == pytest.approx(0.023739882, abs=1e-8)
    assert v4.value > 0
    assert S_of(10284).value == pytest.approx(-4.3901546e-6, rel=1e-6)
    assert S_of(10283).value == pytest.approx(-4.3905589e-6, rel=1e-6)
    for n in (4, 100, 10283, 10284):
        sv = S_of(n)
        assert 0 <= sv.err_bound < abs(sv.value)
    with pytest.raises(ValueError):
        S_of(1)


def test_S_sign_sweep():
    exceptions = s_sign_sweep(2, 10284)
    assert exceptions == (4,)


def test_pairing_threshold():
    thr = pairing_threshold()
    assert thr == pytest.approx(10283.9167, abs=1e-3)
    assert thr < 10284  # the sweep hands off cleanly to the pairing argument


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
