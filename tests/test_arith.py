"""Unit tests for the arithmetic/special-function primitives.

Expected values here come from independent routes: mpmath at 40+ digits,
exact identities (Si(2y) - sin^2(y)/y for the oscillatory integral), and
brute-force counting for the multiplicative functions.
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from apbounds.arith import (
    FactorData,
    Theta,
    factorize,
    omega_of,
    phi_of,
    sin2_integral,
    theta_of,
)


# ---------------------------------------------------------------- factorize

def test_factorize_one():
    fd = factorize(1)
    assert fd.phi == 1 and fd.omega == 0
    assert fd.factors == ()


def test_factorize_twelve():
    fd = factorize(12)
    assert fd.phi == 4 and fd.omega == 2
    assert fd.factors == ((2, 2), (3, 1))


def test_factorize_thirtyfive():
    fd = factorize(35)
    assert fd.phi == 24 and fd.omega == 2
    assert fd.factors == ((5, 1), (7, 1))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-5)


def brute_phi(q: int) -> int:
    return sum(1 for k in range(1, q + 1) if math.gcd(k, q) == 1)


def test_phi_matches_brute_force_small():
    for q in range(1, 2000):
        assert factorize(q).phi == brute_phi(q), q


def brute_phi_np(q: int) -> int:
    """brute_phi, vectorised: count k in [1, q] with gcd(k, q) = 1."""
    k = np.arange(1, q + 1, dtype=np.int32)
    return int(np.count_nonzero(np.gcd(k, q) == 1))


def test_brute_phi_np_matches_loop():
    assert [brute_phi_np(q) for q in range(1, 500)] == \
           [brute_phi(q) for q in range(1, 500)]


def test_phi_matches_brute_force_sampled():
    rng = np.random.default_rng(20260816)
    for q in rng.integers(2000, 10**6, size=120):
        q = int(q)
        assert factorize(q).phi == brute_phi_np(q), q


def test_phi_lower_bound_sqrt():
    # phi(q) >= sqrt(q) with exactly two exceptions, q = 2 and q = 6
    assert phi_of(2) == 1 and phi_of(6) == 2
    for q in range(3, 10_000):
        if q != 6:
            assert phi_of(q) ** 2 >= q, q
        assert phi_of(q) <= q


def test_factor_data_invariants():
    for q in (1, 2, 3, 4, 30, 1024, 510510, 999983):
        fd = factorize(q)
        assert fd.omega == len(fd.factors)
        prod = 1
        for p, e in fd.factors:
            prod *= p**e
        assert prod == q or (q == 1 and prod == 1)


def test_factorize_deterministic():
    a, b = factorize(123456), factorize(123456)
    assert a == b and isinstance(a, FactorData)


def test_omega_of():
    assert omega_of(1) == 0
    assert omega_of(2) == 1
    assert omega_of(60) == 3
    assert omega_of(97) == 1


# ------------------------------------------------------- oscillatory integral

def _I_ref(y: float) -> float:
    # exact identity: int_0^y sin^2 t / t^2 dt = Si(2y) - sin^2(y)/y
    with mp.workdps(50):
        ym = mp.mpf(y)
        return float(mp.si(2 * ym) - mp.sin(ym) ** 2 / ym)


def test_sin2_integral_anchor_one():
    assert abs(sin2_integral(1.0) - 0.89733955852912366) < 1e-10


def test_sin2_integral_small_y_limit():
    y = 1e-3
    # integrand -> 1, so the integral -> y (next order: -y^3/9)
    assert abs(sin2_integral(y) - y) < 2e-10


def test_sin2_integral_large_y():
    v = sin2_integral(1e6)
    assert abs(v - (math.pi / 2 - 5e-7)) < 2.5e-13 + 1e-12


def test_sin2_integral_vs_identity_grid():
    for y in (0.01, 0.5, 1.0, 7.7, 50.0, 99.0, 100.0, 101.0, 314.15, 1e4, 1e5):
        assert abs(sin2_integral(y) - _I_ref(y)) < 1e-10, y


def test_sin2_integral_rejects_nonpositive():
    with pytest.raises(ValueError):
        sin2_integral(0.0)
    with pytest.raises(ValueError):
        sin2_integral(-1.0)


# ---------------------------------------------------------------- theta_of

THETA_REF = {
    0.01: 0.019375681424838,
    1.0: -0.693827073063092,
    5.0: 0.364411451633218,
    100.0: 0.878036784329747,
    357.3587: 0.999989586448656,
    1e4: -0.581903433297903,
    1e6: 0.655715070571583,
}


def test_theta_against_reference():
    for y, ref in THETA_REF.items():
        th = theta_of(y)
        assert isinstance(th, Theta) and th.y == y
        tol = 1e-8 if y < 100 else max(5e-6 * (100.0 / y) ** 3, 1e-12)
        assert abs(th.theta - ref) < tol, (y, th.theta, ref)


def test_theta_definition_consistency():
    for y in (0.5, 3.0, 40.0, 250.0):
        th = theta_of(y)
        direct = 4 * y * y * (sin2_integral(y) - math.pi / 2 + 1 / (2 * y))
        assert abs(th.theta - direct) < 1e-9


def test_theta_bounded_on_log_grid():
    ys = np.logspace(-2, 6, 500)
    worst = max(abs(theta_of(float(y)).theta) for y in ys)
    assert worst <= 1 + 1e-6
    # the grid does approach the extreme (near y ~ 357 the bound is nearly met)
    assert worst > 0.9999
