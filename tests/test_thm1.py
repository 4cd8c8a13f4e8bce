"""Tests for single-interval bounds and the large-modulus certification."""
from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest

from apbounds.arith import phi_of
from apbounds.margins import BoundColumn, BoundEval
from apbounds import thm1
from apbounds.tables import load_table4, load_table5, load_table6
from apbounds.thm1 import (
    h1,
    hsqrt,
    tilde_thm1,
    verify_thm1_at,
    verify_thm1_largeq,
    x0_of,
)

ROWS = load_table4()
P1 = ROWS[0]


def by_name(evals, name):
    for e in evals:
        if e.name == name:
            return e
    raise AssertionError(f"no eval named {name!r} in {[e.name for e in evals]}")


def pointwise(q, x, params=P1, sqrt_mode=False):
    """(beta, T, F, Gbar) at (q, x): the formulas verify_thm1_at runs."""
    q, x, phi = thm1.window_operands(q, x)
    beta, T = thm1._beta_T(params, q, x, sqrt_mode, phi)
    lq, sx = np.log(q), np.sqrt(x)
    return (beta, T, thm1._F(lq, np.log(T), T, 1.0 / phi, beta, phi / sx),
            thm1._Gbar(lq, np.log(sx / phi), params, sqrt_mode, beta, T))


def guard_of(evals):
    for e in evals:
        if e.name.startswith("mono_guard"):
            return e
    raise AssertionError(f"no mono_guard eval in {[e.name for e in evals]}")


# ---------------------------------------------------------------- interval widths

def test_h1_definition_point():
    # (0*log4 + 0*log1 + 1) * phi(1) * sqrt(4) = 2
    assert h1(0.0, 0.0, 1.0, 1, 4.0) == pytest.approx(2.0, rel=1e-15)
    # (1*log(e^2)) * 1 * e = 2e
    assert h1(1.0, 0.0, 0.0, 1, math.e**2) == pytest.approx(2.0 * math.e, rel=1e-14)


def test_h1_matches_formula_on_grid():
    rng = random.Random(1)
    for _ in range(50):
        a, d, r = rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 100)
        q = rng.randrange(1, 10_000)
        x = 10 ** rng.uniform(4, 14)
        want = (a * math.log(x) + d * math.log(q) + r) * phi_of(q) * math.sqrt(x)
        assert h1(a, d, r, q, x) == pytest.approx(want, rel=1e-15)


def test_hsqrt_is_h1_with_shifted_slope():
    rng = random.Random(2)
    for _ in range(50):
        a, d, r = rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 100)
        q = rng.randrange(1, 10_000)
        x = 10 ** rng.uniform(4, 14)
        assert hsqrt(a, d, r, q, x) == h1(a + 1.0, d, r, q, x)


def test_h1_monotone_in_x():
    vals = [h1(0.5, 1.0, 30.0, 3, x) for x in (2.4e4, 1e5, 1e6, 1e9, 1e12)]
    assert vals == sorted(vals)
    assert all(v > 0 for v in vals)


# ---------------------------------------------------------------- beta and T

def test_beta_closed_form_at_reference_scale():
    # at x = (m*phi(q)*log q)^2 the log collapses to log m
    x = x0_of(P1, 3)
    beta = pointwise(3, x)[0]
    assert beta == pytest.approx(6.0 * math.log(70.0), rel=1e-12)
    xs = x0_of(P1, 3, sqrt_mode=True)
    beta_s = pointwise(3, xs, sqrt_mode=True)[0]
    assert beta_s == pytest.approx(5.3 * math.log(130.0), rel=1e-12)


def test_T_is_beta_x_over_h():
    for q, x in [(3, 193269.0), (5, 1e10), (17, 3.3e7)]:
        beta, T, _F, _G = pointwise(q, x)
        assert T == pytest.approx(beta * x / h1(0.5, 1.0, 30.0, q, x), rel=1e-12)
        beta_s, T_s, _F, _G = pointwise(q, x, sqrt_mode=True)
        assert T_s == pytest.approx(beta_s * x / hsqrt(0.5, 1.0, 30.0, q, x), rel=1e-12)


def test_beta_domain_error():
    with pytest.raises(ValueError):
        pointwise(3, 4.0)  # sqrt(x) <= phi(q) log q
    with pytest.raises(ValueError):
        pointwise(1, 1e6)  # phi(1) log 1 = 0: no window at any x


# ---------------------------------------------------------------- F and Gbar

def test_F_value_recomputed_independently():
    q, x = 5, 1e10
    phi = phi_of(q)
    beta, T, F, _G = pointwise(q, x)
    want = (
        math.log(q * q * T) * math.log(T) / math.pi
        + 13.4 * math.log(q)
        + 81.8
        + 84.1 / phi
        + (1.58 * math.log(q * T) + 16.08) / beta**2
        + (1.0 + 2.89 / T) * math.log(q * T) / (math.pi * T)
    ) * phi / math.sqrt(x)
    assert F == pytest.approx(want, rel=1e-14)


def test_Gbar_value_recomputed_independently():
    q, x = 5, 1e10
    phi = phi_of(q)
    beta, T, _F, G = pointwise(q, x)
    kappa = 1.0 + 2.0 / (math.pi * beta) + 2.0 / (math.pi * beta**2) \
        + 4.0 * 2.89 / (math.pi * beta * T)
    want = kappa * math.log(q * 6.0 * math.sqrt(x) / (2.0 * 0.5 * phi)) \
        + 0.253 * math.log(q) + 2.0
    assert G == pytest.approx(want, rel=1e-14)


def test_F_in_unit_interval_and_decreasing():
    vals = [pointwise(3, x)[2] for x in (193269.0, 1e6, 1e8, 1e10, 1e13)]
    assert all(0.0 < v < 1.0 for v in vals)
    assert vals == sorted(vals, reverse=True)


def test_Gbar_exceeds_two():
    for q in (3, 10, 1000):
        for x in (1e6, 1e12):
            if (q, x) == (1000, 1e6):  # sqrt(x) < phi(q) log q: no window
                with pytest.raises(ValueError):
                    pointwise(q, x)
                continue
            assert pointwise(q, x)[3] > 2.0
            assert pointwise(q, x, sqrt_mode=True)[3] > 2.0


# ---------------------------------------------------------------- point verification

def test_verify_at_shape_and_names():
    evals = verify_thm1_at(3, 193269.0, P1)
    assert [e.name for e in evals] == ["main", "inv_T", "h_over_x", "x_floor", "T_floor"]


def test_verify_at_first_clean_point():
    for sqrt_mode, x in [(False, 193269.0), (True, 332263.0)]:
        evals = verify_thm1_at(3, x, P1, sqrt_mode=sqrt_mode)
        assert all(e.passed for e in evals), [(e.name, e.margin) for e in evals]


def test_verify_at_inside_exception_interval():
    evals = verify_thm1_at(3, 23656.0, P1)
    assert not by_name(evals, "main").passed
    assert by_name(evals, "inv_T").passed
    assert by_name(evals, "h_over_x").passed
    assert by_name(evals, "x_floor").passed
    assert by_name(evals, "T_floor").passed


def test_verify_at_large_point():
    for sqrt_mode in (False, True):
        evals = verify_thm1_at(5, 1e10, P1, sqrt_mode=sqrt_mode)
        assert all(e.passed for e in evals)


def test_verify_at_flags_small_x_instead_of_raising():
    evals = verify_thm1_at(3, 23000.0, P1)
    assert not by_name(evals, "x_floor").passed


def test_main_margin_ties_back_to_interval_width():
    # The headline inequality compares (1-F) * h/(phi sqrt x) against Gbar
    # (plus the mode's additive terms); check the report agrees with a direct
    # recomputation for random admissible inputs.
    rng = random.Random(20260816)
    for _ in range(1000):
        p = ROWS[rng.randrange(0, 11)]
        sqrt_mode = rng.random() < 0.5
        q = rng.randrange(3, 5000)
        u = 10 ** rng.uniform(0.05, 3.0)
        x = (phi_of(q) * math.log(q) * u) ** 2
        _beta, _T, F, G = pointwise(q, x, p, sqrt_mode)
        lhs = (1.0 - F) * (p.alpha * math.log(x) + p.delta * math.log(q) + p.rho)
        rhs = G + (F * math.log(x) + math.log(11.0 / 6.0) if sqrt_mode else 0.0)
        h = hsqrt(p.alpha, p.delta, p.rho, q, x) if sqrt_mode \
            else h1(p.alpha, p.delta, p.rho, q, x)
        # sqrt mode's width carries one extra log x of slope that the main
        # term does not; peel it off before tying back
        base = h / (phi_of(q) * math.sqrt(x)) - (math.log(x) if sqrt_mode else 0.0)
        assert lhs == pytest.approx((1.0 - F) * base, rel=1e-12)
        main = by_name(verify_thm1_at(q, x, p, sqrt_mode=sqrt_mode), "main")
        assert main.lhs == pytest.approx(lhs, rel=1e-13)
        assert main.rhs == pytest.approx(rhs, rel=1e-13)


def test_main_margin_grows_past_clean_point():
    margins = []
    for k in range(40):
        x = 250000.0 * (1e12 / 250000.0) ** (k / 39)
        margins.append(by_name(verify_thm1_at(3, x, P1), "main").margin)
    assert all(b > a for a, b in zip(margins, margins[1:]))
    assert margins[0] > 0


def test_reference_scale_matches_exception_table_starts():
    for (q, x0, _x) in load_table5()[0].rows:
        assert abs(x0_of(P1, q) - x0) < 1.0, q
    for (q, x0, _x) in load_table6()[0].rows:
        assert abs(x0_of(P1, q, sqrt_mode=True) - x0) < 1.0, q


def within_ulps(a, b, n=4):
    return abs(a - b) <= n * math.ulp(max(abs(a), abs(b)))


def columns_match_scalar_calls(sqrt_mode):
    # the first 3000 moduli of `verify thm1-at --full [--sqrt]`: a point and
    # a column run the same expressions, so they agree bit for bit
    table = load_table6() if sqrt_mode else load_table5()
    skip = {q for q, _, _ in table[0].rows}
    qs = [q for q in range(3, 10**5) if q not in skip][:3000]
    q_col = np.array(qs)
    x_col = x0_of(P1, q_col, sqrt_mode=sqrt_mode)
    cols = verify_thm1_at(q_col, x_col, P1, sqrt_mode=sqrt_mode)
    assert all(isinstance(c, BoundColumn) for c in cols)
    assert all(c.passed.shape == (len(qs),) for c in cols)
    for i, q in enumerate(qs):
        x = x0_of(P1, q, sqrt_mode=sqrt_mode)
        assert x_col[i] == x  # reference scales are record inputs: exact
        evals = verify_thm1_at(q, x, P1, sqrt_mode=sqrt_mode)
        assert [e.name for e in evals] == [c.name for c in cols]
        for e, c in zip(evals, cols):
            assert e.passed == c.passed[i], (q, e.name)
            assert e.lhs == c.lhs[i], (q, e.name, e.lhs, c.lhs[i])
            assert e.rhs == c.rhs[i], (q, e.name, e.rhs, c.rhs[i])


def test_columns_match_scalar_calls_on_full_sqrt_range():
    columns_match_scalar_calls(sqrt_mode=True)


def test_columns_match_scalar_calls_on_full_plain_range():
    columns_match_scalar_calls(sqrt_mode=False)


def test_pointwise_formulas_accept_arrays():
    q = np.array([3, 5, 17, 1000])
    x = np.array([193269.0, 1e10, 3.3e7, 1e12])
    for sqrt_mode in (False, True):
        beta, T, F, G = pointwise(q, x, sqrt_mode=sqrt_mode)
        for i in range(len(q)):
            qi, xi = int(q[i]), float(x[i])
            b, t, f, g = pointwise(qi, xi, sqrt_mode=sqrt_mode)
            assert within_ulps(beta[i], b) and within_ulps(T[i], t)
            assert within_ulps(F[i], f)
            assert within_ulps(G[i], g)
    with pytest.raises(ValueError, match="phi"):
        pointwise(q, np.array([1e6, 4.0, 1e8, 1e12]))


def test_scalar_calls_return_plain_python_values():
    # what a record reads: plain floats and a plain bool
    for e in verify_thm1_at(3, 193269.0, P1):
        assert isinstance(e, BoundEval)
        assert type(e.lhs) is float and type(e.rhs) is float
        assert type(e.margin) is float and type(e.passed) is bool


def test_point_takes_a_modulus_beyond_uint64():
    # a point's modulus is factored, not sieved
    evals = verify_thm1_at(10**20, 1e50, P1)
    assert [e.name for e in evals] == ["main", "inv_T", "h_over_x",
                                       "x_floor", "T_floor"]
    assert all(type(e.lhs) is float and e.passed for e in evals)


def test_array_route_squares_q_in_float(monkeypatch):
    # q*q overflows int64 for q > 3.04e9; sieving that far is out of reach,
    # so the totients of this column are factored instead
    q, x = 4_000_000_007, 1e30
    want = pointwise(q, x)[2]
    monkeypatch.setattr(thm1, "_phi",
                        lambda q: np.array([phi_of(int(v)) for v in q]))
    got = pointwise(np.array([q, q]), np.array([x, x]))[2]
    assert within_ulps(got[0], want) and within_ulps(got[1], want)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_x_without_a_window_raises(bad):
    with pytest.raises(ValueError):
        verify_thm1_at(3, bad, P1)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="phi"):
        verify_thm1_at(np.array([3, 5]), np.array([1e10, bad]), P1)


# ---------------------------------------------------------------- tilde form

def test_tilde_shape_and_closed_forms():
    t = tilde_thm1(P1, math.log(392975))
    F0t, G0t, beta0, T_minus, T_plus, S = t
    assert beta0 == pytest.approx(6.0 * math.log(70.0), rel=1e-14)
    assert 0.0 < F0t < 1.0
    assert 0.0 < T_minus <= T_plus
    assert T_plus == pytest.approx(beta0 * 70.0 / (2 * 0.5 + 1.0), rel=1e-14)
    assert S > 0.0
    assert G0t > 2.0
    ts = tilde_thm1(P1, math.log(18886967), sqrt_mode=True)
    assert ts.beta0 == pytest.approx(5.3 * math.log(130.0), rel=1e-14)


def test_tilde_F_majorizes_exact_F_at_reference_scale():
    for row in ROWS[:11]:
        for sqrt_mode in (False, True):
            q0 = row.q0_sqrt if sqrt_mode else row.q0
            for k in range(12):
                q = int(round(q0 * 10 ** (k / 11)))
                t = tilde_thm1(row, math.log(q), sqrt_mode=sqrt_mode)
                _beta, T, F, G = pointwise(
                    q, x0_of(row, q, sqrt_mode=sqrt_mode), row, sqrt_mode)
                assert t.F0t >= F - 1e-12, (row, sqrt_mode, q)
                assert t.G0t >= G - 1e-12, (row, sqrt_mode, q)
                assert t.T_minus <= T, (row, sqrt_mode, q)


def test_q_at_most_phi_log_q_past_every_threshold():
    # both Theorem 1 majorants rest on q <= phi(q) log q.  Rosser and
    # Schoenfeld (1962, Theorem 15): q / phi(q) < e^gamma log log q +
    # 2.51 / log log q for q >= 3; that bound is at most log q at every
    # table-4 threshold, and the gap grows past it
    def bound(u):  # at u = log q
        return math.exp(np.euler_gamma) * math.log(u) + 2.51 / math.log(u)

    assert min(min(r.q0, r.q0_sqrt) for r in ROWS) == 53_259
    assert bound(math.log(53_259)) == pytest.approx(5.3, abs=0.01)
    for row in ROWS:
        for q0 in (row.q0, row.q0_sqrt):
            us = [math.log(q0) * 2.0 ** (k / 4) for k in range(80)]
            gaps = [u - bound(u) for u in us]
            assert gaps[0] >= 0.0, (row, q0)
            assert all(b > a for a, b in zip(gaps, gaps[1:])), (row, q0)


def test_tilde_pass_implies_exact_pass_at_reference_scale():
    rng = random.Random(3)
    for row in ROWS[:11]:
        for sqrt_mode in (False, True):
            q0 = row.q0_sqrt if sqrt_mode else row.q0
            for q in sorted(rng.randrange(q0, 10 * q0) for _ in range(6)):
                x = x0_of(row, q, sqrt_mode=sqrt_mode)
                main = by_name(verify_thm1_at(q, x, row, sqrt_mode=sqrt_mode),
                               "main")
                assert main.passed, (row, sqrt_mode, q, main.margin)


# ---------------------------------------------------------------- large-q reports

# (row 1-12, sqrt): main margin, guard route, guard margin, segment count.
LARGEQ_ORACLE = {
    (1, False): (1.108532877e+01, "direct", 1.731725912, 0),
    (1, True): (1.575169954e+01, "direct", 1.936027472, 0),
    (2, False): (8.084455614e+00, "segmented", 3.950263916e-3, 1),
    (2, True): (1.038116697e+01, "segmented", 3.029818256e-3, 1),
    (3, False): (1.954097449e+00, "segmented", 1.917099588e-3, 5),
    (3, True): (9.927460092e-1, "segmented", 1.536433783e-3, 2),
    (4, False): (1.018553411e+01, "direct", 2.474208513, 0),
    (4, True): (1.532580288e+01, "direct", 2.600115776, 0),
    (5, False): (4.053413347e+00, "direct", 7.430576376e-1, 0),
    (5, True): (5.861726282e+00, "direct", 9.743424350e-1, 0),
    (6, False): (1.412044872e+00, "segmented", 8.358970906e-4, 1),
    (6, True): (2.424817291e+00, "segmented", 2.993636759e-3, 1),
    (7, False): (4.124582463e+00, "segmented", 2.637453729e-3, 3),
    (7, True): (3.203479980e+00, "segmented", 2.781334308e-3, 5),
    (8, False): (7.894946224e+00, "direct", 1.889071636, 0),
    (8, True): (1.187195528e+01, "direct", 1.914670502, 0),
    (9, False): (3.868896719e+00, "direct", 6.225348720e-1, 0),
    (9, True): (3.843683377e+00, "direct", 1.150456844, 0),
    (10, False): (3.630163646e+00, "direct", 1.856407247e-1, 0),
    (10, True): (4.137581426e+00, "direct", 3.658714890e-1, 0),
    (11, False): (2.137202192e-2, "segmented", 2.951394326e-3, 1),
    (11, True): (6.404455549e-2, "segmented", 1.571179477e-3, 2),
    (12, False): (4.079679021e-3, "direct", 5.071581586e-4, 0),
    (12, True): (1.887911200e-1, "direct", 1.713137752e-3, 0),
}


@pytest.mark.parametrize("idx", range(1, 13))
@pytest.mark.parametrize("sqrt_mode", [False, True])
def test_largeq_frozen_margins(idx, sqrt_mode):
    main_m, route, guard_m, steps = LARGEQ_ORACLE[(idx, sqrt_mode)]
    evals = verify_thm1_largeq(ROWS[idx - 1], sqrt_mode=sqrt_mode)
    assert all(e.passed for e in evals), [(e.name, e.margin) for e in evals]
    names = [e.name for e in evals]
    base = ["main", names[1], "inv_T", "h_over_x"]
    assert names == base + (["F_cap"] if sqrt_mode else [])
    assert by_name(evals, "main").margin == pytest.approx(main_m, rel=1e-6)
    g = guard_of(evals)
    if route == "direct":
        assert g.name == "mono_guard[direct]"
    else:
        assert g.name == f"mono_guard[segmented:{steps}]"
    assert g.margin == pytest.approx(guard_m, rel=1e-6)
    if sqrt_mode:
        fc = by_name(evals, "F_cap")
        alpha = ROWS[idx - 1].alpha
        assert fc.lhs == pytest.approx(alpha / (alpha + 1.0), rel=1e-14)


def test_largeq_segmented_long_march():
    # Pushing the huge-modulus row's threshold down two orders of magnitude in
    # the exponent forces a long segmented walk that still certifies.
    row = dataclasses.replace(ROWS[11], q0=10**400)
    evals = verify_thm1_largeq(row)
    assert all(e.passed for e in evals)
    g = guard_of(evals)
    assert g.name.startswith("mono_guard[segmented:")
    steps = int(g.name.split(":")[1].rstrip("]"))
    assert 1500 < steps < 2000
    assert g.margin > 0


def test_largeq_reports_failure_when_slope_collapses():
    # shrinking ell makes the coefficient of log q too small to ever clear
    # the monotonicity threshold within the step budget
    row = dataclasses.replace(ROWS[11], ell=34.8)
    evals = verify_thm1_largeq(row)
    g = guard_of(evals)
    assert not g.passed
    assert not all(e.passed for e in evals)


def test_guard_walk_is_judged_at_the_run_slack(monkeypatch):
    # A form whose slope test never clears, with z > 0 by only 5e-10 on the
    # first segment and z = -1 on the next: the walk must stop at the second
    # segment when 5e-10 clears the slack, and at the first when it does not,
    # and fail either way.
    logq0 = math.log(ROWS[0].q0)

    def coeffs(params, u, sqrt_mode):
        # (A, K, C, S, mult, t): z(u) = -C, slope test 0 >= 0
        return (0.0, 0.0, -5e-10 if u == logq0 else 1.0, 0.0, 1.0,
                thm1.tilde_thm1(params, u, sqrt_mode))

    monkeypatch.setattr(thm1, "_coeffs", coeffs)
    g = guard_of(verify_thm1_largeq(ROWS[0], slack=0.0))
    assert (g.name, g.passed, g.lhs) == ("mono_guard[segmented:1]", False, -1.0)
    g = guard_of(verify_thm1_largeq(ROWS[0]))
    assert (g.name, g.passed, g.lhs) == ("mono_guard[segmented:0]", False, 5e-10)


def test_guard_slope_test_takes_the_run_slack():
    # row 2's sqrt slope test at log q0 clears at slack 0 but not at 1e-9
    row = ROWS[1]
    assert guard_of(verify_thm1_largeq(row, sqrt_mode=True)).name \
        == "mono_guard[segmented:1]"
    g = guard_of(verify_thm1_largeq(row, sqrt_mode=True, slack=0.0))
    assert g.name == "mono_guard[direct]" and g.passed
