"""Single-interval bounds and their large-modulus certification.

Two modes run through everything here.  Plain mode bounds the gap to the
next prime in a progression by an interval of half-width
``h1 = (alpha log x + delta log q + rho) phi(q) sqrt(x)``; sqrt mode inflates
the slope by one (``hsqrt``) and in exchange certifies a sqrt(x)-sized count
of primes in the interval.  ``verify_thm1_at`` checks one (q, x) pair
exactly, or equal-length arrays of them in one numpy pass (the pointwise
formulas are written once, over a backend that is `math` for a point and
numpy for arrays); it is their only caller, and their window-height guard
raises on any x with no window.  ``verify_thm1_largeq``
certifies all q at and beyond a threshold by evaluating a majorized form of
the inequality in terms of log q alone and then proving that form monotone
(``_guard``): one walk over log q, each segment's minimum proved positive,
until a slope test clears; one that clears at the threshold itself is the
direct route.  Every test of the walk is judged at the run's slack.
"""
from __future__ import annotations

import math
from math import log, pi
from typing import NamedTuple

import numpy as np

from .arith import phi_of
from .margins import DEFAULT_SLACK, BoundColumn, BoundEval, slack_threshold
from .sieve import phi_table
from .tables import ParamSet

__all__ = [
    "TildeThm1",
    "X_FLOOR",
    "h1",
    "hsqrt",
    "tilde_thm1",
    "verify_thm1_at",
    "verify_thm1_largeq",
    "x0_of",
]

X_FLOOR = 23656  # smallest x any single-interval claim covers

# error-term constants fixed across the whole bound family
_C_LOG = 13.4
_C_ABS = 81.8
_C_PHI = 84.1
_C_B1 = 1.58
_C_B0 = 16.08
_C_T = 2.89


def h1(alpha: float, delta: float, rho: float, q: int, x):
    """Interval half-width (alpha log x + delta log q + rho) phi(q) sqrt(x).

    `x` may be a scalar or a numpy array; the scan checkers lean on that.
    """
    return (alpha * np.log(x) + delta * math.log(q) + rho) * phi_of(q) * np.sqrt(x)


def hsqrt(alpha: float, delta: float, rho: float, q: int, x):
    """Half-width for the sqrt-count mode: the log-x slope gains one."""
    return h1(alpha + 1.0, delta, rho, q, x)


def _hatted(params: ParamSet, sqrt_mode: bool) -> tuple[float, float, float]:
    """(slope a, count scale m, coefficient ell) for the requested mode."""
    if sqrt_mode:
        return params.alpha + 1.0, params.m_sqrt, params.ell_sqrt
    return params.alpha, params.m, params.ell


def _phi(q):
    """phi(q): a single modulus is factored, an array of moduli is served by
    one totient sieve up to its largest entry."""
    if not isinstance(q, np.ndarray):
        return phi_of(int(q))
    return phi_table(int(np.max(q, initial=1)))[q]


def _operands(q, x):
    """(q, x, phi(q), xp): the pointwise formulas' inputs and their backend.

    Two scalars run on `math`, as plain Python floats, so a point costs no
    numpy overhead and takes any int q.  If either is an array, both become
    float64 arrays and the formulas run on numpy (float q keeps q*q clear of
    int64 overflow; it is exact while q < 2^26).
    """
    phi = _phi(q)
    if not (isinstance(q, np.ndarray) or isinstance(x, np.ndarray)):
        return q, x, phi, math
    return np.asarray(q, dtype=float), np.asarray(x, dtype=float), phi, np


def x0_of(params: ParamSet, q, sqrt_mode: bool = False):
    """Reference scale (m phi(q) log q)^2 where the certification starts.

    q may be an array of moduli.  The scales are record inputs, so an array
    call evaluates the scalar formula per modulus (math.log, float pow) and
    reproduces the scalar call bit for bit; np.log and np.square round a
    few of them differently.
    """
    _a, m, _ell = _hatted(params, sqrt_mode)

    def x0(q, phi):
        return (m * phi * math.log(q)) ** 2

    if not isinstance(q, np.ndarray):
        return x0(q, _phi(q))
    return np.array(list(map(x0, q.tolist(), _phi(q).tolist())))


def _beta_T(params: ParamSet, q, x, sqrt_mode: bool, phi, xp):
    """Zero-density window height beta and integration cutoff T = beta x / h.

    Raises ValueError unless 0 < phi(q) log q < sqrt(x) (window height > 0;
    q = 1 has none).  A NaN x fails the test too; a negative one already
    fails math.sqrt on the scalar route and gives a NaN root on the array
    route.
    """
    sx, ref = xp.sqrt(x), phi * xp.log(q)
    ok = (0 < ref) & (ref < sx)
    if not (ok if xp is math else ok.all()):
        if xp is np:
            sx, ref, ok = np.broadcast_arrays(sx, ref, ok)
            i = np.argmin(ok)  # the first failing point
            sx, ref = sx.flat[i], ref.flat[i]
        raise ValueError(f"needs 0 < phi(q) log q < sqrt(x), got "
                         f"phi(q) log q = {ref:g}, sqrt(x) = {sx:g}")
    a, _m, ell = _hatted(params, sqrt_mode)
    beta = ell * xp.log(sx / ref)
    T = beta * sx / (phi * (a * xp.log(x) + params.delta * xp.log(q)
                            + params.rho))
    return beta, T


def _kappa(beta, T):
    """Factor of the log term in Gbar, on either backend."""
    return 1.0 + 2.0 / (pi * beta) + 2.0 / (pi * beta**2) \
        + 4.0 * _C_T / (pi * beta * T)


def _F(q, x, phi, beta, T, xp):
    br = (xp.log(q * q * T) * xp.log(T) / pi
          + _C_LOG * xp.log(q) + _C_ABS + _C_PHI / phi
          + (_C_B1 * xp.log(q * T) + _C_B0) / beta**2
          + (1.0 + _C_T / T) * xp.log(q * T) / (pi * T))
    return br * phi / xp.sqrt(x)


def _Gbar(q, x, params: ParamSet, sqrt_mode: bool, phi, beta, T, xp):
    a, _m, ell = _hatted(params, sqrt_mode)
    return _kappa(beta, T) * xp.log(q * ell * xp.sqrt(x) / (2.0 * a * phi)) \
        + 0.253 * xp.log(q) + 2.0


def verify_thm1_at(q, x, params: ParamSet, sqrt_mode: bool = False,
                   slack: float = DEFAULT_SLACK):
    """Exact check of the headline inequality and its side conditions at (q, x).

    For scalar q and x this returns five BoundEvals.  q and x may instead be
    equal-length arrays; then each of the five inequalities comes back as
    one BoundColumn over the points, evaluated by the same formulas in one
    numpy pass, with phi from one totient sieve.
    """
    alpha, delta, rho = params.alpha, params.delta, params.rho
    a, _m, _ell = _hatted(params, sqrt_mode)
    q, x, phi, xp = _operands(q, x)
    beta, T = _beta_T(params, q, x, sqrt_mode, phi, xp)
    F = _F(q, x, phi, beta, T, xp)
    G = _Gbar(q, x, params, sqrt_mode, phi, beta, T, xp)
    lq, lx = xp.log(q), xp.log(x)
    main_lhs = (1.0 - F) * (alpha * lx + delta * lq + rho)
    main_rhs = G + (F * lx + log(11.0 / 6.0) if sqrt_mode else 0.0)
    h_over_x = (a * lx + delta * lq + rho) * phi / xp.sqrt(x)
    bound = BoundEval if xp is math else BoundColumn
    return [
        bound("main", main_lhs, main_rhs, slack),
        bound("inv_T", 1.0 / 20.0, 1.0 / T, slack),
        bound("h_over_x", 5.0 / 6.0, h_over_x, slack),
        # half-unit shim so the integer floor itself passes cleanly
        bound("x_floor", x, X_FLOOR - 0.5, slack),
        bound("T_floor", T, 20.0, slack),
    ]


# ---------------------------------------------------------------------------
# large-modulus certification: everything as a function of log q
# ---------------------------------------------------------------------------

class TildeThm1(NamedTuple):
    """Majorized ingredients at the reference scale, as functions of log q."""

    F0t: float
    G0t: float
    beta0: float
    T_minus: float
    T_plus: float
    S: float


def tilde_thm1(params: ParamSet, u: float,
               sqrt_mode: bool = False) -> TildeThm1:
    """Evaluate the reference-scale majorants at u = log q."""
    a, m, ell = _hatted(params, sqrt_mode)
    delta, rho = params.delta, params.rho
    lm = log(m)
    llq = log(u)
    beta0 = ell * lm
    T_plus = beta0 * m / (2.0 * a + delta)
    T_minus = beta0 * m * u / (2.0 * a * (lm + u + llq) + delta * u + rho)
    q_inv = math.exp(-u) if u < 700.0 else 0.0
    lTp = log(T_plus)
    F0t = ((2.0 * u + lTp) * lTp / (pi * u)
           + _C_LOG + _C_ABS / u + _C_PHI * q_inv
           + (_C_B1 * (u + lTp) + _C_B0) / (beta0**2 * u)
           + (1.0 + _C_T / T_minus) * (u + lTp) / (pi * T_minus * u)) / m
    K = _kappa(beta0, T_minus)
    G0t = K * (log(ell * m / (2.0 * a)) + u + llq) + 0.253 * u + 2.0
    S = (lTp**2 / pi + _C_ABS + (_C_B1 * lTp + _C_B0) / beta0**2) / m
    return TildeThm1(F0t, G0t, beta0, T_minus, T_plus, S)


def _coeffs(params: ParamSet, logq: float,
            sqrt_mode: bool) -> tuple[float, float, float, float, float, float]:
    """Linear-in-log-q normal form of the majorized main inequality.

    The inequality becomes  A log q - K log log q - C > 0; mult is the
    coefficient the decay envelope S multiplies in the monotonicity shortcut.
    Returns (A, K, C, S, mult, F0t).
    """
    alpha, delta, rho = params.alpha, params.delta, params.rho
    a, m, ell = _hatted(params, sqrt_mode)
    t = tilde_thm1(params, logq, sqrt_mode)
    K = _kappa(t.beta0, t.T_minus)
    F0t, S = t.F0t, t.S
    lm = log(m)
    if not sqrt_mode:
        A = (1.0 - F0t) * (2.0 * alpha + delta) - (1.253 + (K - 1.0))
        C = (F0t - 1.0) * (2.0 * alpha * lm + rho) \
            + K * log(ell * m / (2.0 * alpha)) + 2.0
        mult = 2.0 * alpha + delta
    else:
        A = 2.0 * alpha + delta - (2.0 * alpha + delta + 2.0) * F0t \
            - (1.253 + (K - 1.0))
        C = ((F0t - 1.0) * (2.0 * alpha * lm + rho) + K * log(ell * m / (2.0 * a))
             + 2.0 * F0t * lm + 2.0 + log(11.0 / 6.0))
        mult = 2.0 * alpha + delta + 2.0
    return A, K, C, S, mult, F0t


# the guard walk's segment width in log q, and its step budget
_GUARD_DU, _GUARD_STEPS = 0.05, 4000


def _guard(params: ParamSet, logq0: float, sqrt_mode: bool,
           slack: float) -> BoundEval:
    """Certify the majorized inequality for every log q >= logq0.

    Walk log q upward from logq0 in _GUARD_DU-sized segments.  At each
    segment's left end u, the slope test A u >= K - S * mult proves the
    form monotone from u on and ends the walk ('direct' when u = logq0);
    otherwise the segment's minimum of z(u) = A u - K log u - C, with the
    coefficients frozen at u, must be positive.  Every test is judged at
    `slack`, the record's own pass rule.  The eval's margin is the slope
    margin (direct), the walk's smallest margin, or the test that failed.
    """
    u = logq0
    worst = math.inf
    for k in range(_GUARD_STEPS):
        A, K, C, S, mult, _ = _coeffs(params, u, sqrt_mode)
        lhs, rhs = A * u, K - S * mult
        if lhs - rhs > slack_threshold(lhs, rhs, slack):
            if k == 0:
                return BoundEval("mono_guard[direct]", lhs, rhs, slack)
            return BoundEval(f"mono_guard[segmented:{k}]",
                             min(worst, lhs - rhs), 0.0, slack)
        cands = [u, u + _GUARD_DU]
        if A > 0.0 and u < K / A < u + _GUARD_DU:
            cands.append(K / A)  # interior stationary point of z
        zmin = min(A * v - K * log(v) - C for v in cands)
        if not zmin > slack_threshold(zmin, 0.0, slack):
            return BoundEval(f"mono_guard[segmented:{k}]", zmin, 0.0, slack)
        worst = min(worst, zmin)
        u += _GUARD_DU
    return BoundEval(f"mono_guard[segmented:{_GUARD_STEPS}]", lhs, rhs, slack)


def verify_thm1_largeq(params: ParamSet, sqrt_mode: bool = False,
                       slack: float = DEFAULT_SLACK) -> list[BoundEval]:
    """Certify the single-interval claim for every modulus at or past q0."""
    alpha, delta, rho = params.alpha, params.delta, params.rho
    a, m, ell = _hatted(params, sqrt_mode)
    q0 = params.q0_sqrt if sqrt_mode else params.q0
    logq0 = math.log(q0)
    llq0 = log(logq0)
    A, K, C, _S, _mult, F0t = _coeffs(params, logq0, sqrt_mode)
    num = 2.0 * a * (log(m) + logq0 + llq0) + delta * logq0 + rho
    evals = [
        BoundEval("main", A * logq0 - K * llq0 - C, 0.0, slack),
        _guard(params, logq0, sqrt_mode, slack),
        BoundEval("inv_T", 1.0 / 20.0, num / (ell * m * log(m) * logq0), slack),
        BoundEval("h_over_x", 5.0 / 6.0, num / (m * logq0), slack),
    ]
    if sqrt_mode:
        evals.append(BoundEval("F_cap", alpha / (alpha + 1.0), F0t, slack))
    return evals

