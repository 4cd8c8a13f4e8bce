"""Single-interval bounds and their large-modulus certification.

Two modes run through everything here.  Plain mode bounds the gap to the
next prime in a progression by an interval of half-width
``h1 = (alpha log x + delta log q + rho) phi(q) sqrt(x)``; sqrt mode inflates
the slope by one (``hsqrt``) and in exchange certifies a sqrt(x)-sized count
of primes in the interval.  The error terms are written once, ``_F`` and
``_Gbar``, as plain arithmetic on log-space operands.  ``verify_thm1_at``
gives them the exact operands at one (q, x) pair or at equal-length arrays
of them, by the same numpy expressions for a point and a column, and raises
on any point with no window (``window_operands``).  ``tilde_thm1`` gives
``_F`` one-sided operands at the reference scale, in terms of log q alone,
and ``_coeffs`` folds that and ``_Gbar``'s majorant (through ``_kappa``)
into one normal form A log q - K log log q - C;
``verify_thm1_largeq`` certifies all q at and beyond a threshold from that
majorized form and proves it monotone (``_guard``): one walk over log q,
each segment's minimum proved positive, until a slope test clears; one that
clears at the threshold itself is the direct route.  Every test of the walk
is judged at the run's slack.
"""
from __future__ import annotations

import math
from math import log, pi
from typing import NamedTuple

import numpy as np

from .arith import phi_of
from .margins import DEFAULT_SLACK, BoundColumn, BoundEval, clears
from .sieve import phi_segment
from .tables import ParamSet

__all__ = [
    "SQRT_SURCHARGE",
    "T_FLOOR",
    "TildeThm1",
    "X_FLOOR",
    "h1",
    "hsqrt",
    "side_conditions",
    "tilde_thm1",
    "totients",
    "verify_thm1_at",
    "verify_thm1_largeq",
    "window_operands",
    "x0_of",
]

X_FLOOR = 23656  # smallest x any single-interval claim covers
T_FLOOR = 20.0  # smallest integration cutoff T any window claim allows

# what the sqrt-count claim adds to the cost G on top of F log x
SQRT_SURCHARGE = log(11.0 / 6.0)

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


def totients(q):
    """phi(q): a single modulus is factored, an array of moduli is served by
    one segmented totient sieve over the window [min q, max q]."""
    if np.ndim(q) == 0:
        return phi_of(int(q))
    hi = int(np.max(q, initial=1))
    lo = int(np.min(q, initial=hi))
    return phi_segment(lo, hi)[np.asarray(q) - lo]


def window_operands(q, x, phi=None):
    """(q, x, phi(q)) as float64 arrays, 0-d for a point, where (q, x) has
    a window: 0 < phi(q) log q < sqrt(x), so its height is positive.

    q and x are a point or equal-length arrays; `phi`, if given, is
    `totients(q)`, already computed.  Raises ValueError at the first point
    with no window: q = 1, a NaN or negative x, or a q or phi(q) past the
    float range.  The CLI checks a `verify thm1-at` point here.
    """
    rule = "needs 0 < phi(q) log q < sqrt(x), got"
    if phi is None:
        phi = totients(q)
    try:
        q, x, phi = (np.asarray(v, dtype=float) for v in (q, x, phi))
    except OverflowError:
        raise ValueError(f"{rule} phi(q) past the float range") from None
    with np.errstate(invalid="ignore", divide="ignore"):  # a NaN fails ok
        sx, ref = np.sqrt(x), phi * np.log(q)
        ok = (0 < ref) & (ref < sx)
    if not ok.all():
        sx, ref, ok = np.broadcast_arrays(sx, ref, ok)
        i = np.argmin(ok)  # the first failing point
        raise ValueError(f"{rule} phi(q) log q = {ref.flat[i]:g}, "
                         f"sqrt(x) = {sx.flat[i]:g}")
    return q, x, phi


def x0_of(params: ParamSet, q, sqrt_mode: bool = False, phi=None):
    """Reference scale (m phi(q) log q)^2 where the certification starts,
    for a modulus or an array of them; `phi`, if given, is `totients(q)`.

    The square is r * r: numpy's ** 2 rounds a 0-d float and a column
    differently, and the scales are record inputs.
    """
    _a, m, _ell = _hatted(params, sqrt_mode)
    phi = np.asarray(totients(q) if phi is None else phi, dtype=float)
    r = m * phi * np.log(np.asarray(q, dtype=float))
    return r * r


def _beta_T(params: ParamSet, q, x, sqrt_mode: bool, phi):
    """Zero-density window height beta and integration cutoff T = beta x / h,
    from the operands of `window_operands`."""
    sx = np.sqrt(x)
    a, _m, ell = _hatted(params, sqrt_mode)
    beta = ell * np.log(sx / (phi * np.log(q)))
    T = beta * sx / (phi * (a * np.log(x) + params.delta * np.log(q)
                            + params.rho))
    return beta, T


def _kappa(beta, T):
    """Factor of the log term in Gbar."""
    return 1.0 + 2.0 / (pi * beta) + 2.0 / (pi * beta**2) \
        + 4.0 * _C_T / (pi * beta * T)


def _F(lq, lT, T, inv_phi, beta, phi_over_sx):
    """Relative error F from lq = log q, lT = log T, T, 1 / phi(q), beta
    and phi(q) / sqrt(x); plain arithmetic, on floats or numpy arrays."""
    br = ((2.0 * lq + lT) * lT / pi
          + _C_LOG * lq + _C_ABS + _C_PHI * inv_phi
          + (_C_B1 * (lq + lT) + _C_B0) / beta**2
          + (1.0 + _C_T / T) * (lq + lT) / (pi * T))
    return br * phi_over_sx


def _Gbar(lq, log_sx_phi, params: ParamSet, sqrt_mode: bool, beta, T):
    """Additive cost Gbar from lq = log q, log(sqrt(x) / phi(q)), beta, T."""
    a, _m, ell = _hatted(params, sqrt_mode)
    return _kappa(beta, T) * (lq + log(ell / (2.0 * a)) + log_sx_phi) \
        + 0.253 * lq + 2.0


def side_conditions(bound, inv_T, h_over_x, slack: float) -> list:
    """The side conditions 1/T < 1/T_FLOOR and h/x < 5/6 that every window
    claim carries, as two `bound`s (BoundEval, or BoundColumn for columns)."""
    return [bound("inv_T", 1.0 / T_FLOOR, inv_T, slack),
            bound("h_over_x", 5.0 / 6.0, h_over_x, slack)]


def verify_thm1_at(q, x, params: ParamSet, sqrt_mode: bool = False,
                   slack: float = DEFAULT_SLACK, phi=None):
    """Exact check of the headline inequality and its side conditions at (q, x).

    For scalar q and x this returns five BoundEvals.  q and x may instead be
    equal-length arrays; then each of the five inequalities comes back as
    one BoundColumn over the points, with phi from one segmented totient
    sieve over [min q, max q].  A point and a column run the same numpy
    expressions.  A caller that already holds `totients(q)` (the CLI's
    sweep, which computed it for x0) passes it as `phi`.
    """
    q, x, phi = window_operands(q, x, phi)
    beta, T = _beta_T(params, q, x, sqrt_mode, phi)
    lq, lx, sx = np.log(q), np.log(x), np.sqrt(x)
    F = _F(lq, np.log(T), T, 1.0 / phi, beta, phi / sx)
    G = _Gbar(lq, np.log(sx / phi), params, sqrt_mode, beta, T)
    main_lhs = (1.0 - F) * (params.alpha * lx + params.delta * lq + params.rho)
    main_rhs = G + (F * lx + SQRT_SURCHARGE if sqrt_mode else 0.0)
    bound = BoundEval if np.ndim(T) == 0 else BoundColumn
    return [
        bound("main", main_lhs, main_rhs, slack),
        *side_conditions(bound, 1.0 / T, beta / T, slack),  # T = beta x / h
        # half-unit shim so the integer floor itself passes cleanly
        bound("x_floor", x, X_FLOOR - 0.5, slack),
        bound("T_floor", T, T_FLOOR, slack),
    ]


# ---------------------------------------------------------------------------
# large-modulus certification: everything as a function of log q
# ---------------------------------------------------------------------------

class TildeThm1(NamedTuple):
    """Majorized ingredients at the reference scale, as functions of log q."""

    F0t: float
    beta0: float
    T_minus: float
    T_plus: float
    S: float


def tilde_thm1(params: ParamSet, u: float,
               sqrt_mode: bool = False) -> TildeThm1:
    """Evaluate the reference-scale majorants at u = log q.

    F0t is `_F` at one-sided operands.  At x0 = (m phi(q) log q)^2 two
    operands are exact, beta = beta0 = ell log m and sqrt(x0) / phi(q) =
    m u, and T = beta0 m u / (2a log(m phi(q) u) + delta u + rho).
    Everything else rests on one arithmetic fact,
    q <= phi(q) log q: it gives 1 / phi(q) <= u e^-u in F0t, and
    log(m phi(q) u) >= u, so T <= T_plus; phi(q) <= q gives T >= T_minus.
    `_coeffs`' slope needs the same fact, for it replaces log phi(q) by
    log q and drops the log log q part of log x0.  The fact holds past every
    table-4 threshold by Rosser and Schoenfeld (1962), Theorem 15:
    q / phi(q) < e^gamma log log q + 2.51 / log log q for q >= 3.
    """
    a, m, ell = _hatted(params, sqrt_mode)
    lm = log(m)
    beta0 = ell * lm
    T_plus = beta0 * m / (2.0 * a + params.delta)
    T_minus = beta0 * m * u / (2.0 * a * (lm + u + log(u)) + params.delta * u
                               + params.rho)
    lTp = log(T_plus)
    F0t = _F(u, lTp, T_minus, u * math.exp(-u), beta0, 1.0 / (m * u))
    S = (lTp**2 / pi + _C_ABS + (_C_B1 * lTp + _C_B0) / beta0**2) / m
    return TildeThm1(F0t, beta0, T_minus, T_plus, S)


def _coeffs(params: ParamSet, logq: float, sqrt_mode: bool
            ) -> tuple[float, float, float, float, float, TildeThm1]:
    """Linear-in-log-q normal form of the majorized main inequality.

    The inequality becomes  A log q - K log log q - C > 0; mult is the
    coefficient the decay envelope S multiplies in the monotonicity shortcut.
    Returns (A, K, C, S, mult, t), t the majorants at logq.
    """
    alpha, delta, rho = params.alpha, params.delta, params.rho
    a, m, ell = _hatted(params, sqrt_mode)
    t = tilde_thm1(params, logq, sqrt_mode)
    F0t, K, lm = t.F0t, _kappa(t.beta0, t.T_minus), log(m)
    if not sqrt_mode:
        A = (1.0 - F0t) * (2.0 * alpha + delta) - (1.253 + (K - 1.0))
        C = (F0t - 1.0) * (2.0 * alpha * lm + rho) \
            + K * log(ell * m / (2.0 * alpha)) + 2.0
        mult = 2.0 * alpha + delta
    else:
        A = 2.0 * alpha + delta - (2.0 * alpha + delta + 2.0) * F0t \
            - (1.253 + (K - 1.0))
        C = ((F0t - 1.0) * (2.0 * alpha * lm + rho) + K * log(ell * m / (2.0 * a))
             + 2.0 * F0t * lm + 2.0 + SQRT_SURCHARGE)
        mult = 2.0 * alpha + delta + 2.0
    return A, K, C, t.S, mult, t


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
        if clears(lhs, rhs, slack):
            if k == 0:
                return BoundEval("mono_guard[direct]", lhs, rhs, slack)
            return BoundEval(f"mono_guard[segmented:{k}]",
                             min(worst, lhs - rhs), 0.0, slack)
        cands = [u, u + _GUARD_DU]
        if A > 0.0 and u < K / A < u + _GUARD_DU:
            cands.append(K / A)  # interior stationary point of z
        zmin = min(A * v - K * log(v) - C for v in cands)
        if not clears(zmin, 0.0, slack):
            return BoundEval(f"mono_guard[segmented:{k}]", zmin, 0.0, slack)
        worst = min(worst, zmin)
        u += _GUARD_DU
    return BoundEval(f"mono_guard[segmented:{_GUARD_STEPS}]", lhs, rhs, slack)


def verify_thm1_largeq(params: ParamSet, sqrt_mode: bool = False,
                       slack: float = DEFAULT_SLACK) -> list[BoundEval]:
    """Certify the single-interval claim for every modulus at or past q0."""
    q0 = params.q0_sqrt if sqrt_mode else params.q0
    logq0 = math.log(q0)
    A, K, C, _S, _mult, t = _coeffs(params, logq0, sqrt_mode)
    evals = [
        BoundEval("main", A * logq0 - K * log(logq0) - C, 0.0, slack),
        _guard(params, logq0, sqrt_mode, slack),
        # T >= T_minus, and h / x = beta0 / T at x0
        *side_conditions(BoundEval, 1.0 / t.T_minus, t.beta0 / t.T_minus,
                         slack),
    ]
    if sqrt_mode:
        evals.append(BoundEval("F_cap", params.alpha / (params.alpha + 1.0),
                               t.F0t, slack))
    return evals

