"""Fixed-parameter interval bounds (rho = 100 family), the exponential-scale
thresholds, and the explicit totient cap.

The rho = 100 family fixes alpha = 1/2, delta = 1 and trades the free
parameters of the general single-interval bound for sharper constants.  Its
verification splits by modulus size: exact per-modulus anchors for q <= 12,
two multiplier bands up to a few thousand, and a phi-free majorized form
past the tabulated thresholds, with an exact per-modulus refresh scan
covering any window where the majorized form has not yet caught up.

Every exact rho = 100 check (`verify_thm2_at`, both passes of
`exact_refresh_scan` and `verify_thm3`) takes its relative error F and its
additive cost G from `thm2_FG`, which builds G for the claim at hand: the
flat surcharge E(q) or the refined `_a47`, plus the sqrt-count term.

Everything evaluates in log x to stay finite at exponential scales: the
code never forms exp(log_x / 2) with a large argument, only
exp(log(phi) - log_x / 2) and friends.
"""
from __future__ import annotations

import math
from math import exp, log, pi, sqrt
from typing import NamedTuple

from .arith import omega_of, phi_of
from .margins import DEFAULT_SLACK, BoundEval

__all__ = [
    "E_of",
    "RHO2",
    "RefreshDetail",
    "Thm2Context",
    "Thm2Tilde",
    "corollary_default_n",
    "ell_q",
    "exact_refresh_scan",
    "thm2_FG",
    "thm2_context",
    "thm2_tilde",
    "tilde_threshold",
    "verify_corollary",
    "verify_thm2_at",
    "verify_thm2_largeq",
    "verify_thm3",
]

RHO2 = 100.0  # the family's fixed additive width parameter


def E_of(q) -> float:
    """Small-modulus surcharge: 9.3 through q = 12, then 4.0."""
    return 9.3 if q <= 12 else 4.0


def ell_q(q) -> float:
    """log q * log log q, the scale unit of the starting thresholds."""
    if q <= 2:
        raise ValueError(f"needs log log q > 0, got q={q}")
    lq = log(q)
    return lq * log(lq)


class Thm2Context(NamedTuple):
    """Inputs of one rho = 100 evaluation, with phi(q), E(q) and the window
    quantities that its bounds share."""

    q: int
    log_x: float
    phi: int
    E_q: float
    L: float  # log(q^2 x)
    phi_over_sx: float  # phi(q) / sqrt(x)

    def shift(self, sqrt_mode: bool) -> float:
        """rho, plus log x for the sqrt-count claim."""
        return RHO2 + (self.log_x if sqrt_mode else 0.0)


def thm2_context(q: int, log_x: float) -> Thm2Context:
    phi = phi_of(q)
    return Thm2Context(q=q, log_x=log_x, phi=phi, E_q=E_of(q),
                       L=2.0 * log(q) + log_x,
                       phi_over_sx=exp(log(phi) - log_x / 2.0))


def thm2_FG(ctx: Thm2Context, sqrt_mode: bool = False,
            refined: bool = False) -> tuple[float, float]:
    """(F, G) at the context's point, evaluated in log space.

    G is the claim's whole additive cost: with `refined`, the flat
    surcharge E(q) is swapped for the sharper _a47; in `sqrt_mode` the
    sqrt-count claim adds F log x + log(11/6) to that.
    """
    q, log_x, phi = ctx.q, ctx.log_x, ctx.phi
    lq = log(q)
    lphi = log(phi)
    phi_over_sx, L = ctx.phi_over_sx, ctx.L
    lr2 = log(2.0 / pi) + 2.0 * lq + log_x / 2.0 - lphi  # log((2/pi) q^2 sx / phi)
    lr1 = log(2.0 / pi) + log_x / 2.0 - lphi             # log((2/pi) sx / phi)
    prod = lr2 * lr1 / pi
    tail = (0.79 + 16.08 / L) * pi * pi * phi_over_sx
    F = (prod + 13.42 * lq + 81.86 + 84.1 / phi) * phi_over_sx + tail / L
    G = (ctx.E_q
         + (prod + 13.42 * lq) * (lq + log_x / 2.0) * phi_over_sx
         - 0.747 * lq
         + (81.86 + 84.1 / phi) * L * phi_over_sx / 2.0
         + tail / 2.0)
    if refined:
        G = G - ctx.E_q + _a47(ctx, sqrt_mode)
    if sqrt_mode:
        G = G + F * log_x + log(11.0 / 6.0)
    return F, G


def verify_thm2_at(q: int, log_x: float, sqrt_mode: bool = False,
                   slack: float = DEFAULT_SLACK) -> list[BoundEval]:
    """Exact rho = 100 check at one (q, x): main bound plus side conditions."""
    ctx = thm2_context(q, log_x)
    F, G = thm2_FG(ctx, sqrt_mode)
    phi_over_sx, L = ctx.phi_over_sx, ctx.L
    shift = ctx.shift(sqrt_mode)
    return [
        BoundEval("main", (1.0 - F) * RHO2, G, slack),
        BoundEval("inv_T", 1.0 / 20.0,
                  (pi * phi_over_sx) * (0.5 + shift / L), slack),
        BoundEval("h_over_x", 5.0 / 6.0, phi_over_sx * (L / 2.0 + shift), slack),
    ]


# ---------------------------------------------------------------------------
# phi-free majorized layer for large moduli
# ---------------------------------------------------------------------------

class Thm2Tilde(NamedTuple):
    """Majorized quantities at x0 = (m phi(q) ell(q))^2, free of phi.

    phi is replaced by q where that weakens the bound and by sqrt(q) where
    a lower bound on phi is needed, so every field is a one-sided envelope:
    main, invT, hx are margins guaranteed *no better* than the exact ones.
    """

    F0t: float
    G0t: float
    main: float
    invT: float
    hx: float


def thm2_tilde(m: float, q, sqrt_mode: bool = False) -> Thm2Tilde:
    lq = log(q)
    llq = log(lq)
    ell = lq * llq
    ml = m * ell  # sqrt(x0)/phi exactly
    prod = (1.0 / pi) * log((2.0 / pi) * q * q * ml) * log((2.0 / pi) * ml)
    L_minus = 2.0 * log(m * q**1.5 * ell)   # lower bound of log(q^2 x0)
    LG = log(m * q * q * ell)               # upper bound of log(q sqrt(x0))
    F0t = ((prod + 13.42 * lq + 81.86 + 84.1 / sqrt(q)) / ml
           + (0.79 + 16.08 / L_minus) * pi * pi / (L_minus * ml))
    G0t = (E_of(q)
           + (prod + 13.42 * lq) * LG / ml
           - 0.747 * lq
           + (81.86 + 84.1 / sqrt(q)) * LG / ml
           + (0.79 + 16.08 / L_minus) * pi * pi / (2.0 * ml))
    if sqrt_mode:
        G0t = G0t + F0t * 2.0 * log(m * q * ell) + log(11.0 / 6.0)
        invT = 1.0 / 20.0 - (pi / ml) * (
            0.5 + (RHO2 / 2.0 + log(m * q * ell)) / log(m * q**1.5 * ell))
        hx = 5.0 / 6.0 - (log(m * q * q * ell) + 2.0 * log(m * q * ell) + RHO2) / ml
    else:
        invT = 1.0 / 20.0 - (pi / ml) * (
            0.5 + (RHO2 / 2.0) / log(m * q**1.5 * ell))
        hx = 5.0 / 6.0 - (log(m * q * q * ell) + RHO2) / ml
    main = (1.0 - F0t) * RHO2 - G0t
    return Thm2Tilde(F0t=F0t, G0t=G0t, main=main, invT=invT, hx=hx)


def tilde_threshold(m: float, q0: int, sqrt_mode: bool = False) -> int:
    """Smallest integer q >= q0 where the majorized main margin goes positive."""
    def ok(q: int) -> bool:
        return thm2_tilde(m, q, sqrt_mode=sqrt_mode).main > 0.0

    if ok(q0):
        return int(q0)
    lo, hi = int(q0), 2 * int(q0)
    while not ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _a47(ctx: Thm2Context, sqrt_mode: bool) -> float:
    """Refined replacement for the flat surcharge E(q), at the context's x.

    Uses the T >= 20 floor for the truncation term and keeps every
    x-dependent piece in log space.
    """
    q, log_x, phi, L = ctx.q, ctx.log_x, ctx.phi, ctx.L
    beta = L / pi
    h_over_x32 = phi * (L / 2.0 + ctx.shift(sqrt_mode)) * exp(-log_x)
    return (log(2.0 / pi) + 2.53 + 1.638 / phi
            + (2.0 * log(2.0 * pi) / (pi * beta)) * (1.0 - 1.0 / beta)
            + 1.0 / beta
            + 2.0 * 2.89 / 20.0
            + 3.7 * exp(-log_x / 6.0)
            + omega_of(q) * (log(2.0) + log_x) * exp(-log_x / 2.0)
            + 1.7 * h_over_x32)


class RefreshDetail(NamedTuple):
    """Outcome of the exact per-modulus scan between q0 and the tilde threshold."""

    min_margin: float
    n_plain_fail: int
    n_refined_fail: int
    worst_q: int | None
    worst_margin: float
    failures: tuple[tuple[int, float], ...]


def exact_refresh_scan(m: float, q0: int, qstar: int,
                       sqrt_mode: bool = False) -> RefreshDetail:
    """Exact-phi rho = 100 test at x0(q) for every integer q in [q0, qstar).

    Moduli failing with the flat surcharge E(q) are retried with the refined
    replacement _a47; a modulus failing both lands in `failures`.
    """
    min_margin = math.inf
    n_plain = n_refined = 0
    failures: list[tuple[int, float]] = []
    for q in range(int(q0), int(qstar)):
        phi = phi_of(q)
        log_x = 2.0 * log(m * phi * ell_q(q))
        ctx = thm2_context(q, log_x)
        F, G = thm2_FG(ctx, sqrt_mode)
        margin = (1.0 - F) * RHO2 - G
        if margin <= 0.0:
            n_plain += 1
            F, G = thm2_FG(ctx, sqrt_mode, refined=True)
            margin = (1.0 - F) * RHO2 - G
            if margin <= 0.0:
                n_refined += 1
                failures.append((q, margin))
        min_margin = min(min_margin, margin)
    worst_q: int | None = None
    worst_margin = 0.0
    if failures:
        worst_q, worst_margin = min(failures, key=lambda f: f[1])
    return RefreshDetail(min_margin, n_plain, n_refined, worst_q, worst_margin,
                         tuple(failures))


def verify_thm2_largeq(m: float, q0: int, sqrt_mode: bool = False,
                       slack: float = DEFAULT_SLACK) -> list[BoundEval]:
    """Certify the rho = 100 claim for every modulus at or past q0.

    The phi-free majorized margin is tried at q0 first; if it is not yet
    positive there, the exact per-modulus refresh scan covers [q0, q*) and
    the majorized form takes over from its own threshold q*.  Either way a
    200-point monotonicity scan pins the majorized margin as increasing up
    to the hand-off point.
    """
    t = thm2_tilde(m, q0, sqrt_mode=sqrt_mode)
    tilde_main = BoundEval("main", t.main, 0.0, slack)
    refresh: BoundEval | None = None
    grid_hi = int(q0)
    if tilde_main.passed:
        main = tilde_main
    else:
        qstar = tilde_threshold(m, q0, sqrt_mode=sqrt_mode)
        grid_hi = max(grid_hi, qstar)
        d = exact_refresh_scan(m, q0, qstar, sqrt_mode=sqrt_mode)
        main = BoundEval("main", d.min_margin, 0.0, slack)
        refresh = BoundEval(f"exact_refresh[{int(q0)},{qstar})",
                            d.min_margin, 0.0, slack)
    n = 200
    qs = [3.0 * (grid_hi / 3.0) ** (i / (n - 1)) for i in range(n)]
    mains = [thm2_tilde(m, qq, sqrt_mode=sqrt_mode).main for qq in qs]
    worst_step = min(b - a for a, b in zip(mains, mains[1:]))
    evals = [
        main,
        BoundEval("inv_T", 1.0 / 20.0, 1.0 / 20.0 - t.invT, slack),
        BoundEval("h_over_x", 5.0 / 6.0, 5.0 / 6.0 - t.hx, slack),
        BoundEval("mono_scan", worst_step, 0.0, slack),
    ]
    if refresh is not None:
        evals.append(refresh)
    return evals


# ---------------------------------------------------------------------------
# exponential-scale thresholds: x = e^q
# ---------------------------------------------------------------------------

_THM3_MODES = ("first-claim", "sqrt-claim")


def verify_thm3(q: int, mode: str = "first-claim",
                refined: bool = False,
                slack: float = DEFAULT_SLACK) -> list[BoundEval]:
    """Check the x = e^q form of the rho = 100 bound at modulus q.

    first-claim is the single-prime statement, sqrt-claim the sqrt-count
    one; `refined` swaps the flat surcharge E(q) for the sharper _a47.
    """
    if mode not in _THM3_MODES:
        raise ValueError(f"mode must be one of {_THM3_MODES}, got {mode!r}")
    if q < 14:
        raise ValueError(f"exponential-scale claims start at q = 14, got {q}")
    sqrt_mode = mode == "sqrt-claim"
    F, G = thm2_FG(thm2_context(q, float(q)), sqrt_mode, refined)
    return [
        BoundEval("F_lt_1", 1.0, F, slack),
        BoundEval("main", 0.0, G, slack),
    ]


# ---------------------------------------------------------------------------
# explicit totient cap from progression counts
# ---------------------------------------------------------------------------

def corollary_default_n(q: int) -> int:
    """Reference count ceil(70 phi(q) log q) at which the cap is applied."""
    if q < 3:
        raise ValueError(f"needs q >= 3, got {q}")
    return math.ceil(70.0 * phi_of(q) * log(q))


def verify_corollary(q: int, n: int,
                     slack: float = DEFAULT_SLACK) -> list[BoundEval]:
    """Check that n primes in progression force phi(q) below the cap."""
    if q < 3:
        raise ValueError(f"needs q >= 3, got {q}")
    phi = phi_of(q)
    A = 30.0 + 2.0 * log(q * n)
    B = phi * A / n
    H = sqrt((4.0 + 4.0 * B + 2.0 * B * B) / (4.0 + 4.0 * B + B * B))
    expo = A * (2.0 / H - 1.0) - 30.0
    cond1 = 2.0 * exp(expo) - 1.0
    # keep the report finite when the exponential condition fails: the cap
    # formula's square root is clamped at zero instead of going complex
    sq = sqrt(cond1) if cond1 > 0.0 else 0.0
    return [
        BoundEval("main", (n / A) * (sq - 1.0), float(phi), slack),
        BoundEval("growth", A * (2.0 / H - 1.0), 30.0, slack),
        BoundEval("exp_pos", cond1, 1.0, slack),
    ]
