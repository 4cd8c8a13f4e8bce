"""Fixed-parameter interval bounds (rho = 100 family), the exponential-scale
thresholds, and the explicit totient cap.

The rho = 100 family fixes alpha = 1/2, delta = 1 and trades the free
parameters of the general single-interval bound for sharper constants.  Its
verification splits by modulus size: exact per-modulus anchors for q <= 12,
two multiplier bands up to a few thousand, and a phi-free majorized form
past the tabulated thresholds, with an exact per-modulus refresh scan
covering any window where the majorized form has not yet caught up; the
scan and the hand-off judge each margin at the run's slack.

Each error term is written once: `thm2_FG` (F, and the claim's whole
additive cost G) and `_side_evals` read a `Thm2Context`, of exact operands
(`thm2_context`) or of one-sided ones at x0 (`_tilde_context`, the
majorized form).  Everything evaluates in log x to stay finite at
exponential scales: the code never forms exp(log_x / 2) with a large
argument, only exp(-log(sqrt(x) / phi)) and friends.
"""
from __future__ import annotations

import math
from math import exp, log, pi, sqrt
from typing import NamedTuple

import numpy as np

from .arith import omega_of, phi_of
from .margins import CHUNK_POINTS, DEFAULT_SLACK, BoundEval, clears
from .thm1 import (_C_B0, _C_PHI, _C_T, SQRT_SURCHARGE, T_FLOOR,
                   side_conditions, totients)

__all__ = [
    "E_of",
    "RHO2",
    "RefreshDetail",
    "THM3_STARTS",
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
    """Operands of one rho = 100 evaluation: exact from `thm2_context`, or
    from `_tilde_context` one-sided, each on the side that worsens every
    margin."""

    q: int
    log_x: float  # log x, or an upper bound
    phi: float  # phi(q), or a lower bound (read only in _C_PHI / phi and _a47)
    E_q: float
    L: float  # log(q^2 x), or a lower bound: the tail and inv_T
    LG: float  # log(q sqrt(x)), or an upper bound: G and h_over_x
    log_sx_phi: float  # log(sqrt(x) / phi(q))

    @property
    def phi_over_sx(self) -> float:
        return exp(-self.log_sx_phi)

    def shift(self, sqrt_mode: bool) -> float:
        """rho, plus log x for the sqrt-count claim."""
        return RHO2 + (self.log_x if sqrt_mode else 0.0)


def thm2_context(q: int, log_x: float,
                 phi: int | None = None) -> Thm2Context:
    """Exact operands at (q, x); `phi`, if given, is phi(q), already
    computed."""
    if phi is None:
        phi = phi_of(q)
    L = 2.0 * log(q) + log_x
    return Thm2Context(q=q, log_x=log_x, phi=phi, E_q=E_of(q), L=L,
                       LG=L / 2.0, log_sx_phi=log_x / 2.0 - log(phi))


def thm2_FG(ctx: Thm2Context, sqrt_mode: bool = False,
            refined: bool = False) -> tuple[float, float]:
    """(F, G) from the context's operands, evaluated in log space.

    G is the claim's whole additive cost: with `refined`, the flat
    surcharge E(q) is swapped for the sharper _a47; in `sqrt_mode` the
    sqrt-count claim adds F log x + log(11/6) to that.
    """
    lq, L, LG, phi_over_sx = log(ctx.q), ctx.L, ctx.LG, ctx.phi_over_sx
    lr1 = log(2.0 / pi) + ctx.log_sx_phi  # log((2/pi) sx / phi)
    prod = (lr1 + 2.0 * lq) * lr1 / pi    # times log((2/pi) q^2 sx / phi)
    # over L, the tail's second term is _C_B0 / beta^2 with beta = L / pi
    tail = (0.79 + _C_B0 / L) * pi * pi * phi_over_sx
    F = (prod + 13.42 * lq + 81.86 + _C_PHI / ctx.phi) * phi_over_sx \
        + tail / L
    G = (ctx.E_q
         + (prod + 13.42 * lq) * LG * phi_over_sx
         - 0.747 * lq
         + (81.86 + _C_PHI / ctx.phi) * LG * phi_over_sx
         + tail / 2.0)
    if refined:
        G = G - ctx.E_q + _a47(ctx, sqrt_mode)
    if sqrt_mode:
        G = G + F * ctx.log_x + SQRT_SURCHARGE
    return F, G


def _side_evals(ctx: Thm2Context, sqrt_mode: bool,
                slack: float) -> list[BoundEval]:
    """The side conditions at the context (`thm1.side_conditions`)."""
    phi_over_sx, shift = ctx.phi_over_sx, ctx.shift(sqrt_mode)
    return side_conditions(BoundEval,
                           (pi * phi_over_sx) * (0.5 + shift / ctx.L),
                           phi_over_sx * (ctx.LG + shift), slack)


def verify_thm2_at(q: int, log_x: float, sqrt_mode: bool = False,
                   slack: float = DEFAULT_SLACK) -> list[BoundEval]:
    """Exact rho = 100 check at one (q, x): main bound plus side conditions."""
    ctx = thm2_context(q, log_x)
    F, G = thm2_FG(ctx, sqrt_mode)
    return [BoundEval("main", (1.0 - F) * RHO2, G, slack),
            *_side_evals(ctx, sqrt_mode, slack)]


# ---------------------------------------------------------------------------
# phi-free majorized layer for large moduli
# ---------------------------------------------------------------------------

def _tilde_context(m: float, q) -> Thm2Context:
    """One-sided operands at x0 = (m phi(q) ell(q))^2, free of phi.

    sqrt(x0) / phi = m ell(q) holds exactly; sqrt(q) <= phi(q) <= q (every
    q but 2 and 6) gives the rest: phi >= sqrt(q), L = log(q^2 x0) >=
    2 log(m q^1.5 ell), LG = log(q sqrt(x0)) <= log(m q^2 ell) and
    log x0 <= 2 log(m q ell).
    """
    lq, lml = log(q), log(m * ell_q(q))
    return Thm2Context(q=q, log_x=2.0 * (lml + lq), phi=sqrt(q), E_q=E_of(q),
                       L=2.0 * (lml + 1.5 * lq), LG=lml + 2.0 * lq,
                       log_sx_phi=lml)


class Thm2Tilde(NamedTuple):
    """Majorized F and G at x0, and the main margin they give, which is no
    better than the exact one."""

    F0t: float
    G0t: float
    main: float


def thm2_tilde(m: float, q, sqrt_mode: bool = False) -> Thm2Tilde:
    F0t, G0t = thm2_FG(_tilde_context(m, q), sqrt_mode)
    return Thm2Tilde(F0t, G0t, (1.0 - F0t) * RHO2 - G0t)


def tilde_threshold(m: float, q0: int, sqrt_mode: bool = False,
                    slack: float = DEFAULT_SLACK) -> int:
    """Smallest integer q >= q0 where the majorized main margin clears
    `slack`.  The bisection finds it only if that margin is monotone on
    [q0, q*]: nothing here checks it, and the tests walk every q of the
    four refresh rows of table 8 (plain m = 15, sqrt m = 19, 20, 21)."""
    def ok(q: int):
        return clears(thm2_tilde(m, q, sqrt_mode=sqrt_mode).main, 0.0, slack)

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

    Uses the T >= T_FLOOR floor for the truncation term and keeps every
    x-dependent piece in log space.
    """
    q, log_x, phi, L = ctx.q, ctx.log_x, ctx.phi, ctx.L
    beta = L / pi
    h_over_x32 = phi * (ctx.LG + ctx.shift(sqrt_mode)) * exp(-log_x)
    return (log(2.0 / pi) + 2.53 + 1.638 / phi
            + (2.0 * log(2.0 * pi) / (pi * beta)) * (1.0 - 1.0 / beta)
            + 1.0 / beta
            + 2.0 * _C_T / T_FLOOR
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
                       sqrt_mode: bool = False,
                       slack: float = DEFAULT_SLACK) -> RefreshDetail:
    """Exact-phi rho = 100 test at x0(q) for every integer q in [q0, qstar).

    The moduli go CHUNK_POINTS at a time: each chunk's phi column comes
    from one `thm1.totients` window sieve (so qstar - 1 is at most
    `sieve.PHI_HI`), and each modulus is then judged on scalar `math`, as
    `verify_thm2_at` judges it.  Moduli failing with the flat surcharge
    E(q) are retried with the refined replacement _a47; a modulus failing
    both lands in `failures`.  Each margin is judged at `slack`, as the
    refresh record is.
    """
    min_margin = math.inf
    n_plain = n_refined = 0
    failures: list[tuple[int, float]] = []
    q0, qstar = int(q0), int(qstar)
    for lo in range(q0, qstar, CHUNK_POINTS):
        qs = np.arange(lo, min(lo + CHUNK_POINTS, qstar), dtype=np.int64)
        for q, phi in zip(qs.tolist(), totients(qs).tolist()):
            ctx = thm2_context(q, 2.0 * log(m * phi * ell_q(q)), phi=phi)
            F, G = thm2_FG(ctx, sqrt_mode)
            margin = (1.0 - F) * RHO2 - G
            if not clears(margin, 0.0, slack):
                n_plain += 1
                F, G = thm2_FG(ctx, sqrt_mode, refined=True)
                margin = (1.0 - F) * RHO2 - G
                if not clears(margin, 0.0, slack):
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

    The phi-free majorized margin is tried at q0 first; if it does not
    clear the slack there, the exact per-modulus refresh scan covers [q0, q*) and
    the majorized form takes over from its own threshold q*.  Either way a
    200-point monotonicity scan pins the majorized margin as increasing up
    to the hand-off point.
    """
    tilde_main = BoundEval("main", thm2_tilde(m, q0, sqrt_mode).main, 0.0,
                           slack)
    refresh: BoundEval | None = None
    grid_hi = int(q0)
    if tilde_main.passed:
        main = tilde_main
    else:
        qstar = tilde_threshold(m, q0, sqrt_mode, slack)
        grid_hi = max(grid_hi, qstar)
        d = exact_refresh_scan(m, q0, qstar, sqrt_mode, slack)
        main = BoundEval("main", d.min_margin, 0.0, slack)
        refresh = BoundEval(f"exact_refresh[{int(q0)},{qstar})",
                            d.min_margin, 0.0, slack)
    n = 200
    qs = [3.0 * (grid_hi / 3.0) ** (i / (n - 1)) for i in range(n)]
    mains = [thm2_tilde(m, qq, sqrt_mode=sqrt_mode).main for qq in qs]
    worst_step = min(b - a for a, b in zip(mains, mains[1:]))
    evals = [main, *_side_evals(_tilde_context(m, q0), sqrt_mode, slack),
             BoundEval("mono_scan", worst_step, 0.0, slack)]
    if refresh is not None:
        evals.append(refresh)
    return evals


# ---------------------------------------------------------------------------
# exponential-scale thresholds: x = e^q
# ---------------------------------------------------------------------------

#: Where each claim of Theorem 3 starts: mode -> (q with the flat
#: surcharge E(q), q with the refined one).
THM3_STARTS = {"first-claim": (220, 35), "sqrt-claim": (500, 67)}


def verify_thm3(q: int, mode: str = "first-claim",
                refined: bool = False,
                slack: float = DEFAULT_SLACK) -> list[BoundEval]:
    """Check the x = e^q form of the rho = 100 bound at modulus q.

    first-claim is the single-prime statement, sqrt-claim the sqrt-count
    one; `refined` swaps the flat surcharge E(q) for the sharper _a47.
    """
    if mode not in THM3_STARTS:
        raise ValueError(f"mode must be one of {tuple(THM3_STARTS)}, "
                         f"got {mode!r}")
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
