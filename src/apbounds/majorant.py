"""The 23-term rational majorant of the ordinate weight, certified in exact
arithmetic, plus the companion sums over its coefficients.

The weight g(gamma) = gamma^2 / sqrt((1/4 + gamma^2)(9/4 + gamma^2)) is
dominated for 0 <= gamma <= 5 by F(gamma) = sum_j a_j f(s_j, gamma), a
combination of the scaled Cauchy kernels f(s, gamma) = 4(2s-1) /
((2s-1)^2 + 4 gamma^2) at the half-integer points s_j = 3/4 + j/2.  The
coefficients a_j are read from ``data/table2.txt`` by ``load_table2()``, as
the tuple of integers a_scaled[j - 1] = a_j * SCALE.  Every function that
takes coefficients takes that tuple (None means the published one), so a
test can pass a perturbed copy.  Because every a_j is an exact multiple of
1e-7, both claims

    F >= 0 on [0, inf)        and        F >= g for gamma^2 <= 25

reduce to sign conditions on integer polynomials in t = gamma^2, which are
settled by exact root counts (Descartes' rule of signs with bisection, on
plain integers) rather than sampling.  A dense numerical sweep is kept as an
independent cross-check.

The termwise sum over the kernels cancels catastrophically (terms of size
1e12 collapsing below 1e-6), so F itself is also evaluated through the
integer rational form rather than term by term.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from mpmath import mp

from .margins import BoundEval
from .tables import load_table2

__all__ = [
    "GAMMA_MAX",
    "SCALE",
    "SValue",
    "F_majorant",
    "S_of",
    "build_certificate_polys",
    "count_roots",
    "g_of",
    "pairing_threshold",
    "s_sign_sweep",
    "verify_constants",
    "verify_majorant",
]

SCALE = 10**7  # every coefficient a_j is a_scaled[j] / SCALE exactly

# sum_j a_scaled[j] (2j+1), in 1/SCALE units: the tail mass of the majorant,
# fixed here because the downstream envelope constants were derived from it
TAIL_MASS_SCALED = 239

# bisection levels before a root count is declared undecided; the published
# N and H settle within 15.  Only a multiple root (or roots closer than
# 2^-ROOT_DEPTH of the interval) exhausts it, and the gate then fails closed.
ROOT_DEPTH = 64

# the float cross-check sweeps gamma up to here; the lemma5 record states it
GAMMA_MAX = 1e6


def g_of(gamma):
    """Ordinate weight gamma^2 / sqrt((1/4 + gamma^2)(9/4 + gamma^2));
    scalar in, scalar out; array in, array out."""
    g2 = np.asarray(gamma, dtype=float) ** 2
    out = g2 / np.sqrt((0.25 + g2) * (2.25 + g2))
    if np.ndim(gamma) == 0:
        return float(out)
    return out


def F_majorant(gamma, a_scaled: tuple[int, ...] | None = None):
    """sum_j a_j f(s_j, gamma); scalar in, scalar out; array in, array out.

    Evaluated as (8/SCALE) N(t)/Q(t) with t = gamma^2: the termwise kernel
    sum loses ~18 digits to cancellation, while the integer polynomials are
    well enough conditioned for plain Horner.
    """
    if a_scaled is None:
        a_scaled = load_table2()
    n_desc, q_desc = _float_polys(a_scaled)
    t = np.asarray(gamma, dtype=float) ** 2
    out = (8.0 / SCALE) * np.polyval(n_desc, t) / np.polyval(q_desc, t)
    if np.ndim(gamma) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# exact certificate
# ---------------------------------------------------------------------------

def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _poly_eval(p: list[int], x: int) -> int:
    v = 0
    for coeff in reversed(p):
        v = v * x + coeff
    return v


def _taylor_shift1(p: list[int]) -> list[int]:
    """Coefficients of p(x + 1)."""
    p = list(p)
    for i in range(len(p) - 1):
        for k in range(len(p) - 2, i - 1, -1):
            p[k] += p[k + 1]
    return p


def _sign_variations(p: list[int]) -> int:
    signs = [c > 0 for c in p if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _roots_in_unit(p: list[int], depth: int) -> int | None:
    """Distinct roots of p in (0, 1), or None if unsettled after depth halvings.

    Descartes' rule on (1+x)^n p(1/(1+x)) bounds the count from above with
    the right parity, so 0 or 1 sign variations is exact; otherwise split at
    1/2 (Vincent-Collins-Akritas).  A root on an endpoint shows up as a zero
    coefficient and drops out of the variation count.
    """
    v = _sign_variations(_taylor_shift1(p[::-1]))
    if v < 2:
        return v
    if depth == 0:
        return None
    n = len(p) - 1
    left = [c << (n - k) for k, c in enumerate(p)]  # 2^n p(x/2): (0, 1/2)
    right = _taylor_shift1(left)                    # 2^n p((x+1)/2): (1/2, 1)
    lo = _roots_in_unit(left, depth - 1)
    hi = _roots_in_unit(right, depth - 1)
    if lo is None or hi is None:
        return None
    return lo + (right[0] == 0) + hi  # right[0] = 2^n p(1/2)


def count_roots(p: list[int], hi: int | None = None) -> int | None:
    """Distinct real roots of sum_k p[k] t^k in (0, hi), or in (0, inf) if hi
    is None; None when the count is undecided (zero polynomial, or a cluster
    the bisection cannot separate within ROOT_DEPTH levels)."""
    while p and p[-1] == 0:
        p = p[:-1]
    if not p:
        return None
    if hi is not None:
        return _roots_in_unit([c * hi**k for k, c in enumerate(p)], ROOT_DEPTH)
    # (0, inf) = (0, 1) + {1} + (1, inf); t -> 1/t maps (1, inf) onto (0, 1)
    below = _roots_in_unit(p, ROOT_DEPTH)
    above = _roots_in_unit(p[::-1], ROOT_DEPTH)
    if below is None or above is None:
        return None
    return below + (sum(p) == 0) + above


def build_certificate_polys(
        a_scaled: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Integer polynomials (N, Q) with F(gamma) = (8/SCALE) N(t)/Q(t), t = gamma^2.

    Writing f(s_j, gamma) = 8(2j+1) / ((2j+1)^2 + 16 t) for s_j = 3/4 + j/2,
    Q is the product of the denominators D_j(t) = (2j+1)^2 + 16 t and N the
    matching combination of cofactor products.
    """
    D = [[(2 * j + 1) ** 2, 16] for j in range(1, 24)]
    Q = [1]
    for d in D:
        Q = _poly_mul(Q, d)
    N = [0]
    for j, a in enumerate(a_scaled):
        part = [a * (2 * (j + 1) + 1)]
        for i in range(23):
            if i != j:
                part = _poly_mul(part, D[i])
        N = _poly_add(N, part)
    return N, Q


@lru_cache(maxsize=4)
def _float_polys(a_scaled: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(N, Q) as descending-order float coefficient arrays for np.polyval."""
    N, Q = build_certificate_polys(a_scaled)
    return np.array(N[::-1], dtype=float), np.array(Q[::-1], dtype=float)


def _certificate_gate(a_scaled: tuple[int, ...]) -> str | None:
    """Run the exact-arithmetic gates in order; name of the first failure."""
    N, Q = build_certificate_polys(a_scaled)
    if not _poly_eval(N, 0) > 0:
        return "N0_positive"
    # flipping a coefficient sign can *loosen* the majorant without breaking
    # F >= g, so the tail mass the envelope constants were computed from is
    # pinned as well (it is N's leading coefficient over 16^22)
    if sum(a * (2 * (j + 1) + 1)
           for j, a in enumerate(a_scaled)) != TAIL_MASS_SCALED:
        return "tail_mass"
    n_roots = count_roots(N)
    if n_roots is None:
        return "roots_undecided"
    if n_roots != 0:
        return "N_roots"
    # Hbar(t) = 4 N^2 (1+4t)(9+4t) - SCALE^2 t^2 Q^2 >= 0 on [0, 25] is,
    # given N >= 0, exactly the squared form of F >= g
    H = _poly_mul(_poly_mul([4], _poly_mul(N, N)), _poly_mul([1, 4], [9, 4]))
    H = _poly_add(H, [0, 0] + [-SCALE * SCALE * c for c in _poly_mul(Q, Q)])
    if _poly_eval(H, 0) != 36 * _poly_eval(N, 0) ** 2:
        return "H0_identity"
    if not _poly_eval(H, 25) > 0:
        return "H25_positive"
    h_roots = count_roots(H, 25)
    if h_roots is None:
        return "roots_undecided"
    if h_roots != 0:
        return "H_roots"
    return None


def verify_majorant(a_scaled: tuple[int, ...] | None = None) -> BoundEval:
    """Certify F >= 0 everywhere and F >= g for gamma in [0, 5].

    The verdict rests on the exact root-count certificate; a millionth-point
    float sweep up to GAMMA_MAX independently cross-checks it (domination on
    [0, 5], plain positivity beyond — past gamma = 5 the sign of F is read
    off N(t)/t^22 in a reversed Horner that cannot overflow).  Passing is
    reported as a single eval with a token positive margin, since the
    certificate itself is exact and has no meaningful float margin.
    """
    if a_scaled is None:
        a_scaled = load_table2()
    gate = _certificate_gate(a_scaled)
    if gate is None:
        lo = np.linspace(0.0, 5.0, 200_000)
        if np.min(F_majorant(lo, a_scaled) - g_of(lo)) < -1e-12:
            gate = "sweep"
        else:
            hi = np.geomspace(5.0, GAMMA_MAX, 800_000)
            # N ascending in t is N descending in 1/t
            n_asc = _float_polys(a_scaled)[0][::-1]
            if np.min(np.polyval(n_asc, 1.0 / hi**2)) < 0.0:
                gate = "sweep"
    if gate is not None:
        return BoundEval(f"majorant[certificate-failed:{gate}]", 0.0, 0.0, 0.0)
    return BoundEval("majorant[algebraic-certificate]", 0.0, -1e-9, 0.0)


# ---------------------------------------------------------------------------
# tail sums S(n) = sum_j a_j n^{-s_j}
# ---------------------------------------------------------------------------

class SValue(NamedTuple):
    value: float
    err_bound: float


def S_of(n: int) -> SValue:
    """S(n) = sum_j a_j n^{-s_j} by Horner in u = n^{-1/2}, with an error bound.

    The bound is the standard Horner running-error estimate; callers use it
    to confirm the computed sign is the true sign.  For small n the series
    cancels badly (the error estimate says so), and the sum is redone at 40
    working digits before rounding once to a float.
    """
    a_scaled = load_table2()
    return _S(n, a_scaled, [c / SCALE for c in a_scaled])


def _S(n: int, a_scaled: tuple[int, ...], a: list[float]) -> SValue:
    """S(n) from the coefficients and their floats a[j] = a_scaled[j] / SCALE."""
    if n < 2:
        raise ValueError(f"tail sums start at n = 2, got {n}")
    u = n ** -0.5
    acc = 0.0
    acc_abs = 0.0
    for coeff in reversed(a):
        acc = acc * u + coeff
        acc_abs = acc_abs * u + abs(coeff)
    lead = n ** -1.25  # n^{-s_1} with s_1 = 5/4
    eps = sys.float_info.epsilon
    value = lead * acc
    err = (2 * len(a) + 2) * eps * lead * acc_abs
    if err > abs(value) * 1e-8:
        with mp.workdps(40):
            exact = mp.fsum(
                (mp.mpf(ai) / SCALE) * mp.power(n, -(mp.mpf(3) / 4 + mp.mpf(j) / 2))
                for j, ai in enumerate(a_scaled, start=1))
            value = float(exact)
        err = 4.0 * eps * abs(value)  # one rounding to binary64, padded
    return SValue(value, err)


def s_sign_sweep(lo: int, hi: int) -> tuple[int, ...]:
    """All n in [lo, hi] where S(n) >= 0 (expected: n = 4 alone)."""
    a_scaled = load_table2()
    a = [c / SCALE for c in a_scaled]
    return tuple(n for n in range(lo, hi + 1)
                 if _S(n, a_scaled, a).value >= 0.0)


def pairing_threshold() -> float:
    """Where consecutive-term pairing takes over from the sign sweep.

    Past max_k (a_{2k} / |a_{2k-1}|)^2 each positive term is dominated by its
    negative predecessor, so S(n) < 0 without evaluation.
    """
    a = load_table2()
    return max((a[2 * k - 1] / abs(a[2 * k - 2])) ** 2
               for k in range(1, (len(a) + 1) // 2))


# ---------------------------------------------------------------------------
# companion constant sums
# ---------------------------------------------------------------------------

def verify_constants(a_scaled: tuple[int, ...] | None = None,
                     slack: float = 1e-12) -> list[BoundEval]:
    """Replay the six coefficient-sum inequalities the envelope relies on.

    The rational sums are exact; the digamma and zeta sums are taken at 40
    working digits and rounded once at the end.
    """
    if a_scaled is None:
        a_scaled = load_table2()
    total = Fraction(sum(a_scaled), SCALE)
    s_frac = [Fraction(3, 4) + Fraction(j, 2) for j in range(1, 24)]
    ratio = sum(Fraction(a, SCALE) * (2 / s + 2 / (s - 1))
                for a, s in zip(a_scaled, s_frac))
    with mp.workdps(40):
        a_mp = [mp.mpf(a) / SCALE for a in a_scaled]
        s_mp = [mp.mpf(3) / 4 + mp.mpf(j) / 2 for j in range(1, 24)]
        dig_half = mp.fsum(a * mp.digamma(s / 2) for a, s in zip(a_mp, s_mp))
        dig_shift = mp.fsum(a * mp.digamma((s + 1) / 2)
                            for a, s in zip(a_mp, s_mp))
        zsum = mp.fsum(a * mp.zeta(s, 1, 1) / mp.zeta(s)
                       for a, s in zip(a_mp, s_mp))
        s4 = mp.fsum(a * mp.power(4, -s) for a, s in zip(a_mp, s_mp))
        zeta_weighted = float(zsum + mp.log(2) * s4)
    return [
        BoundEval("sum_a_lower", float(total), 1.4999, slack),
        BoundEval("sum_a_upper", 1.5, float(total), slack),
        BoundEval("ratio_sum", -1.577, float(ratio), slack),
        BoundEval("digamma_half", 0.6552, float(dig_half), slack),
        BoundEval("digamma_shift", 0.7314, float(dig_shift), slack),
        BoundEval("zeta_weighted", 1.3372, zeta_weighted, slack),
    ]
