"""Arithmetic and special-function primitives.

Everything downstream funnels through these: exact multiplicative data for
a modulus (factorization, totient, squarefree kernel logs), real digamma,
the logarithmic derivative of zeta on the real axis, and the oscillatory
sin^2 integral with its normalized residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from mpmath import mp

__all__ = [
    "FactorData",
    "Theta",
    "digamma",
    "factorize",
    "omega_of",
    "phi_of",
    "sin2_integral",
    "theta_of",
    "zeta_log_deriv",
]


# ---------------------------------------------------------------------------
# multiplicative structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorData:
    """Multiplicative data for one modulus.

    prime_log_sum is sum over p | q of log(p)/(p-1); log_disc is
    phi(q) * (log q - prime_log_sum), the quantity that controls the
    conductor-discriminant contribution and is nonnegative from q = 3 on.
    """

    q: int
    factors: tuple[tuple[int, int], ...]
    phi: int
    omega: int
    prime_log_sum: float
    log_disc: float


@lru_cache(maxsize=None)
def factorize(q: int) -> FactorData:
    if q <= 0:
        raise ValueError(f"positive modulus required, got {q}")
    n = q
    factors: list[tuple[int, int]] = []
    phi = 1
    pls = 0.0
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
            phi *= (p - 1) * p ** (e - 1)
            pls += math.log(p) / (p - 1)
    d, step = 5, 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
            phi *= (d - 1) * d ** (e - 1)
            pls += math.log(d) / (d - 1)
        d += step
        step = 6 - step  # 5, 7, 11, 13, ... wheel
    if n > 1:
        factors.append((n, 1))
        phi *= n - 1
        pls += math.log(n) / (n - 1)
    log_disc = phi * (math.log(q) - pls)
    return FactorData(q=q, factors=tuple(factors), phi=phi,
                      omega=len(factors), prime_log_sum=pls, log_disc=log_disc)


def phi_of(q: int) -> int:
    return factorize(q).phi


def omega_of(q: int) -> int:
    return factorize(q).omega


# ---------------------------------------------------------------------------
# digamma on the positive real axis
# ---------------------------------------------------------------------------

# _BERN[k] = -B_{2k+2} / (2k+2): coefficients of the asymptotic tail.
_BERN = (-1.0 / 12, 1.0 / 120, -1.0 / 252, 1.0 / 240, -1.0 / 132,
         691.0 / 32760)


def digamma(x: float) -> float:
    """psi(x) for real x > 0, good to ~1e-13 relative."""
    if x <= 0.0:
        raise ValueError(f"digamma needs x > 0, got {x}")
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    p = inv2
    for b in _BERN:
        tail += b * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x + tail


# ---------------------------------------------------------------------------
# zeta'(s)/zeta(s) on the real axis, s > 1
# ---------------------------------------------------------------------------

_B2K = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
        7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
        854513.0 / 138, -236364091.0 / 2730)


def _em_zeta(s: float, N: int = 64, K: int = 12) -> tuple[float, float]:
    """(zeta(s), zeta'(s)) by Euler-Maclaurin, jointly so the quotient is
    consistent to full precision."""
    z = 0.0
    zp = 0.0
    for n in range(1, N):
        ln = math.log(n)
        t = n ** -s
        z += t
        zp -= ln * t
    lnN = math.log(N)
    NS = N ** -s
    z += NS * N / (s - 1) + 0.5 * NS
    zp += -NS * N * lnN / (s - 1) - NS * N / (s - 1) ** 2 - 0.5 * lnN * NS
    # correction terms B_2k/(2k)! * (s)(s+1)...(s+2k-2) * N^{-s-2k+1},
    # differentiated in s via a joint product/derivative recurrence
    fact = 1.0
    prod = s
    dprod = 1.0
    for k in range(1, K + 1):
        two_k = 2 * k
        fact *= (two_k - 1) * two_k
        Npow = N ** (-s - two_k + 1)
        b = _B2K[k - 1] / fact
        z += b * prod * Npow
        zp += b * (dprod - prod * lnN) * Npow
        dprod = dprod * (s + two_k - 1) * (s + two_k) + prod * (2 * s + 4 * k - 1)
        prod = prod * (s + two_k - 1) * (s + two_k)
    return z, zp


def zeta_log_deriv(s: float) -> float:
    if s <= 1.0:
        raise ValueError(f"zeta'/zeta evaluated only right of the pole, got s={s}")
    z, zp = _em_zeta(s)
    return zp / z


# ---------------------------------------------------------------------------
# oscillatory integral and its normalized residual
# ---------------------------------------------------------------------------

def sin2_integral(y: float) -> float:
    """I(y) = integral of sin^2(w)/w^2 over [0, y].

    Below y = 100 it is the closed form Si(2y) - sin^2(y)/y (integrate by
    parts), with the sine integral from mpmath; beyond that the two-sided
    asymptotic expansion around pi/2 - 1/(2y) is already far below double
    rounding.
    """
    if y <= 0.0:
        raise ValueError(f"positive endpoint required, got {y}")
    if y < 100.0:
        return float(mp.si(2.0 * y)) - math.sin(y) ** 2 / y
    s2, c2 = math.sin(2 * y), math.cos(2 * y)
    J = (-s2 / (4 * y**2) + c2 / (4 * y**3)
         + 3 * s2 / (8 * y**4) - 3 * c2 / (4 * y**5))
    return math.pi / 2 - 1 / (2 * y) + J


class Theta(NamedTuple):
    """Normalized residual of I(y) against its envelope: bounded by 1."""

    y: float
    theta: float


def theta_of(y: float) -> Theta:
    if y < 100.0:
        return Theta(y, 4.0 * y * y * (sin2_integral(y) - math.pi / 2 + 1 / (2 * y)))
    # same tail as sin2_integral, with the pi/2 - 1/(2y) cancellation done
    # symbolically: subtracting it back out of the float value would cost
    # eight digits at y = 1e4
    s2, c2 = math.sin(2 * y), math.cos(2 * y)
    return Theta(y, -s2 + c2 / y + 1.5 * s2 / y**2 - 3 * c2 / y**3)
