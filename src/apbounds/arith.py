"""Arithmetic and special-function primitives.

Everything downstream funnels through these: exact multiplicative data for
a modulus (factorization, totient, number of prime factors) and the
oscillatory sin^2 integral with its normalized residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "FactorData",
    "Theta",
    "factorize",
    "omega_of",
    "phi_of",
    "sin2_integral",
    "theta_of",
]


# ---------------------------------------------------------------------------
# multiplicative structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorData:
    """Multiplicative data for one modulus."""

    q: int
    factors: tuple[tuple[int, int], ...]
    phi: int
    omega: int


@lru_cache(maxsize=None)
def factorize(q: int) -> FactorData:
    if q <= 0:
        raise ValueError(f"positive modulus required, got {q}")
    n = q
    factors: list[tuple[int, int]] = []
    phi = 1
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
            phi *= (p - 1) * p ** (e - 1)
    d, step = 5, 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
            phi *= (d - 1) * d ** (e - 1)
        d += step
        step = 6 - step  # 5, 7, 11, 13, ... wheel
    if n > 1:
        factors.append((n, 1))
        phi *= n - 1
    return FactorData(q=q, factors=tuple(factors), phi=phi,
                      omega=len(factors))


def phi_of(q: int) -> int:
    return factorize(q).phi


def omega_of(q: int) -> int:
    return factorize(q).omega


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
        # only this branch needs mpmath; importing it here keeps it out of
        # every battery that never integrates
        from mpmath import mp
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
