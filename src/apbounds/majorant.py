"""The 23 table-2 weights a_j and their two claims, certified in exact
arithmetic, plus the companion sums over the weights.

The a_j are read from ``data/table2.txt`` by ``load_table2()`` as the tuple
of integers a_scaled[j - 1] = a_j * SCALE.  Every function that takes
coefficients takes that tuple (None means the published one), so a test
can pass a perturbed copy.  As every a_j is an exact multiple of 1e-7, both
claims reduce to sign conditions on integer polynomials, settled by one
exact root counter (`count_roots`: Descartes' rule of signs with
bisection, on plain integers); each fails closed on an undecided count or
any count or sign other than the expected one.

* `verify_majorant`: F(gamma) = sum_j a_j f(s_j, gamma), with the scaled
  Cauchy kernels f(s, gamma) = 4(2s-1) / ((2s-1)^2 + 4 gamma^2) at
  s_j = 3/4 + j/2, is >= 0 on [0, inf) and dominates g(gamma) = gamma^2 /
  sqrt((1/4 + gamma^2)(9/4 + gamma^2)) for gamma <= 5.  Both claims are
  read off the integer rational form F = (8/SCALE) N(t)/Q(t) in
  t = gamma^2 (`build_certificate_polys`); the root counts are the only
  route to the verdict.
* `verify_tail_sign`: S(n) = sum_j a_j n^{-s_j} < 0 for every n >= 2 but
  n = 4.  S(n) = n^{-5/4} R(n^{-1/2}) / SCALE for the integer polynomial
  R(u) = sum_j a_scaled[j] u^j, so R's roots in (0, 1) and its exact signs
  at u = 0 and u = 1/sqrt(k), k = 5..1, decide every n at once.

`verify_constants` replays the six sums over the weights that lemma8
states: three rational ones, exact, and the digamma and zeta sums, in
`decimal` at 50 digits from the standard library alone.
"""
from __future__ import annotations

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from .margins import DEFAULT_SLACK, BoundEval
from .tables import load_table2

__all__ = [
    "SCALE",
    "build_certificate_polys",
    "count_roots",
    "verify_constants",
    "verify_majorant",
    "verify_tail_sign",
]

SCALE = 10**7  # every coefficient a_j is a_scaled[j] / SCALE exactly

# sum_j a_scaled[j] (2j+1), in 1/SCALE units: the tail mass of the majorant,
# fixed here because the downstream envelope constants were derived from it
TAIL_MASS_SCALED = 239

# bisection levels before a root count is declared undecided; the published
# N and H settle within 15.  Only a multiple root (or roots closer than
# 2^-ROOT_DEPTH of the interval) exhausts it, and the gate then fails closed.
ROOT_DEPTH = 64


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
    """Certify F >= 0 everywhere and F >= g for gamma in [0, 5], from the
    exact root-count certificate (`_certificate_gate`) alone."""
    if a_scaled is None:
        a_scaled = load_table2()
    return _certificate_eval("majorant", _certificate_gate(a_scaled))


def _certificate_eval(claim: str, gate: str | None) -> BoundEval:
    """An exact certificate's eval: a token positive margin if no gate
    failed (an exact verdict has no float margin), else zero."""
    if gate is not None:
        return BoundEval(f"{claim}[certificate-failed:{gate}]", 0.0, 0.0, 0.0)
    return BoundEval(f"{claim}[algebraic-certificate]", 0.0, -1e-9, 0.0)


# ---------------------------------------------------------------------------
# sign of the tail sums S(n) = sum_j a_j n^{-s_j}
# ---------------------------------------------------------------------------

# (k, label, sign of R at u = 1/sqrt(k)); k = None stands for u = 0
_S_CHECKPOINTS = ((None, "0", -1), (5, "1/sqrt5", -1), (4, "1/2", 1),
                  (3, "1/sqrt3", -1), (2, "1/sqrt2", -1), (1, "1", 1))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sign_at_inv_sqrt(p: list[int], k: int) -> int:
    """Exact sign of sum_i p[i] u^i at u = 1/sqrt(k): E + O / sqrt(k) with
    E, O rational (u^i = k^-(i // 2), over sqrt(k) for odd i)."""
    E = sum(Fraction(c, k ** (i // 2)) for i, c in enumerate(p) if i % 2 == 0)
    O = sum(Fraction(c, k ** (i // 2)) for i, c in enumerate(p) if i % 2)
    sE, sO = _sign(E), _sign(O)
    if sE * sO >= 0:  # no cancellation
        return sE or sO
    return _sign(E * E * k - O * O) * sE  # which is larger, or 0


def _tail_sign_gate(a_scaled: tuple[int, ...]) -> str | None:
    """First failed gate of the S(n) sign certificate, or None.

    With exactly three roots in (0, 1), the signs `_S_CHECKPOINTS` put one
    in each of (1/sqrt5, 1/2), (1/2, 1/sqrt3) and (1/sqrt2, 1), so R < 0 on
    (0, 1/sqrt5] (n >= 5) and at 1/sqrt3, 1/sqrt2, and R(1/2) > 0 (n = 4).
    """
    p = list(a_scaled)
    n_roots = count_roots(p, 1)
    if n_roots is None:
        return "roots_undecided"
    if n_roots != 3:
        return "R_roots"
    for k, label, want in _S_CHECKPOINTS:
        got = _sign(p[0]) if k is None else _sign_at_inv_sqrt(p, k)
        if got != want:
            return f"R({label})_sign"
    return None


def verify_tail_sign(a_scaled: tuple[int, ...] | None = None) -> BoundEval:
    """Certify S(n) < 0 for every integer n >= 2 but 4, and S(4) > 0."""
    if a_scaled is None:
        a_scaled = load_table2()
    return _certificate_eval("S_sign", _tail_sign_gate(a_scaled))


# ---------------------------------------------------------------------------
# companion constant sums
# ---------------------------------------------------------------------------

# lemma8's sums are taken in decimal at _DIGITS significant digits; each
# psi, zeta and zeta' value is computed _GUARD digits above that and then
# rounded to it, so the rounding of its own sums cannot reach _DIGITS.
_DIGITS, _GUARD = 50, 10
# Term counts of the expansions: psi is shifted up to at least _N before
# its asymptotic series, zeta sums _N - 1 terms directly before its
# Euler-Maclaurin tail, and both keep _M Bernoulli terms.  Each bound on
# the truncation below is under 2e-62 times the value at these counts, so
# no digit of _DIGITS depends on them.
_N, _M = 30, 40


@functools.cache
def _bernoulli(m: int) -> tuple[Fraction, ...]:
    """B_2, B_4, .., B_2m, exact, from sum_k binom(n + 1, k) B_k = 0 (the
    odd B_k past B_1 are zero)."""
    b = [Fraction(1), Fraction(-1, 2)]
    for n in range(2, 2 * m + 1, 2):
        b += [Fraction(-sum(math.comb(n + 1, k) * b[k] for k in range(n)),
                       n + 1), Fraction(0)]
    return tuple(b[2::2][:m])


def _digamma(x: Decimal) -> Decimal:
    """psi(x) for x > 0, to _DIGITS digits.

    psi(x) = psi(z) - sum_{k < n} 1 / (x + k), with z = x + n >= _N, and
    psi(z) = log z - 1/(2z) - sum_{k=1}^{M} B_2k / (2k z^2k) + R.
    Euler-Maclaurin on sum_{n < L} 1 / (z + n) = psi(z + L) - psi(z), as
    L -> oo, puts R at most the size of the last term kept,
    |B_2M| / (2M z^2M), as |B~_2M(t)| <= |B_2M|: below 2e-65 at z >= 30,
    M = 40, and |psi| > 0.08 at every lemma8 argument.
    """
    with localcontext() as ctx:
        ctx.prec = _DIGITS + _GUARD
        n = max(0, math.ceil(_N - x))
        z = x + n
        inv_z2 = 1 / (z * z)
        tail, power = Decimal(0), Decimal(1)
        for k, b in enumerate(_bernoulli(_M), start=1):
            power *= inv_z2
            tail += b.numerator * power / (2 * k * b.denominator)
        psi = z.ln() - 1 / (2 * z) - tail - sum(1 / (x + k)
                                                for k in range(n))
        ctx.prec = _DIGITS
        return +psi


def _powers(n: int, count: int) -> list[Decimal]:
    """n^-s_j at s_j = 3/4 + j/2, j = 1..count: n^-3/4 r^j with
    r = n^-1/2, from square roots and products only."""
    r = 1 / Decimal(n).sqrt()
    power = r * r.sqrt()
    out = []
    for _ in range(count):
        power *= r
        out.append(power)
    return out


def _zeta_pairs(count: int) -> list[tuple[Decimal, Decimal]]:
    """(zeta(s), zeta'(s)) at s_j = 3/4 + j/2, j = 1..count, to _DIGITS
    digits.

    zeta(s) = sum_{n < N} n^-s + N^(1-s) / (s - 1) + N^-s / 2
              + sum_{k=1}^{M} B_2k / (2k)! (s)_{2k-1} N^(1-s-2k) + R(s),
    (s)_i the rising factorial, and zeta'(s) is its s-derivative term by
    term.  R(s) = -(s)_2M / (2M)! int_N^oo B~_2M(t) t^(-s-2M) dt with
    |B~_2M| <= |B_2M|, so |R| <= T = |B_2M| / (2M)! (s)_2M N^(1-s-2M) /
    (s + 2M - 1), and |R'| <= T (H + log N + 1 / (s + 2M - 1)) with
    H = sum_{i < 2M} 1 / (s + i).  At N = 30, M = 40 and the 23 s_j,
    T < 7e-65 and |R'| < 5e-64, with zeta > 1 and |zeta'| > 1.4e-4: at
    most 1.1e-62 of either value.
    """
    with localcontext() as ctx:
        ctx.prec = _DIGITS + _GUARD
        zeta = [Decimal(1)] * count
        dzeta = [Decimal(0)] * count
        for n in range(2, _N):
            log_n = Decimal(n).ln()
            for j, power in enumerate(_powers(n, count)):
                zeta[j] += power
                dzeta[j] -= log_n * power
        log_n = Decimal(_N).ln()
        coeffs = [b.numerator / Decimal(b.denominator * math.factorial(2 * k))
                  for k, b in enumerate(_bernoulli(_M), start=1)]  # B_2k/(2k)!
        for j, power in enumerate(_powers(_N, count)):  # N^-s
            s = Decimal(3) / 4 + Decimal(j + 1) / 2
            edge = _N * power / (s - 1)  # N^(1-s) / (s - 1)
            zeta[j] += edge + power / 2
            dzeta[j] -= edge * (log_n + 1 / (s - 1)) + log_n * power / 2
            rise, h, term = s, 1 / s, power / _N  # (s)_1, H_1, N^(-s-1)
            for k, c in enumerate(coeffs, start=1):
                part = c * rise * term
                zeta[j] += part
                dzeta[j] += part * (h - log_n)
                rise *= (s + 2 * k - 1) * (s + 2 * k)
                h += 1 / (s + 2 * k - 1) + 1 / (s + 2 * k)
                term /= _N * _N
        ctx.prec = _DIGITS
        return [(+z, +dz) for z, dz in zip(zeta, dzeta)]


def verify_constants(a_scaled: tuple[int, ...] | None = None,
                     slack: float = DEFAULT_SLACK) -> list[BoundEval]:
    """Replay the six coefficient-sum inequalities the envelope relies on.

    The rational sums are exact.  The digamma and zeta sums are taken in
    `decimal` at _DIGITS digits, from psi (`_digamma`), zeta and zeta'
    (`_zeta_pairs`) and 4^-s, and rounded once to a float at the end; the
    standard library serves all of it.
    """
    if a_scaled is None:
        a_scaled = load_table2()
    total = Fraction(sum(a_scaled), SCALE)
    s_frac = [Fraction(3, 4) + Fraction(j, 2) for j in range(1, 24)]
    ratio = sum(Fraction(a, SCALE) * (2 / s + 2 / (s - 1))
                for a, s in zip(a_scaled, s_frac))
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        a_dec = [Decimal(a) / SCALE for a in a_scaled]
        s_dec = [Decimal(3) / 4 + Decimal(j) / 2 for j in range(1, 24)]
        dig_half = sum(a * _digamma(s / 2) for a, s in zip(a_dec, s_dec))
        dig_shift = sum(a * _digamma((s + 1) / 2)
                        for a, s in zip(a_dec, s_dec))
        zsum = sum(a * dz / z for a, (z, dz) in zip(a_dec, _zeta_pairs(23)))
        s4 = sum(a * Decimal(4) ** -s for a, s in zip(a_dec, s_dec))
        zeta_weighted = float(zsum + Decimal(2).ln() * s4)
    return [
        BoundEval("sum_a_lower", float(total), 1.4999, slack),
        BoundEval("sum_a_upper", 1.5, float(total), slack),
        BoundEval("ratio_sum", -1.577, float(ratio), slack),
        BoundEval("digamma_half", 0.6552, float(dig_half), slack),
        BoundEval("digamma_shift", 0.7314, float(dig_shift), slack),
        BoundEval("zeta_weighted", 1.3372, zeta_weighted, slack),
    ]
