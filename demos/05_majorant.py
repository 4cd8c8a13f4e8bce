"""The smoothing kernel under the hood: 23 weights and their two claims.

All window constants trace back to one function F(gamma) — a weighted sum
of simple kernels f(s_j, gamma) with rigid rational weights a_j — that
must dominate the comparison curve g(gamma) near the origin and stay
nonnegative everywhere.  The same weights make the tail sums
S(n) = sum_j a_j n^{-s_j}, which are negative for every n >= 2 except
n = 4.  Both claims are proved by exact integer root counts (Descartes'
rule of signs, no floating point in the decisive step): `verify_majorant`
for F, `verify_tail_sign` for S(n) at every n at once.  The F and g
printed below come from the demo's own termwise sum at 50 digits (the
terms cancel to about 18 of them), not from the certificate.  A handful
of frozen decimal constants are then re-derived by `verify_constants`,
whose digamma and zeta sums run in the standard library's `decimal` at
50 digits.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp

from apbounds.majorant import (SCALE, verify_constants, verify_majorant,
                               verify_tail_sign)
from apbounds.tables import load_table2

A = load_table2()
print(f"kernel: {len(A)} terms, weights a_j (x 10^7): "
      f"{A[:4]} ... {A[-2:]}")

# --- domination near the origin, nonnegativity beyond ----------------------
# F(gamma) = sum_j a_j 4(2s_j - 1) / ((2s_j - 1)^2 + 4 gamma^2), s_j = 3/4 + j/2
print("\nF vs g on a few points (F must dominate g for gamma <= 5):")
with mp.workdps(50):
    S_J = [mp.mpf(3) / 4 + mp.mpf(j) / 2 for j in range(1, len(A) + 1)]
    for gamma in ("0.5", "2.0", "5.0", "7.9", "18"):
        t = mp.mpf(gamma) ** 2
        F = mp.fsum(mp.mpf(a) / SCALE * 4 * (2 * s - 1)
                    / ((2 * s - 1) ** 2 + 4 * t) for a, s in zip(A, S_J))
        g = t / mp.sqrt((mp.mpf(1) / 4 + t) * (mp.mpf(9) / 4 + t))
        rel = "F >= g" if F >= g else "F <  g (allowed past gamma=5)"
        print(f"  gamma={gamma:>4}: F={float(F):.6g}  g={float(g):.6g}  {rel}")

ev = verify_majorant()
print(f"\nverify_majorant: {'PASS' if ev.passed else 'FAIL'}  ({ev.name})")

# --- the sign of S(n) --------------------------------------------------------
# S(n) = n^{-5/4} R(n^{-1/2}) / SCALE with R(u) = sum_j a_scaled[j] u^j, so
# S(n) has the sign of R at u = n^{-1/2}, which lies in (0, 1/sqrt2]
print("\nS(n) = sum_j a_j n^{-s_j} = n^{-5/4} R(n^{-1/2}) / SCALE")
R = np.polynomial.Polynomial(np.array(A, dtype=float))
roots = sorted(r.real for r in R.roots()
               if abs(r.imag) < 1e-9 and 0 < r.real < 1)
print(f"  roots of R in (0, 1), as floats: "
      f"{', '.join(f'{r:.4f}' for r in roots)}")
with mp.workdps(40):
    for n in (2, 3, 4, 5, 10_284):
        S = mp.fsum(mp.mpf(a) / SCALE * mp.power(n, -(mp.mpf(3) / 4 + j / 2))
                    for j, a in enumerate(A, start=1))
        print(f"  n={n:>6}: u={n ** -0.5:.4f}  S(n) = {float(S):+.9e}")
ev = verify_tail_sign()
print(f"verify_tail_sign: {'PASS' if ev.passed else 'FAIL'}  ({ev.name})")
print("  a pass places one root of R in each of (1/sqrt5, 1/2), (1/2, 1/sqrt3)"
      "\n  and (1/sqrt2, 1) and none elsewhere in (0, 1): S(n) < 0 for every"
      " n >= 2 but 4")

# --- frozen scalar constants re-derived --------------------------------------
print("\nscalar constants re-derived at 50-digit precision:")
for ev in verify_constants():
    print(f"  {ev.name:>14}: lhs={ev.lhs:+.10f}  rhs={ev.rhs:+.10f}  "
          f"margin={ev.margin:+.2e}  {'ok' if ev.passed else 'FAIL'}")
