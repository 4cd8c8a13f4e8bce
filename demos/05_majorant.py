"""The smoothing kernel under the hood: a 23-term rational majorant.

All window constants trace back to one function F(gamma) — a weighted sum
of simple kernels f(s_j, gamma) with rigid rational weights a_j — that
must dominate the comparison curve g(gamma) near the origin and stay
nonnegative everywhere.  `verify_majorant` proves both facts through an
exact integer polynomial certificate (root counts by Descartes' rule, no floating
point in the decisive step), then cross-checks on a dense float sweep.

The same weights feed scalar constants: the alternating sums S(n), whose
signs drive a pairing argument, and a handful of frozen decimal constants
re-derived here to 40 digits.
"""

from __future__ import annotations

import numpy as np

from apbounds.majorant import (F_majorant, S_of, g_of, pairing_threshold,
                               s_sign_sweep, verify_constants, verify_majorant)
from apbounds.tables import load_table2

A = load_table2()
print(f"kernel: {len(A)} terms, weights a_j (x 10^7): "
      f"{A[:4]} ... {A[-2:]}")

# --- domination near the origin, nonnegativity beyond ----------------------
print("\nF vs g on a few points (F must dominate g for gamma <= 5):")
for gamma in (0.5, 2.0, 5.0, 7.9):
    F, g = float(F_majorant(gamma)), g_of(gamma)
    rel = "F >= g" if F >= g else "F <  g (allowed past gamma=5)"
    print(f"  gamma={gamma:>4}: F={F:.6f}  g={g:.6f}  {rel}")

ev = verify_majorant()
print(f"\nverify_majorant: {'PASS' if ev.passed else 'FAIL'}  ({ev.name})")

# --- the sign pattern of S(n) ----------------------------------------------
print("\nS(n) = sum_j a_j n^{-s_j}: sign pattern over n = 2..10,284")
pos = s_sign_sweep(2, 10_284)
print(f"  n with S(n) >= 0: {pos}   (exactly n=4)")
for n in (2, 4, 5, 10_284):
    s = S_of(n)
    print(f"  S({n:>6}) = {s.value:+.9e}  (certified error <= {s.err_bound:.1e})")
print(f"  pairing threshold (largest scale the pair argument covers): "
      f"{pairing_threshold():,.1f}")

# --- frozen scalar constants re-derived --------------------------------------
print("\nscalar constants re-derived at 40-digit precision:")
for ev in verify_constants():
    print(f"  {ev.name:>14}: lhs={ev.lhs:+.10f}  rhs={ev.rhs:+.10f}  "
          f"margin={ev.margin:+.2e}  {'ok' if ev.passed else 'FAIL'}")
