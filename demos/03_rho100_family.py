"""The rho = 100 family: much shorter windows, certified per modulus band.

Here the window is (log x + 100) * phi(q) * sqrt(x) (and a sqrt-count
variant).  Certification has three layers:

  1. anchors     — `verify_thm2_at` at each small modulus's published
                   starting point x0 (q = 3..12),
  2. band rows   — `verify_thm2_largeq(m, q0)` certifies all q >= q0 with
                   x >= (m * phi(q) * log-factor)^2, falling back to an
                   exact per-modulus refresh scan when the scale-free form
                   is not yet monotone,
  3. growth rows — `verify_thm3` handles exponentially large x (x >= e^q).

Three sqrt-count band rows (m = 19, 20, 21) genuinely fail their refresh
scan; they are reported honestly below, not patched over.
"""

from __future__ import annotations

import math

from apbounds.tables import load_table7, load_table8
from apbounds.thm23 import (corollary_default_n, exact_refresh_scan,
                            tilde_threshold, verify_corollary,
                            verify_thm2_at, verify_thm2_largeq, verify_thm3)

# --- layer 1: anchors ---------------------------------------------------
t7 = load_table7()
print("anchors: the inequality at each modulus's published start x0")
print(f"{'q':>3} {'x0 (plain)':>12} {'margin':>12}   {'x0 (sqrt)':>12} {'margin':>12}")
for q in range(3, 13):
    mp = min(e.margin for e in
             verify_thm2_at(q, math.log(float(t7.plain[q])), slack=1e-12))
    ms = min(e.margin for e in
             verify_thm2_at(q, math.log(float(t7.sqrt[q])), sqrt_mode=True,
                            slack=1e-12))
    print(f"{q:>3} {t7.plain[q]:>12,} {mp:>12.3e}   {t7.sqrt[q]:>12,} {ms:>12.3e}")
print("(q=11 plain sits ~1.3e-10 above zero: real, but thin — the pass")
print(" threshold for this family is 1e-12 instead of the default 1e-9)")

# --- layer 2: band rows --------------------------------------------------
plain8, sqrt8 = load_table8()
print("\nband certification rows (m, q0): scale-free check + refresh fallback")
for label, sqrt_mode, rows in (("plain", False, plain8), ("sqrt", True, sqrt8)):
    for m, q0 in rows:
        evals = verify_thm2_largeq(m, q0, sqrt_mode=sqrt_mode)
        ok = all(e.passed for e in evals)
        routes = [e.name for e in evals if e.name.startswith("exact_refresh")]
        note = f" via {routes[0]}" if routes else ""
        print(f"  {label:5} m={m:>2} q0={q0:>5}: "
              f"{'holds' if ok else 'FAILS'}{note}")

# --- the failures, quantified -------------------------------------------
print("\nthe three failing sqrt rows, quantified by their refresh scans:")
for m, q0 in sqrt8:
    if m not in (19, 20, 21):
        continue
    qstar = tilde_threshold(m, q0, sqrt_mode=True)
    det = exact_refresh_scan(m, q0, qstar, sqrt_mode=True)
    print(f"  m={m}: scale-free form only self-sustains at q>={qstar:,}; "
          f"refresh over [{q0}, {qstar}) leaves "
          f"{det.n_refined_fail} moduli uncovered "
          f"(worst q={det.worst_q}, margin {det.worst_margin:+.3f})")

# --- layer 3: exponential scales -----------------------------------------
print("\nexponential scales (x = e^q), smallest certified q per claim:")
for mode, q_coarse, q_refined in (("first-claim", 220, 35),
                                  ("sqrt-claim", 500, 67)):
    ok_c = all(e.passed for e in verify_thm3(q_coarse, mode=mode))
    ok_r = all(e.passed for e in verify_thm3(q_refined, mode=mode,
                                             refined=True))
    print(f"  {mode:12}: coarse q>={q_coarse} ({'holds' if ok_c else 'FAILS'}), "
          f"refined q>={q_refined} ({'holds' if ok_r else 'FAILS'})")

# --- corollary: how many progressions fit below x ------------------------
print("\nprogression-count lower bound, n = ceil(70 * phi(q) * log q):")
for q in (5, 101, 9973):
    n = corollary_default_n(q)
    ok = all(e.passed for e in verify_corollary(q, n))
    print(f"  q={q:>5}: n={n:>9,}  ->  {'holds' if ok else 'FAILS'}")
