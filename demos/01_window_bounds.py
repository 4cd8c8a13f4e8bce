"""Prime-counting windows: how wide must an interval be to contain a prime
in every reduced residue class mod q?

The library certifies window lengths of the shape

    h(x) = (alpha * log x + delta * log q + rho) * phi(q) * sqrt(x)

(`h1`), plus a variant whose length scales with sqrt-counts (`hsqrt`).
`verify_thm1_at` evaluates the analytic inequality that guarantees the
window works at a single point (q, x); it returns one BoundEval per
condition, oriented so lhs >= rhs with positive margin means "holds".
"""

from __future__ import annotations

import math

from apbounds.tables import load_table4, load_table5
from apbounds.thm1 import h1, hsqrt, verify_thm1_at, x0_of

params = load_table4()[0]          # the reference row: alpha=1/2, delta=1, rho=30
print(f"reference parameters: alpha={params.alpha}, delta={params.delta}, "
      f"rho={params.rho}")

# --- window sizes at a human scale ------------------------------------
q, x = 3, 1.0e6
print(f"\nwindow lengths at q={q}, x={x:.0e}:")
print(f"  h1    = {h1(params.alpha, params.delta, params.rho, q, x):,.0f}")
print(f"  hsqrt = {hsqrt(params.alpha, params.delta, params.rho, q, x):,.0f}")

# --- the analytic certificate at single points -------------------------
print("\nanalytic certificate at selected points:")
for q, x in [(3, 193_269.0), (3, 23_656.0), (101, 1.0e9)]:
    evals = verify_thm1_at(q, x, params)
    verdict = "holds" if all(e.passed for e in evals) else "fails"
    worst = min(evals, key=lambda e: e.margin)
    print(f"  q={q:>4}, x={x:>12,.0f}: {verdict:6}  "
          f"(tightest: {worst.name}, margin {worst.margin:+.3e})")

# The q=3 failure at x=23,656 is why the finite scan tables exist: below
# each modulus's analytic threshold the claim is confirmed by walking the
# primes directly (see demo 04).

# --- the reference scale x0(q) -----------------------------------------
print("\nreference scale x0(q) = (m * phi(q) * log q)^2 and the verdict there:")
skip = {row_q for row_q, _, _ in load_table5()[0].rows}
for q in (23, 97, 1009, 65_537):
    assert q not in skip
    x = x0_of(params, q)
    ok = all(e.passed for e in verify_thm1_at(q, x, params))
    print(f"  q={q:>6}: x0={x:.3e}  ->  {'holds' if ok else 'fails'}")

print("\nmoduli with finite exceptions (scanned, not certified analytically):")
print(f"  {sorted(skip)}")
