"""Certifying ALL moduli past a threshold at once.

A pointwise certificate (demo 01) covers one (q, x).  To cover every
q >= q0 simultaneously, the inequality is rewritten at the reference
scale x0(q) so that everything becomes a function of u = log q alone;
`verify_thm1_largeq` then checks it at u0 = log q0 and certifies
monotonicity in u via the `mono_guard` evaluation — either a direct
derivative bound or, when that is too tight, a segmented walk over u.
"""

from __future__ import annotations

import math

from apbounds.tables import load_table4
from apbounds.thm1 import tilde_thm1, verify_thm1_largeq

rows = load_table4()


def _fmt_q0(q0: int) -> str:
    s = str(q0)
    if len(s) > 15:
        return f"~10^{len(s) - 1}"
    return f"{q0:,}"


def _show(label: str, sqrt_mode: bool) -> None:
    print(label + "\n")
    print(f"{'alpha':>6} {'delta':>7} {'rho':>5}   {'q0':>14}  verdict   guard route")
    for row in rows:
        evals = verify_thm1_largeq(row, sqrt_mode=sqrt_mode)
        guard = next(e for e in evals if e.name.startswith("mono_guard["))
        route = guard.name[len("mono_guard["):-1]
        ok = "holds" if all(e.passed for e in evals) else "FAILS"
        q0 = row.q0_sqrt if sqrt_mode else row.q0
        print(f"{row.alpha:>6.4g} {row.delta:>7.4g} {row.rho:>5}   "
              f"{_fmt_q0(q0):>14}  {ok:7}  {route}")


_show("large-modulus certification, one line per parameter row:", False)
print()
_show("same rows, sqrt-count variant (thresholds are much larger):", True)

# --- what the reduced form looks like ----------------------------------
row = rows[0]
t = tilde_thm1(row, math.log(row.q0))
print(f"\nreduced quantities for the reference row at q0={row.q0:,}:")
print(f"  F~      = {t.F0t:.6f}    (must stay below its cap)")
print(f"  beta0   = {t.beta0:.3f}")
print(f"  T range = [{t.T_minus:.3e}, {t.T_plus:.3e}]  (lower end must stay >= 20)")
