"""Below the analytic threshold the claims are settled by brute force:
walk every prime in every reduced class and confirm no window is missed.

`check1` verifies the plain window h1: for consecutive primes p < p' in
the same class mod q, p' must arrive before p + h1(p) (plus an endpoint
sweep).  `check_sqrt` verifies the sqrt-count window by only *inspecting*
roughly every sqrt(p)-th prime — enough because that window counts
primes, not gaps.  Both stream primes in chunks, so memory stays flat.
A table scan sieves the union of its rows' ranges once and feeds every
segment to each row that overlaps it.  `check1` settles a passing stretch
of primes without reading each prime's class: if every class shows up
among the first few primes of every block, and two blocks span less than
a window, no gap can fail (`primes_proved` counts the primes settled so).
"""

from __future__ import annotations

from apbounds.checkers import check1, check_sqrt, run_exception_tables

# --- one row by hand ------------------------------------------------------
rep = check1(0.5, 1.0, 30.0, 3, 23_656, 193_269)
print("single row, q=3 on [23,656, 193,269] (the plain reference window):")
print(f"  failures={len(rep.failures)}, primes scanned={rep.primes_scanned:,}, "
      f"{rep.wall_time:.2f}s")

rep = check_sqrt(0.5, 1.0, 30.0, 3, 23_656, 332_263)
print("same modulus, sqrt-count window (thinned inspection):")
print(f"  failures={len(rep.failures)}, primes scanned={rep.primes_scanned:,}, "
      f"{rep.wall_time:.2f}s")

# --- a deliberately broken window -----------------------------------------
rep = check1(0.0, 0.0, 0.1229, 3, 10_000, 100_000)
print("\ndeliberately tiny window (rho=0.1229, no log growth):")
print(f"  failures={len(rep.failures)} — first few: {rep.failures[:3]}")

# --- a whole parameter block ----------------------------------------------
print("\ntable scan, block 2 of the plain exception table:")
for rep in run_exception_tables("t5", block=2):
    print(f"  q={rep.q:>2} [{rep.x0:>7,}, {rep.x_end:>9,}]: "
          f"{len(rep.failures)} failures, {rep.primes_scanned:,} primes, "
          f"{rep.primes_proved / rep.primes_scanned:.0%} proved by block "
          f"samples, {rep.wall_time:.2f}s")

print("\n(the full tables are `apbounds check t5` / `check t6`, their sieve")
print(" blocks taken on every usable CPU; add --block B for one block)")
