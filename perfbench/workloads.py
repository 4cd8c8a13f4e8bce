"""The batteries each workload runs, as argument lists for `apbounds.cli.main`.

`scan` and `sweep` run the bundled tables and ignore the seed.
`scan-far` draws its windows from the seed (see `scan_far_windows`).
`selftest` is a tiny battery used only by `selftest.py`.
"""
from __future__ import annotations

import math
import random
from pathlib import Path
from typing import NamedTuple

WORKLOADS = ("scan", "scan-far", "sweep")

_FIXED = {
    # every exception row of both tables: 247 scans
    "scan": [["check", "t5"], ["check", "t6"]],
    # the analytic batteries: every modulus up to 1e5 in sqrt mode, a
    # plain-mode subsample, then `regen-report --full` without lemma5 (its
    # cold certificate takes minutes), i.e. the default report and the
    # thm2 refresh rows with their six expected FAILs
    "sweep": [["verify", "thm1-at", "--full", "--sqrt"],
              ["verify", "thm1-at", "--sample-grid", "1000"],
              ["regen-report"], ["verify", "thm2-tables"]],
    # one t5 row, a few thousand moduli and the constant sums
    "selftest": [["check", "custom", "--q", "3", "--x0", "23656",
                  "--x", "193269", "--params", "0.5,1,30"],
                 ["verify", "thm1-at", "--sample-grid", "3000"],
                 ["verify", "lemma8"]],
}

# scan-far: one window per stratum of log10(x0) over [9, 11]
SCAN_FAR_WINDOWS = 6
SCAN_FAR_LOG10 = (9.0, 11.0)
# integers each window sieves, x0 .. x_end + h(x_end); fixed so that every
# window costs about the same whatever the seed draws
SCAN_FAR_SPAN = 60_000_000
# moduli with phi(q) = 2, whose window h(x) stays under the span up to 1e11
SCAN_FAR_MODULI = (3, 4, 6)


class Window(NamedTuple):
    q: int
    x0: int
    x_end: int
    alpha: float
    delta: float
    rho: float
    sqrt: bool

    def argv(self) -> list[str]:
        args = ["check", "custom", "--q", str(self.q), "--x0", str(self.x0),
                "--x", str(self.x_end),
                "--params", f"{self.alpha!r},{self.delta!r},{self.rho!r}"]
        return args + ["--sqrt"] if self.sqrt else args


def phi(q: int) -> int:
    return sum(1 for a in range(1, q) if math.gcd(a, q) == 1)


def window_h(w: Window, x: float) -> float:
    """(alpha log x + delta log q + rho) phi(q) sqrt(x); alpha + 1 in sqrt mode."""
    alpha = w.alpha + 1.0 if w.sqrt else w.alpha
    return (alpha * math.log(x) + w.delta * math.log(w.q) + w.rho) \
        * phi(w.q) * math.sqrt(x)


def _ratio(tok: str) -> float:
    num, _, den = tok.partition("/")
    return float(num) / float(den or 1)


def table5_params(root: Path) -> list[tuple[float, float, float]]:
    """(alpha, delta, rho) of every parameter block in the bundled table 5."""
    text = (root / "src" / "apbounds" / "data" / "table5.txt").read_text()
    params = []
    for line in text.splitlines():
        if line.startswith("[block]"):
            params.append(tuple(_ratio(t) for t in line.split()[1:4]))
    return params


def scan_far_windows(seed: int, root: Path) -> list[Window]:
    """Disjoint scan windows at large x, drawn from `seed`.

    Each stratum of log10(x0) gets one window; the seed jitters x0 inside
    its stratum and draws q, the table-5 parameter block and the scan mode
    (half the windows are thinned sqrt scans).
    """
    rng = random.Random(seed)
    params = table5_params(root)
    lo, hi = SCAN_FAR_LOG10
    width = (hi - lo) / SCAN_FAR_WINDOWS
    modes = [i % 2 == 1 for i in range(SCAN_FAR_WINDOWS)]
    rng.shuffle(modes)
    windows = []
    for i, sqrt_mode in enumerate(modes):
        top = math.log10(10 ** (lo + (i + 1) * width) - SCAN_FAR_SPAN)
        x0 = int(10 ** rng.uniform(lo + i * width, top))
        alpha, delta, rho = rng.choice(params)
        w = Window(rng.choice(SCAN_FAR_MODULI), x0, 0, alpha, delta, rho,
                   sqrt_mode)
        end = x0 + SCAN_FAR_SPAN
        windows.append(w._replace(x_end=int(end - window_h(w, end))))
    return windows


def calls(workload: str, seed: int, root: Path) -> list[list[str]]:
    """The argument lists one battery of `workload` passes to the CLI."""
    if workload == "scan-far":
        return [w.argv() for w in scan_far_windows(seed, root)]
    return [list(argv) for argv in _FIXED[workload]]
