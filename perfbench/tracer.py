"""Spans around the calls into each apbounds layer, for the traced run.

The tracer rebinds each layer's entry points where their callers look them
up (for example `apbounds.cli.verify_thm1_at`), so nothing inside the
package changes.  A span is (layer, name, start, end, parent); generator
entry points get one span per `next()`.  Spans stay in memory until the
battery ends.  `BoundEval` constructions are counted, not timed.
"""
from __future__ import annotations

import importlib
import json
import time
from functools import wraps

# layer -> (module the caller lives in, name bound there)
ENTRY_POINTS = {
    "sieve": [("apbounds.checkers", "prime_array_segments"),
              ("apbounds.cli", "phi_table")],
    "checkers": [("apbounds.cli", "run_exception_tables"),
                 ("apbounds.cli", "check1"),
                 ("apbounds.cli", "check_sqrt"),
                 ("apbounds.checkers", "check1"),
                 ("apbounds.checkers", "check_sqrt")],
    "thm1": [("apbounds.cli", "verify_thm1_at"),
             ("apbounds.cli", "verify_thm1_largeq"),
             ("apbounds.cli", "x0_of")],
    "thm23": [("apbounds.cli", name) for name in (
        "verify_thm2_at", "verify_thm2_largeq", "verify_thm3",
        "verify_corollary", "corollary_default_n")],
    "majorant": [("apbounds.cli", "verify_constants"),
                 ("apbounds.cli", "verify_majorant")],
    "tables": [("apbounds.cli", f"load_table{i}") for i in (4, 5, 6, 7, 8)]
    + [("apbounds.checkers", "load_table5"),
       ("apbounds.checkers", "load_table6")],
}
BOUND_EVAL_USERS = ("apbounds.cli", "apbounds.thm1", "apbounds.thm23",
                    "apbounds.majorant")

LAYER, NAME, START, END, PARENT = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]
        self.sieve_ranges: list[tuple[int, int]] = []
        self.sieve_primes = 0
        self.evals = 0
        self.evals_failed = 0

    # ------------------------------------------------------------ spans

    def _open(self, layer: str, name: str) -> int:
        i = len(self.spans)
        self.spans.append([layer, name, time.perf_counter(), 0.0,
                           self._stack[-1]])
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.spans[i][END] = time.perf_counter()
        self._stack.pop()

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        i = self._open(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def _timed_segments(self, it):
        while True:
            i = self._open("sieve", "prime_array_segments.next")
            try:
                seg = next(it)
            except StopIteration:
                return
            finally:
                self._close(i)
            self.sieve_primes += len(seg)
            yield seg

    # ------------------------------------------------------------ wrappers

    def _wrap(self, layer: str, name: str, fn):
        if name == "prime_array_segments":  # the one generator entry point
            @wraps(fn)
            def gen_wrapper(lo, hi, *args, **kwargs):
                self.sieve_ranges.append((max(int(lo), 2), int(hi)))
                return self._timed_segments(fn(lo, hi, *args, **kwargs))
            return gen_wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, name, fn, *args, **kwargs)
        return wrapper

    def _counting(self, cls):
        def bound_eval(*args, **kwargs):
            ev = cls(*args, **kwargs)
            self.evals += 1
            self.evals_failed += not ev.passed
            return ev
        return bound_eval

    def install(self) -> None:
        """Rebind every entry point in its caller's namespace."""
        for layer, sites in ENTRY_POINTS.items():
            for module, name in sites:
                mod = importlib.import_module(module)
                setattr(mod, name, self._wrap(layer, name, getattr(mod, name)))
        for module in BOUND_EVAL_USERS:
            mod = importlib.import_module(module)
            mod.BoundEval = self._counting(mod.BoundEval)

    # ------------------------------------------------------------ metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "layer": s[LAYER],
                                     "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT]})
                         + "\n")

    def layer_times(self) -> tuple[dict, dict, dict]:
        """Per layer: busy time (outermost spans), self time, span count."""
        busy: dict[str, float] = {}
        own: dict[str, float] = {}
        count: dict[str, int] = {}
        for s in self.spans:
            d = s[END] - s[START]
            layer = s[LAYER]
            own[layer] = own.get(layer, 0.0) + d
            count[layer] = count.get(layer, 0) + 1
            parent = self.spans[s[PARENT]] if s[PARENT] >= 0 else None
            if parent is None or parent[LAYER] != layer:
                busy[layer] = busy.get(layer, 0.0) + d
            if parent is not None:
                own[parent[LAYER]] = own.get(parent[LAYER], 0.0) - d
        return busy, own, count

    def named_time(self, *names: str) -> tuple[float, int]:
        spans = [s for s in self.spans if s[NAME] in names]
        return sum(s[END] - s[START] for s in spans), len(spans)


def union_length(ranges: list[tuple[int, int]]) -> int:
    """Integers covered by the union of closed ranges [lo, hi]."""
    total, reach = 0, None
    for lo, hi in sorted(ranges):
        if reach is not None and lo <= reach:
            if hi > reach:
                total += hi - reach
                reach = hi
            continue
        total += hi - lo + 1
        reach = hi
    return total


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, tables_setup_s: float, records: dict,
                  factorize_info) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced battery, as name -> (value, unit).

    `records` holds what the worker read back from the report files:
    counts, bytes, primes scanned and refresh moduli.
    """
    busy, own, count = tracer.layer_times()
    seg_s, _ = tracer.named_time("prime_array_segments.next")
    scan_s, rows = tracer.named_time("check1", "check_sqrt")
    at_s, moduli = tracer.named_time("verify_thm1_at")
    constants_s, _ = tracer.named_time("verify_constants")
    span = sum(hi - lo + 1 for lo, hi in tracer.sieve_ranges if hi >= lo)
    useful = union_length([r for r in tracer.sieve_ranges if r[1] >= r[0]])
    return {
        "sieve.busy_s": (busy.get("sieve", 0.0), "s"),
        "sieve.primes": (tracer.sieve_primes, "count"),
        "sieve.span": (span, "count"),
        "sieve.useful_ratio": (useful / span if span else 0.0, "ratio"),
        "sieve.primes_per_s": (_rate(tracer.sieve_primes, seg_s), "1/s"),
        "checkers.self_s": (own.get("checkers", 0.0), "s"),
        "checkers.rows": (rows, "count"),
        "checkers.primes_scanned": (records["primes_scanned"], "count"),
        "checkers.primes_per_s": (_rate(records["primes_scanned"], scan_s),
                                  "1/s"),
        "thm1.busy_s": (busy.get("thm1", 0.0), "s"),
        "thm1.calls": (count.get("thm1", 0), "count"),
        "thm1.moduli_per_s": (_rate(moduli, at_s), "1/s"),
        "cli.self_s": (own.get("cli", 0.0), "s"),
        "cli.records": (records["records"], "count"),
        "cli.out_bytes": (records["out_bytes"], "bytes"),
        "arith.factorize_misses": (factorize_info.misses, "count"),
        "arith.factorize_hits": (factorize_info.hits, "count"),
        "majorant.constants_s": (constants_s, "s"),
        "thm23.busy_s": (busy.get("thm23", 0.0), "s"),
        "thm23.calls": (count.get("thm23", 0), "count"),
        "thm23.refresh_moduli": (records["refresh_moduli"], "count"),
        "tables.load_s": (tables_setup_s + busy.get("tables", 0.0), "s"),
        "margins.evals": (tracer.evals, "count"),
        "margins.failed": (tracer.evals_failed, "count"),
    }
