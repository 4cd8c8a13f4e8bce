"""Record summaries and the checks of a battery against its reference.

A reference (reference/<workload>.json, written by make_reference.py) holds
per CLI call: the exit status, the record count, a digest of every
(suite, name, inputs, pass), the worst margin per (suite, name) and the
records that are expected to FAIL.  Each mismatch is one failed operation;
a call that raises fails all the records it should have produced.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import workloads

# float inputs are compared at this many significant digits
INPUT_DIGITS = 12
# a worst margin may move by this share of max(|lhs|, |rhs|, 1): the
# package's own default slack, below which a margin is float noise
MARGIN_RTOL = 1e-9
# scan-far: primes scanned against li(hi) - li(x0)
PRIME_COUNT_RTOL = 5e-3


def _norm(inputs: dict) -> list:
    """Sorted inputs, floats as strings of INPUT_DIGITS significant digits."""
    return [(k, format(v, f".{INPUT_DIGITS}g") if type(v) is float else v)
            for k, v in sorted(inputs.items())]


def record_key(rec: dict) -> str:
    """(suite, name, inputs) of a record, as JSON with rounded floats."""
    return json.dumps([rec["suite"], rec["name"], _norm(rec["inputs"])])


def summarize(path: Path) -> dict:
    """Count, digest, worst margins and failures of one report file."""
    digest = hashlib.sha256()
    worst: dict[str, list[float]] = {}
    first, fails = None, []
    n = primes = refresh = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rec = json.loads(line)
            n += 1
            suite, name, inputs = rec["suite"], rec["name"], rec["inputs"]
            digest.update(repr((suite, name, _norm(inputs), rec["pass"]))
                          .encode())
            group = f"{suite}/{name.split('[')[0]}"
            if group not in worst or rec["margin"] < worst[group][0]:
                worst[group] = [rec["margin"], rec["lhs"], rec["rhs"]]
            if not rec["pass"]:
                fails.append(record_key(rec))
            if first is None:  # kept whole for checks that need its inputs
                first = rec
            primes += inputs.get("primes_scanned", 0)
            if name.startswith("exact_refresh["):
                lo, hi = name[len("exact_refresh["):-1].split(",")
                refresh += int(hi) - int(lo)
    return {"records": n, "digest": digest.hexdigest(), "worst": worst,
            "fails": fails, "first": first, "primes_scanned": primes,
            "refresh_moduli": refresh, "out_bytes": path.stat().st_size}


def reference_from(result: dict) -> list[dict]:
    """The per-call reference entries that one battery's result defines."""
    return [{"argv": argv, "rc": rc, "records": s["records"],
             "digest": s["digest"], "worst": s["worst"],
             "expected_fail": s["fails"]}
            for argv, rc, s in zip(result["argv"], result["rcs"],
                                   result["calls"])]


def _call_errors(exp: dict, rc, got: dict) -> list[str]:
    errors = []
    if rc != exp["rc"]:
        errors.append(f"exit status {rc}, want {exp['rc']}")
    errors += [f"{got['records']} records, want {exp['records']}"] \
        * abs(got["records"] - exp["records"])
    expected_fail = set(exp["expected_fail"])
    errors += [f"unexpected FAIL {k}" for k in got["fails"]
               if k not in expected_fail]
    errors += [f"expected FAIL missing or passing {k}"
               for k in expected_fail - set(got["fails"])]
    for group in exp["worst"].keys() | got["worst"].keys():
        want, have = exp["worst"].get(group), got["worst"].get(group)
        if want is None or have is None:
            errors.append(f"suite/name {group} missing or extra")
        elif abs(have[0] - want[0]) > MARGIN_RTOL * max(abs(want[1]),
                                                         abs(want[2]), 1.0):
            errors.append(f"{group} worst margin {have[0]!r}, want {want[0]!r}")
    if not errors and got["digest"] != exp["digest"]:
        errors.append("records differ from the reference")
    return errors


def count_errors(reference: list[dict], result: dict) -> tuple[int, int, list]:
    """(records attempted, failed operations, messages) of one battery."""
    if [r["argv"] for r in reference] != result["argv"]:
        raise ValueError("battery does not match its reference")
    attempted = failed = 0
    notes = []
    for exp, rc, got in zip(reference, result["rcs"], result["calls"]):
        attempted += exp["records"]
        if rc is None or got is None:
            failed += max(exp["records"], 1)
            notes.append(f"{exp['argv']}: raised or wrote no report")
            continue
        errors = _call_errors(exp, rc, got)
        failed += len(errors)
        notes += [f"{exp['argv']}: {e}" for e in errors]
    notes += result["raised"]
    return attempted, failed, notes


def _li_span(a: float, b: float, n: int = 64) -> float:
    """Simpson's rule for the integral of 1/log t over [a, b]."""
    step = (b - a) / n
    total = sum((4 if i % 2 else 2) / math.log(a + i * step)
                for i in range(1, n))
    return step / 3 * (1 / math.log(a) + total + 1 / math.log(b))


def count_errors_scan_far(windows, result: dict) -> tuple[int, int, list]:
    """Each window must yield one passing coverage record for its inputs."""
    if [w.argv() for w in windows] != result["argv"]:
        raise ValueError("battery does not match its windows")
    failed = 0
    notes = []
    for w, rc, got in zip(windows, result["rcs"], result["calls"]):
        errors = []
        if rc != 0 or got is None or got["records"] != 1:
            errors.append(f"exit status {rc}, report {got and got['records']}")
        else:
            rec = got["first"]
            inputs = rec["inputs"]
            want = {"q": w.q, "x0": w.x0, "x_end": w.x_end,
                    "mode": "sqrt" if w.sqrt else "single"}
            if {k: inputs.get(k) for k in want} != want:
                errors.append(f"inputs {inputs}, want {want}")
            if not rec["pass"] or rec["name"] != "coverage" \
                    or rec["margin"] != 0.5:
                errors.append(f"verdict {rec}")
            hi = math.floor(w.x_end + workloads.window_h(w, w.x_end))
            est = _li_span(w.x0, hi)
            if abs(inputs["primes_scanned"] - est) > PRIME_COUNT_RTOL * est:
                errors.append(f"{inputs['primes_scanned']} primes scanned, "
                              f"about {est:.0f} expected")
        failed += bool(errors)
        notes += [f"{w.argv()}: {e}" for e in errors]
    return len(windows), failed, notes + result["raised"]
