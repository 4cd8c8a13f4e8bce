"""Time-to-verdict benchmark for apbounds.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Run from a checkout of the repository.  Each iteration runs one battery of
the workload in a fresh interpreter (worker.py) as a single closed-loop
caller with `jobs=1`; iterations start until --seconds have passed (at
least two, or one untraced/traced pair).  Every record is checked
against the workload's reference.  With --trace 0 the last stdout line
holds the end-to-end metrics (medians over iterations); with --trace 1
it holds the per-layer metrics of the traced iterations and the tracing
overhead.  Spans of the last traced battery go to .perfbench/.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = ROOT / ".perfbench"
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}
# a sweep battery takes over 20 s, so a run may hold only these few rounds
MIN_ROUNDS = {False: 2, True: 1}
# a run must end within 180 s whatever --seconds asks for
RUN_LIMIT_S = 170.0


class HarnessError(RuntimeError):
    pass


def provenance() -> dict:
    """Machine and library versions; printed, never written into records."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "sympy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "versions": versions,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None}


def run_iteration(workload: str, seed: int, traced: bool, outdir: Path,
                  timeout: float) -> dict:
    """One battery in a fresh interpreter; the worker's JSON result."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload,
           str(seed), "1" if traced else "0", repr(spawned), str(outdir)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def load_reference(workload: str) -> list[dict]:
    with open(HERE / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["calls"]


def check(workload: str, seed: int, result: dict,
          ref: list[dict] | None) -> tuple[int, int, list]:
    if workload == "scan-far":
        windows = workloads.scan_far_windows(seed, ROOT)
        return reference.count_errors_scan_far(windows, result)
    return reference.count_errors(ref, result)


def measure(workload: str, seed: int, seconds: float, traced: bool,
            ref: list[dict] | None = None) -> dict:
    """Run iterations for `seconds`; the benchmark's result object.

    Untraced iterations give the end-to-end medians.  A traced run
    alternates untraced and traced iterations, reports the per-layer
    medians of the traced ones and the difference of the wall medians.
    """
    if ref is None and workload != "scan-far":
        ref = load_reference(workload)
    outdir = OUTDIR / f"{workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    runs: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    notes: list[str] = []
    try:
        while True:
            for kind in ((False, True) if traced else (False,)):
                left = start + RUN_LIMIT_S - time.monotonic()
                res = run_iteration(workload, seed, kind, outdir, max(left, 1))
                a, f, n = check(workload, seed, res, ref)
                attempted, failed, notes = attempted + a, failed + f, notes + n
                runs[kind].append(res)
            if len(runs[False]) >= MIN_ROUNDS[traced] and \
                    time.monotonic() >= start + seconds:
                break
        if traced:
            spans = outdir / f"spans-{workload}.jsonl"
            spans.replace(OUTDIR / spans.name)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    if traced:
        rows = [r["layers"] for r in runs[True]]
        units = runs[True][0]["units"]
        metrics = {k: {"value": median(rows, k), "unit": units[k]}
                   for k in units}
        metrics["trace.overhead_s"] = {
            "value": median(runs[True], "wall_s") - median(runs[False],
                                                           "wall_s"),
            "unit": "s"}
    else:
        metrics = {k: {"value": median(runs[False], k), "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes,
            "walls": [r["wall_s"] for r in runs[False]]}


def _public(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed",
                                   "metrics")}


def _report(workload: str, result: dict) -> None:
    share = result["failed"] / result["attempted"]
    walls = ", ".join(f"{w:.3f}" for w in result["walls"])
    print(f"[{workload}] untraced wall_s per iteration: {walls}")
    print(f"[{workload}] error_share {share:.6g} ({result['failed']} failed of "
          f"{result['attempted']} records)")
    for name, m in result["metrics"].items():
        print(f"[{workload}]   {name} = {m['value']:.6g} {m['unit']}")
    for note in result["notes"][:20]:
        print(f"[{workload}]   error: {note}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "apbounds" / "cli.py").is_file():
        print(f"no apbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": provenance()}))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds,
                                bool(args.trace))
        _report(name, results[name])
    if args.workload == "all":
        print(json.dumps({n: _public(r) for n, r in results.items()}))
    else:
        print(json.dumps(_public(results[args.workload])))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
