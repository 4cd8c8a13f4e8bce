"""One battery of one workload, in a fresh interpreter.

Started by run.py, once per iteration:

    python3 perfbench/worker.py ROOT WORKLOAD SEED TRACE SPAWNED OUTDIR

SPAWNED is the parent's `time.monotonic()` just before the spawn (the clock
is shared by all processes), so set-up time covers interpreter start,
`import apbounds.cli` and the first table loads.  The worker then checks
that every cache in the package is empty, runs the workload's CLI calls
with `--out` report files, and prints one JSON object on its last stdout
line: timings, exit codes and a summary of each call's records.
"""
import sys
import time


def setup(root: str) -> float:
    """Import the CLI and load every table; returns the table-load time."""
    if "apbounds" in sys.modules:
        raise SystemExit("apbounds was imported before the timed set-up")
    sys.path.insert(0, root + "/src")
    import apbounds.cli  # noqa: F401
    from apbounds import tables
    t = time.perf_counter()
    for load in (tables.load_table2, tables.load_table4, tables.load_table5,
                 tables.load_table6, tables.load_table7, tables.load_table8):
        load()
    return time.perf_counter() - t


def warm_caches() -> list[str]:
    """Caches in apbounds that are not empty; the bundled tables excepted."""
    warm = []
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("apbounds.") or modname == "apbounds.tables":
            continue
        for attr, obj in vars(mod).items():
            info = getattr(obj, "cache_info", None)
            if callable(info) and getattr(obj, "__module__", None) == modname \
                    and info().currsize:
                warm.append(f"{modname}.{attr}")
    return warm


def _cpu_s() -> float:
    import resource
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_battery(root, workload: str, seed: int, traced: bool, outdir,
                tables_setup_s: float) -> dict:
    import contextlib
    import os
    import resource

    import apbounds.arith
    import apbounds.cli as cli
    import reference
    import workloads
    from tracer import Tracer, layer_metrics

    warm = warm_caches()
    if warm:
        raise SystemExit(f"caches warm before the battery: {warm}")
    argvs = workloads.calls(workload, seed, root)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    outs = [outdir / f"call{i}.jsonl" for i in range(len(argvs))]
    for out in outs:
        out.unlink(missing_ok=True)
    rcs, raised = [], []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv, out in zip(argvs, outs):
            args = argv + ["--out", str(out)]
            try:
                rc = (tracer.call("cli", "main", cli.main, args) if tracer
                      else cli.main(args))
            except (Exception, SystemExit) as exc:  # a battery that raises
                rc = None
                raised.append(f"{argv}: {exc!r}")
            rcs.append(rc)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    summaries = [reference.summarize(out) if out.exists() else None
                 for out in outs]
    result = {"wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_kb / 1024,
              "rcs": rcs, "raised": raised, "argv": argvs, "calls": summaries}
    if tracer:
        done = [s for s in summaries if s]
        totals = {k: sum(s[k] for s in done) for k in
                  ("records", "primes_scanned", "refresh_moduli", "out_bytes")}
        metrics = layer_metrics(tracer, tables_setup_s, totals,
                                apbounds.arith.factorize.cache_info())
        result["layers"] = {k: v for k, (v, _) in metrics.items()}
        result["units"] = {k: u for k, (_, u) in metrics.items()}
        tracer.write(outdir / f"spans-{workload}.jsonl")
    return result


if __name__ == "__main__":
    root, workload, seed, traced, spawned, outdir = sys.argv[1:7]
    tables_setup_s = setup(root)
    ready = time.monotonic()

    import json
    from pathlib import Path
    result = run_battery(Path(root), workload, int(seed), traced == "1",
                         Path(outdir), tables_setup_s)
    result["setup_s"] = ready - float(spawned)
    print(json.dumps(result))
