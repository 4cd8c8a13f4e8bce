"""Every function in the package is reached by some CLI battery.

One subprocess installs a profiler before `apbounds.cli` is imported, runs
one small call of each battery through `main`, and writes down every code
object that was entered.  It sets two usable CPUs, so that a scan of
several sieve blocks runs on a ring of two ranks; the profiler sees only
this process, rank 0, which takes turns 0 and 2 of such a scan.  Each function defined in `src/apbounds` (found
with `ast`) must be among them: a function that no battery calls either
gets a record or goes.
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import apbounds

PKG = Path(apbounds.__file__).resolve().parent

# defined but not yet reached: the theta envelope waits for the paper's text
NOT_REACHED = {"arith.sin2_integral", "arith.theta_of"}

# (argv, exit code): the sweep and the refresh rows exit 1 by design
RUNS = [
    (["verify", "thm1-at", "--q", "3", "--x", "193269", "--out", "{out}"], 0),
    (["verify", "thm1-at", "--sample-grid", "30", "--sqrt", "--out", "{out}"],
     0),
    (["verify", "thm1-tables"], 0),
    (["verify", "thm2"], 0),
    (["verify", "thm2-tables"], 1),
    (["verify", "thm3", "--sample-grid", "3"], 0),
    (["verify", "corollary", "--sample-grid", "3"], 0),
    (["verify", "lemma5"], 0),
    (["verify", "lemma8"], 0),
    (["regen-report", "--out", "{out}"], 0),
    (["check", "t5", "--block", "2"], 0),
    (["check", "t6", "--block", "1"], 0),
    # windows far too short: no block proof, so the exact path runs
    (["check", "custom", "--q", "3", "--x0", "1000", "--x", "2000",
      "--params", "0,0,0.01"], 1),
    (["check", "custom", "--q", "4", "--x0", "81589", "--x", "332263",
      "--sqrt"], 0),
    (["verify", "thm2", "--sqrt"], 2),
    # past 2^31, where the sieve strikes its sparse base primes in rounds;
    # no bundled table row reaches that far
    (["check", "custom", "--q", "3", "--x0", "2147483648", "--x",
      "2147500000"], 0),
    # three sieve blocks: rank 0 hands the row on after turn 0, and carries
    # its offsets two blocks on and takes the row back for turn 2
    (["check", "custom", "--q", "3", "--x0", "1000000", "--x", "9000000"],
     0),
]

SCRIPT = r"""
import json, sys
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
import apbounds.cli
usable_cpus = apbounds.ring.usable_cpus
def two_cpus():
    usable_cpus()  # reached as in any run
    return 2
apbounds.ring.usable_cpus = two_cpus
runs, out, dump = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
codes = []
for argv in runs:
    try:
        codes.append(apbounds.cli.main([a.format(out=out) for a in argv]))
    except SystemExit as exc:
        codes.append(exc.code)
sys.setprofile(None)
with open(dump, "w") as fh:
    json.dump({"codes": codes, "entered": sorted(entered)}, fh)
"""


def defined_functions():
    """(module.name, file, first line of its code object) of every def."""
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                line = min([node.lineno]
                           + [d.lineno for d in node.decorator_list])
                yield f"{path.stem}.{node.name}", str(path), line


def test_every_function_is_reached_by_a_battery(tmp_path):
    dump = tmp_path / "entered.json"
    env = {**os.environ, "PYTHONPATH": str(PKG.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([a for a, _ in RUNS]),
         str(tmp_path / "report.jsonl"), str(dump)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(dump.read_text())
    assert result["codes"] == [code for _, code in RUNS]
    entered = {tuple(e) for e in result["entered"]}
    defined = list(defined_functions())
    assert len(defined) > 100
    unreached = {name for name, path, line in defined
                 if (path, line) not in entered}
    assert unreached == NOT_REACHED
