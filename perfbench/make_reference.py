"""Write reference/<workload>.json from one battery of the current code.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only on a commit whose verdicts are known to be right: the six
sqrt refresh records of table 8 (m = 19, 20, 21) are the only records
allowed to fail, and the script refuses to write otherwise.
"""
from __future__ import annotations

import json
import shutil
import sys

import reference
import run

FIXED = ("scan", "sweep")
# (suite, name prefix, m) of the records that are expected to FAIL
KNOWN_FAILURES = {("verify:thm2-tables", prefix, m)
                  for prefix in ("main", "exact_refresh[") for m in (19, 20, 21)}


def _known(key: str) -> tuple:
    suite, name, inputs = json.loads(key)
    inputs = dict(inputs)
    prefix = "exact_refresh[" if name.startswith("exact_refresh[") else name
    return (suite, prefix, inputs.get("m")) if inputs.get("sqrt") else None


def main(names: list[str]) -> int:
    run.OUTDIR.mkdir(exist_ok=True)
    outdir = run.OUTDIR / "reference"
    outdir.mkdir(exist_ok=True)
    prov = run.provenance()
    for name in names or FIXED:
        result = run.run_iteration(name, 0, False, outdir, run.RUN_LIMIT_S)
        calls = reference.reference_from(result)
        fails = [_known(k) for c in calls for k in c["expected_fail"]]
        want = KNOWN_FAILURES if name == "sweep" else set()
        if result["raised"] or set(fails) != want \
                or len(fails) != len(want):
            print(f"{name}: unexpected failures {fails} {result['raised']}",
                  file=sys.stderr)
            return 1
        path = run.HERE / "reference" / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "commit": prov["commit"],
                       "input_digits": reference.INPUT_DIGITS,
                       "margin_rtol": reference.MARGIN_RTOL,
                       "calls": calls}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {sum(c['records'] for c in calls)} records, "
              f"{len(fails)} expected failures -> {path}")
    shutil.rmtree(outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
