"""Self-test of the benchmark harness on a tiny battery.

    python3 perfbench/selftest.py

The battery is one t5 row, a few thousand thm1 moduli and lemma8.  The
test checks the cold-start guard, that every metric BENCHMARK.json names
is printed with its unit, that per-layer counts repeat exactly, and that
a reference with one verdict flipped drives error_share above 0.
"""
from __future__ import annotations

import copy
import json
import shutil
import sys

import reference
import run
import worker

COUNT_UNITS = ("count", "bytes")


def check_guard() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import apbounds.arith
    import apbounds.cli  # noqa: F401
    assert worker.warm_caches() == [], worker.warm_caches()
    apbounds.arith.factorize(12)
    assert worker.warm_caches() == ["apbounds.arith.factorize"], \
        worker.warm_caches()
    apbounds.arith.factorize.cache_clear()


def check_units(metrics: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: m["unit"] for k, m in metrics.items()}
    assert got == want, (sorted(got.items()), sorted(want.items()))
    # the printed line must survive a JSON round trip with every digit
    assert json.loads(json.dumps(metrics)) == metrics


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    check_guard()

    outdir = run.OUTDIR / "selftest"
    outdir.mkdir(parents=True, exist_ok=True)
    first = run.run_iteration("selftest", 0, False, outdir, run.RUN_LIMIT_S)
    shutil.rmtree(outdir)
    ref = reference.reference_from(first)
    assert ref[0]["records"] == 1 and ref[1]["records"] > 1000, ref
    assert reference.count_errors(ref, first)[1] == 0

    plain = run.measure("selftest", 0, 0, False, ref)
    assert plain["correct"] and plain["failed"] == 0, plain["notes"]
    check_units(plain["metrics"], bench["end_to_end"])

    traced = [run.measure("selftest", 0, 0, True, ref) for _ in range(2)]
    for result in traced:
        assert result["correct"], result["notes"]
        check_units(result["metrics"], bench["per_layer"])
    for name, m in traced[0]["metrics"].items():
        if m["unit"] in COUNT_UNITS:
            assert m["value"] == traced[1]["metrics"][name]["value"], name
    layers = traced[0]["metrics"]
    assert layers["checkers.rows"]["value"] == 1
    assert layers["sieve.primes"]["value"] > 0
    assert layers["thm1.calls"]["value"] > 1000
    assert layers["majorant.constants_s"]["value"] > 0

    tampered = copy.deepcopy(ref)
    tampered[0]["expected_fail"].append(
        reference.record_key(first["calls"][0]["first"]))
    bad = run.measure("selftest", 0, 0, False, tampered)
    assert not bad["correct"] and bad["failed"] / bad["attempted"] > 0, bad
    print(f"selftest passed: {plain['attempted']} records checked, "
          f"{len(layers)} per-layer metrics, tampered verdict gives "
          f"error_share {bad['failed'] / bad['attempted']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
