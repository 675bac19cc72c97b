#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark. Run from the root of a checkout:

    python3 perfbench/smoke_test.py

Runs every workload at smoke size (--smoke 1), untraced and traced, and
checks that each run exits 0 with a well-formed result line, that every
workload emits exactly the end-to-end metrics declared in BENCHMARK.json
(and a traced run every per-layer metric) with the declared units, that no
end-to-end metric reads 0, and that the counts and deterministic metrics
repeat exactly across two runs of one seed. Takes about fifteen seconds once the
benchmark is built.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()

WORKLOADS = ["query_live", "publish_mix", "churn_sim"]
# End-to-end metrics that are a function of the seed alone, in every workload.
DETERMINISTIC_E2E = ["op_bytes"]
# Per-layer metrics that are a function of the seed alone, per workload.
DETERMINISTIC_LAYER = {
    "query_live": ["search.recall"],
    "publish_mix": ["gossip.converge_p50_s", "gossip.converge_p90_s"],
    "churn_sim": ["gossip.converge_p50_s", "gossip.converge_p90_s"],
}


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: unexpected result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        raise AssertionError(f"{workload}: correctness check failed: {lines[-1]}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        raise AssertionError("BENCHMARK.json workloads differ from the benchmark's workloads")

    for workload in WORKLOADS:
        first_result, second_result = run(workload, 7, 0), run(workload, 7, 0)
        for count in ("attempted", "failed"):
            if first_result[count] != second_result[count]:
                raise AssertionError(f"{workload}: {count} differs across two runs of one seed")
        first, second = first_result["metrics"], second_result["metrics"]
        if sorted(first) != sorted(e2e_units):
            raise AssertionError(f"{workload}: emitted {sorted(first)}, expected {sorted(e2e_units)}")
        for name, m in first.items():
            if m["unit"] != e2e_units[name]:
                raise AssertionError(f"{workload}: {name} unit {m['unit']} != {e2e_units[name]}")
            if not m["value"] > 0:
                raise AssertionError(f"{workload}: {name} reads {m['value']}")
        for name in DETERMINISTIC_E2E:
            if first[name]["value"] != second[name]["value"]:
                raise AssertionError(f"{workload}: {name} differs across two runs of one seed")
        traced = run(workload, 7, 1)["metrics"]
        if sorted(traced) != sorted(layer_units):
            missing = sorted(set(layer_units) - set(traced))
            extra = sorted(set(traced) - set(layer_units))
            raise AssertionError(f"{workload} traced: missing {missing}, undeclared {extra}")
        for name, m in traced.items():
            if m["unit"] != layer_units[name]:
                raise AssertionError(f"{workload}: {name} unit {m['unit']} != {layer_units[name]}")
        traced_again = run(workload, 7, 1)["metrics"]
        for name in DETERMINISTIC_LAYER[workload]:
            if traced[name]["value"] != traced_again[name]["value"]:
                raise AssertionError(f"{workload}: {name} differs across two runs of one seed")
        print(f"{workload}: ok ({len(first)} end-to-end, {len(traced)} per-layer metrics)")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
