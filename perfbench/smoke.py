#!/usr/bin/env python3
"""Smoke test and count self-check for the repo benchmark.

    python3 perfbench/smoke.py

Run from the repository root; takes about a minute. At a small table
scale it runs every workload of BENCHMARK.json end to end through
perfbench/run.py, with and without --trace, and asserts that

  * every run exits 0 and reports correct, with no failed statement;
  * the metrics printed are exactly BENCHMARK.json's end_to_end
    (--trace 0) or per_layer (--trace 1) names, with their units;
  * the exact counts of the traced run repeat bit for bit for the same
    seed, and a second seed still passes every result check.

Exits 1 on the first violated assertion, 0 when all hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--scale", "0.02", "--seconds", "1"]

# Per-layer metrics that are counts of work, not times: deterministic for
# a seed, so later changes can gate them exactly.
EXACT = [
    "plan.sort_nodes", "plan.elided_sorts", "plan.exchange_nodes", "plan.hash_nodes",
    "exec.rows_scanned_per_result_row", "exec.hash_per_row", "exec.fallbacks",
    "sort.runs_spilled", "sort.merge_levels", "sort.bytes_spilled_per_row",
    "core.column_cmp_per_row", "core.code_cmp_per_row", "core.row_cmp_per_row",
    "pq.merge_bypass_share", "common.tempfile_files", "common.tempfile_retries",
]


def fail(message):
    print("smoke: FAIL: " + message)
    sys.exit(1)


def run(workload, seed, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)] + SMALL
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail("%s seed %d trace %d exited %d\n%s%s" % (workload, seed, trace, out.returncode,
                                                       out.stdout, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s seed %d trace %d: %s" % (workload, seed, trace, lines[-1]))
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for name in EXACT:
        if name not in declared[1]:
            fail("exact count %s is not a declared per_layer metric" % name)
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            metrics = run(workload, 1, trace)
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                fail("%s trace %d: names/units differ from BENCHMARK.json; missing %s, "
                     "extra %s" % (workload, trace, missing, extra))
            if trace == 1:
                first = metrics
        again = run(workload, 1, 1)
        for name in EXACT:
            if again[name]["value"] != first[name]["value"]:
                fail("%s: %s is %r, then %r for the same seed" % (
                    workload, name, first[name]["value"], again[name]["value"]))
        run(workload, 2, 1)
        print("smoke: %s ok" % workload, flush=True)
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
