#!/usr/bin/env python3
"""Self-test of the repo benchmark: python3 perfbench/selftest.py

Runs a smoke-sized pass of every workload (untraced and traced) and checks:
  * the same seed twice gives an identical digest of the simulated outputs
    and identical per-layer counts;
  * a different seed gives different inputs;
  * every run is correct and prints every metric BENCHMARK.json names;
  * perfbench/workloads.json maps every per-layer metric;
  * the whole smoke set finishes within a few seconds.
Exits 1 with a list of problems, 0 when all checks pass.
"""
import json
import os
import re
import subprocess
import sys
import time

from run import ROOT, build

HERE = os.path.dirname(os.path.abspath(__file__))
SMOKE_BUDGET_S = 20.0


def smoke(binary, workload, seed, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    digest = re.search(r"^digest \S+ (\w+) inputs (\w+)$", out, re.M)
    return digest.group(1), digest.group(2), json.loads(out.strip().splitlines()[-1])


def main():
    binary = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        doc = json.load(f)
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    problems = []
    mapped = {row["metric"] for row in doc["layer_map"]}
    if mapped != layers:
        problems.append(f"layer_map vs per_layer: {sorted(mapped ^ layers)}")

    start = time.monotonic()
    for w in (w["name"] for w in bench["workloads"]):
        d1, in1, r1 = smoke(binary, w, 1, 0)
        d2, in2, r2 = smoke(binary, w, 1, 1)
        d3, in3, r3 = smoke(binary, w, 1, 1)
        _, in4, _ = smoke(binary, w, 2, 0)
        for r in (r1, r2, r3):
            if not r["correct"] or r["failed"]:
                problems.append(f"{w}: smoke run not correct: {r['failed']} failed")
        if set(r1["metrics"]) != e2e:
            problems.append(f"{w}: untraced metrics {sorted(set(r1['metrics']) ^ e2e)}")
        if set(r2["metrics"]) != layers:
            problems.append(f"{w}: traced metrics {sorted(set(r2['metrics']) ^ layers)}")
        if not d1 == d2 == d3 or not in1 == in2 == in3:
            problems.append(f"{w}: same seed gave different digests {d1} {d2} {d3}")
        counts2 = {k: v for k, v in r2["metrics"].items() if v["unit"] == "count"}
        counts3 = {k: v for k, v in r3["metrics"].items() if v["unit"] == "count"}
        if counts2 != counts3:
            diff = [k for k in counts2 if counts2[k] != counts3.get(k)]
            problems.append(f"{w}: same seed gave different per-layer counts {diff}")
        if in4 == in1:
            problems.append(f"{w}: seeds 1 and 2 generated the same inputs")
        print(f"{w}: digest {d1}, inputs {in1} (seed 2: {in4})")
    elapsed = time.monotonic() - start
    print(f"smoke set: {elapsed:.1f} s")
    if elapsed > SMOKE_BUDGET_S:
        problems.append(f"smoke set took {elapsed:.1f} s > {SMOKE_BUDGET_S} s")

    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
