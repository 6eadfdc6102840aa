#!/usr/bin/env python3
"""Self-test of the SPIDeR benchmark at tiny sizes.

  python3 perfbench/tests/selftest.py

For every workload it runs perfbench/run.py with --tiny (seed A twice,
seed B once, untraced and traced) and checks that

  * every run exits 0 and reports correct = true with failed = 0;
  * the untraced result names exactly the end_to_end metrics of
    BENCHMARK.json, each with its unit, and the traced result exactly the
    per_layer metrics;
  * the deterministic byte counts repeat exactly for equal seeds and
    change for a different seed: bytes_per_item on every workload (SPIDeR
    link bytes per update on replay, proof bytes per prefix on audit and
    wire) and spider.log_bytes_per_update on replay.

Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SEED_A, SEED_B = 101, 202

# (workload, trace, metric) triples whose value is a deterministic count.
DETERMINISTIC = [
    ("replay", 0, "bytes_per_item"),
    ("audit", 0, "bytes_per_item"),
    ("wire", 0, "bytes_per_item"),
    ("replay", 1, "spider.log_bytes_per_update"),
]


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    results = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[section]}
            for seed in (SEED_A, SEED_A, SEED_B):
                result = run(workload, seed, trace)
                results.setdefault((workload, trace, seed), []).append(result)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                check(set(result) == {"correct", "attempted", "failed", "metrics"},
                      f"{workload} trace={trace} seed={seed}: result keys")
                check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                      f"{workload} trace={trace} seed={seed}: correct, nothing failed")
                check(got == expected,
                      f"{workload} trace={trace} seed={seed}: every {section} metric with its unit")

    for workload, trace, metric in DETERMINISTIC:
        first, second = (r["metrics"][metric]["value"]
                         for r in results[(workload, trace, SEED_A)])
        other = results[(workload, trace, SEED_B)][0]["metrics"][metric]["value"]
        check(first == second, f"{workload} {metric} repeats for seed {SEED_A}: {first}")
        check(first != other, f"{workload} {metric} changes with the seed: {first} vs {other}")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
