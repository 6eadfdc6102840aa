#!/usr/bin/env python3
"""Entry point of the SPIDeR benchmark (the "command" of BENCHMARK.json).

Builds the benchmark package in Release (perfbench/CMakeLists.txt: the
repository's library targets from src/, the spider_node tool and the
workload driver) under .bench_build/perfbench, runs one workload, checks
that the driver reported every metric BENCHMARK.json names, and passes
its output through.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; build output goes
to standard error.

  python3 perfbench/run.py --workload replay|audit|wire --seed N \\
      --seconds S --trace 0|1

Exit status is non-zero, with no result line, when the build fails, the
driver refuses the environment, or any output check fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")
BUILD_JOBS = "4"


def build():
    subprocess.run(
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", BUILD_JOBS,
         "--target", "perfbench_driver", "spider_node"],
        stdout=sys.stderr, check=True, timeout=800)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["replay", "audit", "wire"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (perfbench/tests/selftest.py)")
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK, "--node-bin", os.path.join(BUILD, "tools", "spider_node")]
    if args.tiny:
        cmd.append("--tiny")
    # The driver runs in its own process group with the spider_node
    # processes it starts, so a driver that hangs or dies cannot leave a
    # node behind.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if stdout is None:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        print(f"perfbench: driver exited with {proc.returncode}", file=sys.stderr)
        return 1

    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace == 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected or not result["correct"] or result["failed"] != 0:
        sys.stderr.write(stdout)
        print("perfbench: result does not match BENCHMARK.json or is not correct",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
