#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/ (a stand-alone
CMake project over ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs the benchmark binary
with the same arguments. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. A traced run (--trace 1) also writes
a Chrome/Perfetto trace to <build dir>/traces/<workload>_seed<N>.json.
Exits with the binary's code: 0 all operations correct, 1 some failed a
correctness check, 2 bad arguments or a failed build.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "rank_scaling", "checkpoint_restart", "shared_system")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "runner.hpp")):
        sys.stderr.write("perfbench: simulator sources (src/) not found under %s\n" % ROOT)
        return None
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "tpio_bench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        return None
    return os.path.join(out, "tpio_bench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--corrupt-oracle", action="store_true",
                   help="flip one expected byte (self-test of the checks)")
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    binary = build(out)
    if binary is None:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s_seed%d.json" % (a.workload, a.seed))]
    if a.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    sys.stdout.flush()
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
