#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py [--seconds S]

Run from the root of a source checkout. Checks that:
  * BENCHMARK.json and perfbench/layers.json agree: every per-layer metric
    has a target end-to-end metric and workload, all named in
    BENCHMARK.json (or printed-only end-to-end figures);
  * every workload, and the untracked rank_scaling, untraced and traced,
    exits 0 with correct=true and emits exactly the metrics BENCHMARK.json
    names for that mode, with BENCHMARK.json's units, every name matching
    [A-Za-z0-9_.-]+; the untraced run also prints the printed-only figures;
  * with the expected-content oracle deliberately corrupted, the command
    exits non-zero and reports failed > 0;
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    exits non-zero without printing a result.
Exits 1 on the first failed check.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run(args, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py")] + args
    p = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                       timeout=900)
    return p.returncode, p.stdout, p.stderr


def result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        r = json.loads(lines[-1])
    except ValueError:
        return None
    return r if isinstance(r, dict) else None


def check_metrics(tag, r, spec):
    want = {m["name"]: m["unit"] for m in spec}
    got = r["metrics"]
    if set(got) != set(want):
        fail("%s: metrics %s, expected %s" % (tag, sorted(got), sorted(want)))
    for name, m in got.items():
        if not NAME.fullmatch(name):
            fail("%s: malformed metric name %r" % (tag, name))
        if m.get("unit") != want[name]:
            fail("%s: %s has unit %r, expected %r" % (tag, name, m.get("unit"), want[name]))
        if not isinstance(m.get("value"), (int, float)):
            fail("%s: %s has no numeric value" % (tag, name))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", default="1")
    a = p.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    layers = json.load(open(os.path.join(HERE, "layers.json")))
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"] for m in bench["end_to_end"]} | set(layers["printed_only"])
    per_layer = [m["name"] for m in bench["per_layer"]]
    if sorted(layers["layers"]) != sorted(per_layer):
        fail("layers.json and BENCHMARK.json per_layer differ: %s" %
             sorted(set(layers["layers"]) ^ set(per_layer)))
    for name, t in layers["layers"].items():
        for m in t["moves"]:
            if m not in e2e:
                fail("%s targets unknown end-to-end metric %s" % (name, m))
        for w in t["on"]:
            if w not in workloads:
                fail("%s targets unknown workload %s" % (name, w))
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not NAME.fullmatch(m["name"]) or not m["unit"]:
            fail("BENCHMARK.json metric %r is malformed" % m)
    print("ok: BENCHMARK.json and layers.json agree")

    # rank_scaling is not tracked in BENCHMARK.json (README) but stays
    # runnable, so it is checked too.
    for w in workloads + ["rank_scaling"]:
        for trace in ("0", "1"):
            tag = "%s --trace %s" % (w, trace)
            rc, out, err = run(["--workload", w, "--seed", "7", "--seconds",
                                a.seconds, "--trace", trace])
            r = result(out)
            if rc != 0 or r is None or r.get("correct") is not True or r.get("failed") != 0:
                fail("%s: rc %d, result %r\n%s" % (tag, rc, r, err[-2000:]))
            if not isinstance(r.get("attempted"), int) or r["attempted"] < 1:
                fail("%s: attempted must be a positive integer" % tag)
            check_metrics(tag, r, bench["end_to_end"] if trace == "0" else bench["per_layer"])
            if trace == "0":
                for name in layers["printed_only"]:
                    if not re.search(r"^%s = \S+ \S+" % re.escape(name), out, re.M):
                        fail("%s: %s is not printed with a unit" % (tag, name))
            print("ok: %s (%d operations)" % (tag, r["attempted"]))

    rc, out, _ = run(["--workload", "checkpoint_restart", "--seed", "7",
                      "--seconds", a.seconds, "--trace", "0", "--corrupt-oracle"])
    r = result(out)
    if rc == 0 or r is None or r.get("failed", 0) <= 0 or r.get("correct") is not False:
        fail("corrupted oracle: rc %d, result %r" % (rc, r))
    print("ok: corrupted oracle -> exit %d, %d of %d operations failed" %
          (rc, r["failed"], r["attempted"]))

    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    rc, out, _ = run(["--workload", workloads[0], "--seed", "1", "--seconds",
                      "1", "--trace", "0"], cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or result(out) is not None:
        fail("bare directory: rc %d, stdout %r" % (rc, out[-500:]))
    print("ok: bare directory -> exit %d, no result" % rc)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
