#!/usr/bin/env python3
"""Self-test of the Fig. 14 sweep benchmark at tiny knobs.

Runs every workload of BENCHMARK.json through perfbench/run.py at the
shard-smoke size (grid=9 ksteps=8 tiles=1), once with --trace 0 and once
with --trace 1, and checks that each run passes its correctness gate
and emits exactly the named metrics with their units. It then repeats
one traced run with the same seed and compares the deterministic
counts exactly. Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--grid", "9", "--ksteps", "8", "--tiles", "1"]
# Counts that depend only on the seed and the knobs, never on timing.
DETERMINISTIC = ["kernels.uops", "sim.cycles", "sim.ipc", "sim.ff_skip_frac",
                 "cache.records", "dnn.slice_requests", "serve.rpc_samples"]


def run(workload, trace, seed=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)] + TINY
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise AssertionError("%s trace=%d exited %d" %
                             (workload, trace, p.returncode))
    return json.loads(lines[-1])


def check(result, expected, what):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        errors.append("correctness gate failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted %r" % result.get("attempted"))
    if not isinstance(result.get("failed"), int):
        errors.append("failed %r" % result.get("failed"))
    got = result.get("metrics", {})
    if set(got) != set(expected):
        errors.append("missing %s, unexpected %s" %
                      (sorted(set(expected) - set(got)),
                       sorted(set(got) - set(expected))))
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append("%s unit %r, want %r" % (name, m.get("unit"), unit))
        if not isinstance(m.get("value"), (int, float)):
            errors.append("%s value %r" % (name, m.get("value")))
    for e in errors:
        print("FAIL %s: %s" % (what, e))
    return not errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    ok = True
    traced = {}
    for w in bench["workloads"]:
        name = w["name"]
        ok &= check(run(name, 0), e2e, name + " trace=0")
        traced[name] = run(name, 1)
        ok &= check(traced[name], layers, name + " trace=1")
        print("checked %s" % name, flush=True)

    first = bench["workloads"][0]["name"]
    again = run(first, 1)
    for name in DETERMINISTIC:
        a = traced[first]["metrics"][name]["value"]
        b = again["metrics"][name]["value"]
        if a != b:
            print("FAIL %s: %s differs between same-seed runs: %r vs %r" %
                  (first, name, a, b))
            ok = False
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
