#!/usr/bin/env python3
"""Fig. 14 sweep benchmark entry point.

Builds the driver (perfbench/CMakeLists.txt: the simulator library from
src/ plus save-worker and save-serve) and runs one workload:

    python3 perfbench/run.py --workload fig14-cold --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); per-run stores, sockets and logs go to a fresh
directory under it and are removed afterwards. --trace 1 also writes a
Chrome-trace JSON of the spans to <build>/perfbench-<workload>.trace.json.
The last line of stdout is the result JSON.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig14-cold", "fig14-shard-proc")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: src/CMakeLists.txt not found; run from a checkout")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Sweep knobs; the defaults are the workloads' own (grid=3 ksteps=192
    # tiles=6). The self-test shrinks them.
    ap.add_argument("--grid", type=int)
    ap.add_argument("--ksteps", type=int)
    ap.add_argument("--tiles", type=int)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    if not build(build_dir):
        return 1

    # Relative paths keep the daemon's socket path short.
    work = os.path.relpath(os.path.join(build_dir, "run-%d" % os.getpid()))
    cmd = [os.path.join(build_dir, "bin", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work]
    for flag in ("grid", "ksteps", "tiles"):
        if getattr(args, flag) is not None:
            cmd += ["--" + flag, str(getattr(args, flag))]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "perfbench-%s.trace.json" % args.workload)]

    # The driver configures the library explicitly; keep stray SAVE_*
    # knobs (fault injection, SIMD overrides, ...) out of the children.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SAVE_")}
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
