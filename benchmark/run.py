#!/usr/bin/env python3
"""Build and run one benchmark workload from the root of a checkout.

    python3 benchmark/run.py --workload ingest_lossy --seed 1 --seconds 30 --trace 0

Configures benchmark/ as its own CMake project in .bench_build/ (the
first run compiles the library, later runs only relink what changed),
then runs ct_bench once. Build output goes to stderr; ct_bench's output
goes to stdout, whose last line is the result JSON. --trace 1 makes a
traced run: per-layer metrics instead of end-to-end ones, with the span
file under .bench_build/traces/. Each run's full result, with host
facts, is also written to .bench_build/results/ for compare.py.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no library sources at ./src; run from the root of a checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "benchmark", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "ct_bench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")


def commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()

    kind = "traced" if args.trace else "untraced"
    tag = "%s-seed%d-%s" % (args.workload, args.seed, kind)
    results = os.path.join(BUILD_DIR, "results")
    scratch = os.path.join(BUILD_DIR, "scratch", "%s-%d" % (tag, os.getpid()))
    os.makedirs(results, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "ct_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--scratch", scratch,
               "--out", os.path.join(results, tag + ".json")]
    if args.trace:
        command += ["--trace", os.path.join(BUILD_DIR, "traces")]
    sha = commit()
    if sha:
        command += ["--commit", sha]

    # Library telemetry must not leak into the measured numbers.
    env = {k: v for k, v in os.environ.items()
           if k not in ("CT_TRACE_OUT", "CT_METRICS_OUT", "CT_JOBS")}
    sys.stdout.flush()
    try:
        code = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("ct_bench exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
