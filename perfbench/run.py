#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload uniform-pbsm --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The benchmark is a CMake project of
its own (perfbench/CMakeLists.txt) that builds the library from the checkout
in Release mode into $CARGO_TARGET_DIR (default .bench_build), then runs the
swiftbench binary. Build output goes to stderr; its report goes to
stdout, ending with one JSON result line (also printed when a result is
wrong, with "correct": false). Exits non-zero if the checkout has
no source tree, the build fails, swiftbench fails or finds a wrong result,
or its metric names do not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("uniform-pbsm", "osm-rtree", "serve-osm", "osm-accel")
# Upper bound on one swiftbench run; a normal run takes well under a minute.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Short sha256 over the sources the benchmark builds (the checkout need
    not be a git repository)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # Turn SIGTERM into an exception so subprocess.run kills and reaps the
    # build or swiftbench before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for needed in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at {ROOT}: not a SwiftSpatial source checkout")
    expected = expected_metrics(args.trace)

    build_dir = build()
    trace_out = os.path.join(build_dir, "traces",
                             f"{args.workload}-{args.seed}.jsonl")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [os.path.join(build_dir, "swiftbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"swiftbench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"swiftbench exited with {proc.returncode} and no result")
    if list(result["metrics"]) != expected:
        fail("swiftbench metrics do not match BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(expected))}")
    if args.trace:
        lines.insert(-1, f"# spans: {trace_out}")
    print("\n".join(lines), flush=True)
    if proc.returncode != 0:
        print(f"perfbench: swiftbench exited with {proc.returncode}",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
