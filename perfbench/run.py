#!/usr/bin/env python3
"""Serve-pipeline benchmark entry point.

    python3 perfbench/run.py --workload large-rounds --seed 7 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (which compiles ../src) in
Release mode into .bench_build/, runs the serve_bench program on the named
workload, and prints a machine fingerprint line followed by the program's
result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md). Build output and progress go to stderr. The
exit code is nonzero when the build fails or a round fails its check.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "serve_bench"
BUILD_TYPE = "Release"
# The whole run, build excluded, must end well within the 180 s budget.
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no program sources under src/ to build")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j4", "--target", "serve_bench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def cache_value(key):
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return "unknown"


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True, check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        pass
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = run.stdout.strip().splitlines()
    if not lines:
        print(f"perfbench: serve_bench printed no result (exit {run.returncode})",
              file=sys.stderr)
        return run.returncode or 4
    result = json.loads(lines[-1])
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
