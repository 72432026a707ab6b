#!/usr/bin/env python3
"""Build the perfbench driver from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The driver and the rtcad library are built with CMake into the directory
named by CARGO_TARGET_DIR (default: .bench_build). Build output goes to
stderr, so the last stdout line is the driver's JSON result. Without the
repository's sources next to perfbench/ the build fails and this script
exits non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no repository sources next to perfbench/")
    build(build_dir)
    args = sys.argv[1:]
    if args == ["--selftest"]:
        cmd = [os.path.join(build_dir, "perfbench_selftest"),
               os.path.relpath(build_dir, ROOT)]
    else:
        cmd = [os.path.join(build_dir, "perfbench"), *args,
               "--work-dir", os.path.relpath(build_dir, ROOT)]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
