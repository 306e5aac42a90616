#!/usr/bin/env python3
"""End-to-end simulator benchmark entry point.

Builds the benchmark package in this directory (which compiles the
simulator libraries from ../src) in Release mode, then runs one
workload:

    python3 e2e_bench/run.py --workload closed-8x8 --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root. Build output goes to stderr; the
benchmark's metric lines and its final JSON result line go to stdout.
The build lives under $CARGO_TARGET_DIR (default .bench_build) in the
repository root. See README.md for the workloads and metrics.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configure (once) and build the benchmark; return the binary."""
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "e2e_bench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2e_bench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2e_bench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2e_bench: simulator sources (src/) not found next to "
              + HERE, file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("e2e_bench: build failed: %s" % e, file=sys.stderr)
        return 2
    sys.stdout.flush()
    args = [binary] + sys.argv[1:] + [
        "--golden-dir", os.path.join(HERE, "golden")]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
