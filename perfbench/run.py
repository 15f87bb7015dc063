#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload read|churn \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles the
library from src/) in Release mode under .bench_build/ (or
$CARGO_TARGET_DIR when set); later calls only re-check the build. Build
output goes to stderr, so the measuring program's result object stays
the last line of stdout. Exits non-zero without a result when the
sources are missing or the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    for required in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, required)):
            print(f"perfbench: {required} not found; run from the repository "
                  "root of a full checkout", file=sys.stderr)
            return 1

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"perfbench: cannot run {step[0]}: {err}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    binary = os.path.join(build_dir, "perfbench")
    golden = os.path.join(bench_dir, "golden", "campaign_recall.tsv")
    sys.stdout.flush()
    return subprocess.run([binary, "--golden", golden] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
