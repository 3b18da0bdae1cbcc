#!/usr/bin/env python3
"""Builds the program from this checkout and runs one benchmark workload.

    python3 perfbench/run.py --workload churn|scale|sessions --seed N \
        --seconds S --trace 0|1 [--smoke]

The program's sources (src/) and the benchmark binary (perfbench/*.cc) are
compiled in Release into the build tree named by $CARGO_TARGET_DIR, or
.bench_build at the checkout root. Build output goes to standard error;
standard output carries the binary's report, whose last line is the JSON
result. Without src/, or when the build fails, the script exits non-zero
and prints no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no program sources under src/", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "udcbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        return 1
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(traces, workload + ".csv")]
    sys.stdout.flush()
    return subprocess.run([os.path.join(out, "udcbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
