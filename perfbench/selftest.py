#!/usr/bin/env python3
"""Smoke-sized self-test of every benchmark workload; runs in seconds.

    python3 perfbench/selftest.py

Builds like run.py, then runs each workload of BENCHMARK.json shrunk with
--smoke, untraced and traced, for one second each. Each run must end with a
JSON result that is correct, has no failed operations, and reports exactly
the metrics BENCHMARK.json names for its mode. Exits non-zero otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", "7", "--seconds", "1", "--trace", trace,
                   "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            problem = None
            if proc.returncode != 0 or not lines:
                problem = "exit %d: %s" % (proc.returncode, proc.stderr[-400:])
            else:
                result = json.loads(lines[-1])
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if not result["correct"]:
                    problem = "incorrect: " + proc.stderr[-400:]
                elif result["failed"] != 0 or result["attempted"] < 1:
                    problem = "failed %d of %d" % (result["failed"],
                                                   result["attempted"])
                elif units != expected[trace]:
                    problem = "metrics differ from BENCHMARK.json: %s" % sorted(
                        set(units.items()) ^ set(expected[trace].items()))
            status = "ok" if problem is None else "FAIL " + problem
            print("%-9s trace %s  %s" % (workload, trace, status))
            failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
