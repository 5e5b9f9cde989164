#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that
  - a short clean run exits 0 with correct=true, failed=0 and exactly the
    end-to-end metrics BENCHMARK.json declares (and, traced, exactly the
    per-layer ones), each with its declared unit;
  - the same run with one reference answer corrupted is caught: exit 1,
    correct=false, failed >= 1;
and that in a directory holding only BENCHMARK.json and perfbench/ (no
library sources) the runner exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "2"


def run(args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def result_of(lines):
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if "metrics" in result else None


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    failures = []

    def check(condition, what):
        print(("ok   " if condition else "FAIL ") + what, flush=True)
        if not condition:
            failures.append(what)

    for workload in (w["name"] for w in declared["workloads"]):
        base = ["--workload", workload, "--seed", "1", "--seconds", SECONDS]
        for trace in (0, 1):
            code, lines = run(base + ["--trace", str(trace)])
            result = result_of(lines)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace={trace}: clean run passes")
            units = {name: m["unit"] for name, m in
                     (result or {"metrics": {}})["metrics"].items()}
            check(units == expected[trace],
                  f"{workload} trace={trace}: metrics match BENCHMARK.json")
        code, lines = run(base + ["--trace", "0", "--corrupt-reference"])
        result = result_of(lines)
        check(code == 1 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"{workload}: a corrupted reference answer is caught")

    # Without the library sources the runner must refuse, printing no
    # result. The copy lives inside the build directory, in the checkout.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    code, lines = run(["--workload", "adhoc-cold", "--seed", "1",
                       "--seconds", SECONDS, "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result_of(lines) is None,
          "without src/ the runner exits non-zero and prints no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
