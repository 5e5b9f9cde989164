#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. On first use it configures and builds the
runner (perfbench/CMakeLists.txt: the library from src/ as it stands, in
Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs rebuild only what changed. It then runs the workload and
prints two JSON lines on standard output: the run's provenance (machine,
compiler, code digest, seed and every workload parameter) and, last, the
result object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md).

Exit status 0 means every operation succeeded and every answer passed its
correctness gate. Any miss exits 1 (the result line then shows it); a
build or usage failure exits 2 without a result line.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["adhoc-cold", "serve-zipf", "update-mix", "tree-automaton"]
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720  # A first run, build included, must end in 900 s.
RUN_TIMEOUT_S = 170    # Any other run must end in 180 s.


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def run_quiet(command, timeout):
    """Runs a build step with its output sent to stderr."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if done.returncode != 0:
        fail(f"failed: {' '.join(command)}")


def build():
    if not (ROOT / "src" / "workloads" / "workloads.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_root() / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        run_quiet(configure, CONFIGURE_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(out), "-j", jobs], BUILD_TIMEOUT_S)
    return out / "perfbench"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def src_digest():
    """sha256 over the library sources measured: identifies the code even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    # Self-test hook (selftest.py): perturb one reference answer.
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    workdir = build_root() / "perfbench-work"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.corrupt_reference:
        command += ["--corrupt-reference", "1"]
    try:
        # On a timeout, subprocess.run kills the runner and waits for it.
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        params = json.loads(lines[-2])["perfbench_params"]
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, KeyError, ValueError, AssertionError):
        sys.stderr.write(done.stdout)
        fail(f"{args.workload} exited {done.returncode} without a result")

    provenance = {
        "workload": args.workload,
        "git_sha": git_sha(),
        "src_sha256_16": src_digest(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
    }
    provenance.update(params)
    print(json.dumps({"perfbench_provenance": provenance}, sort_keys=True))
    print(lines[-1], flush=True)
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
