#!/usr/bin/env python3
"""Builds and runs the interactive-round benchmark (see README.md).

Run from the root of a SeeSaw checkout:

    python3 roundbench/run.py --workload table6-fp32 --seed 1 \
        --seconds 10 --trace 0

It configures and builds roundbench/ (Release) under $CARGO_TARGET_DIR
(default .bench_build), runs the helpers' self-tests, then runs round_bench.
Human-readable lines go to stdout first; the last stdout line is the JSON
result. Detailed results (host block, every metric with its sample count,
span summaries) are written to <build dir>/results/.

Besides round_bench's own checks, this script fails the result when the
metric names differ from BENCHMARK.json, and when ap_mean differs from an
earlier run of the same workload and seed on the same sources.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "round_bench", "round_bench_selftest"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def source_fingerprint():
    """Hash of the program and benchmark sources; keys the ap_mean record."""
    digest = hashlib.sha256()
    for top in ("src", os.path.join("roundbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def check_ap_repeats(build_dir, workload, seed, ap_mean, failures):
    """ap_mean of one seed must repeat exactly across runs of one source."""
    record_dir = os.path.join(build_dir, "ap_record")
    os.makedirs(record_dir, exist_ok=True)
    path = os.path.join(record_dir,
                        f"{workload}-seed{seed}-{source_fingerprint()}.txt")
    if os.path.exists(path):
        with open(path) as f:
            previous = f.read().strip()
        if previous != repr(ap_mean):
            failures.append(f"ap_mean {ap_mean!r} differs from an earlier run "
                            f"of this seed ({previous})")
    else:
        with open(path, "w") as f:
            f.write(repr(ap_mean))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "roundbench")
    if not build(build_dir):
        return 1
    selftest = subprocess.run([os.path.join(build_dir, "round_bench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("self-tests failed")
        return 1

    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "round_bench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out_dir={results_dir}", f"--git_sha={git_sha()}"]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"round_bench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    log(f"round_bench exited {proc.returncode} after "
        f"{time.monotonic() - start:.1f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    failures = []
    if {k: v["unit"] for k, v in result["metrics"].items()} != expected:
        log(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json "
            f"{section} {sorted(expected)}")
        return 1
    detail_path = os.path.join(
        results_dir,
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path) as f:
        detail = json.load(f)
    check_ap_repeats(build_dir, args.workload, args.seed,
                     detail["metrics"]["ap_mean"]["value"], failures)
    for failure in failures:
        log(f"check failed: {failure}")
    if failures:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
