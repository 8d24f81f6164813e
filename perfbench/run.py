#!/usr/bin/env python3
"""Build and run the closed-loop benchmark.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Builds ``perfbench/`` (which compiles the library from ``src/``) into
``$CARGO_TARGET_DIR/perfbench`` (default ``.bench_build/perfbench``),
runs one workload, verifies every op, prints each metric by name and
unit, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full record (sample counts, exact traffic, machine, seed, source
revision, premise checks) goes to ``<build>/results/``; a traced run
also writes its spans to ``<build>/traces/``. Exits nonzero when the
build fails or any op fails verification.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["als_fused_er", "serve_topk_batch", "serve_topk_single",
             "kernels_rmat_t4"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "dist", "plan.hpp")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}; "
             "run from the root of a full source checkout")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(os.path.join(bdir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", BENCH_DIR, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", bdir, "--parallel", "4"]):
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(bdir, "dsk_perfbench")


def source_revision():
    """The git commit when the checkout has one, and always a digest of
    the library and benchmark sources (the checkout may not be a git
    repository)."""
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as f:
                    commit = f.read().strip()
        else:
            commit = ref
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()


def run_workload(binary, bdir, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no JSON result (exit {done.returncode})")
    return result, done.returncode


def print_summary(workload, result):
    info = result["info"]
    print(f"{workload}: {info['samples']} timed ops, "
          f"{result['attempted']} verified, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if "latency_ms_p90" in info:
        print(f"  latency_ms_p90 = {info['latency_ms_p90']:.6g} ms "
              f"(of {info['untraced_samples']} samples)")
    # Exact per-op counts the public API returns (0 where a workload
    # moves no messages; not returned by the serving API).
    if "comm_words" in info:
        print(f"  comm_words = {info['comm_words']} words")
        print(f"  comm_messages = {info['comm_messages']} messages")
    elif workload == "kernels_rmat_t4":
        print("  comm_words = 0 words\n  comm_messages = 0 messages")
    print(f"  error_rate = {info['error_rate']:.6g} ratio")
    for name, holds in info.get("premises", {}).items():
        print(f"  premise {name}: {'holds' if holds else 'DOES NOT HOLD'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    binary = build(bdir)
    commit, digest = source_revision()
    results_dir = os.path.join(bdir, "results")
    os.makedirs(results_dir, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    exit_code = 0
    for workload in workloads:
        result, code = run_workload(binary, bdir, workload, args.seed,
                                    args.seconds, args.trace)
        record = dict(result)
        record["info"] = dict(result["info"], seconds=args.seconds,
                              trace=args.trace, commit=commit,
                              source_sha256=digest)
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(results_dir, name), "w") as f:
            json.dump(record, f, indent=1)
        print_summary(workload, result)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else workload + "."
        for metric, value in result["metrics"].items():
            combined["metrics"][prefix + metric] = value
        if code != 0 or not result["correct"]:
            exit_code = 1
    print(json.dumps(combined))
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
