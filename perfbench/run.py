#!/usr/bin/env python3
"""End-to-end benchmark of the Sherlock toolchain.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-batch|serve-mix|faulty-guarded \
        --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt: the toolchain libraries from
src/ plus perfbench/src) into .bench_build/, runs one workload, and prints
one JSON object as the last line of stdout:

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"compile_s": {"value": 6.1, "unit": "s"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The traced run also writes, under
.bench_build/perfbench-out/, a Chrome trace and a JSON file with every
per-layer number the harness measured (including those that read zero on
some workloads and are therefore not in BENCHMARK.json).

Determinism: every run stores the values that must repeat exactly for its
seed (modeled latency/energy/P_app, instruction counts, per-layer counts,
a digest of every emitted program) under .bench_build/perfbench-out/
records/, keyed by a hash of the harness binary. A later run of the same
binary and seed that disagrees counts each drifting value as a failure.

The default seed is DEFAULT_SEED; a claimed gain must also hold on
HELD_OUT_SEED, which is not used while tuning a change.

Exits 0 when every operation succeeded and every output checked out;
otherwise 1 (with the result line when the harness ran at all).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 20240623
WORKLOADS = ("paper-batch", "serve-mix", "faulty-guarded")
HARNESS_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench-out")


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness (both incremental); returns its
    path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def file_hash(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def check_record(binary, workload, seed, record):
    """Compares `record` with the stored one for this binary and seed.
    Returns the number of drifting values (the first run stores it)."""
    path = os.path.join(OUT, "records", file_hash(binary),
                        "%s-%d.json" % (workload, seed))
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        return 0
    with open(path) as f:
        stored = json.load(f)
    drift = 0
    for key in sorted(set(stored) | set(record)):
        if stored.get(key) != record.get(key):
            drift += 1
            log("FAIL: determinism drift in %s: %r was %r"
                % (key, record.get(key), stored.get(key)))
    return drift


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    os.makedirs(OUT, exist_ok=True)
    stem = "%s-%d" % (args.workload, args.seed)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT]
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT, stem + "-trace.json")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=HARNESS_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("harness printed no result (exit %d)" % done.returncode)
        return 1
    result = json.loads(lines[-1])

    failed = result["failed"]
    failed += check_record(binary, args.workload, args.seed,
                           result["record"])
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("FAIL: metric %s missing or in another unit" % m["name"])
            failed += 1
            continue
        metrics[m["name"]] = got
    if args.trace:
        with open(os.path.join(OUT, stem + "-layers.json"), "w") as f:
            json.dump(result["metrics"], f, indent=1, sort_keys=True)
    correct = failed == 0 and done.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": max(1, result["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as e:
        log("error:", e)
        sys.exit(1)
