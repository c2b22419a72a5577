#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, print one JSON result.

    python3 perfbench/run.py --workload seq-O2 --seed 1 --seconds 20 --trace 0

Run it from the root of the repository.  It configures and builds
perfbench/CMakeLists.txt (the repository's libraries from src/ plus the
perfbench binary) in .bench_build/perfbench, runs the binary, passes its
report through, and prints as the last line one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end_to_end metrics BENCHMARK.json declares, with --trace 1 its per_layer
metrics.  Any other outcome (no sources to build, a refused environment, a
crash) exits non-zero without printing a result.

Besides the binary's own checks, the counts it prints (fusion and typed
admissions, trace length, threaded fallbacks, ring edges, batch) must repeat
exactly across runs of the same binary; the first run of a workload records
them under the build directory.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
WORKLOADS = ("seq-O0", "seq-O2", "threads-O2")
# The binary must be done well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_sha():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()[:12]
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0][:12]
    except OSError:
        pass
    return "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/ beside perfbench/: nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            die("build failed: " + " ".join(cmd))


def binary_id():
    h = hashlib.sha256()
    with open(EXE, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def check_counts_repeat(workload, lines):
    """Compare this run's count lines with the first run of this binary."""
    counts = "".join(line + "\n" for line in lines if line.startswith("counts "))
    path = os.path.join(BUILD, f"counts-{workload}-{binary_id()}.txt")
    if not os.path.isfile(path):
        with open(path, "w") as f:
            f.write(counts)
        return True
    with open(path) as f:
        first = f.read()
    if first == counts:
        return True
    print(f"FAILED counts differ from the first run recorded in {path}")
    for old, new in zip(first.splitlines(), counts.splitlines()):
        if old != new:
            print(f"  was {old}\n  now {new}")
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    t0 = time.monotonic()
    build()
    print(f"build: {time.monotonic() - t0:.1f} s", file=sys.stderr)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        die(f"benchmark exited with code {proc.returncode}",
            proc.returncode or 1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    correct = bool(result["correct"])
    failed = int(result["failed"])
    attempted = int(result["attempted"]) + 1
    if not check_counts_repeat(args.workload, lines[:-1]):
        correct = False
        failed += 1

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die(f"binary did not report {m['name']} in {m['unit']}", 1)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
