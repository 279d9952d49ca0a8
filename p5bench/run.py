#!/usr/bin/env python3
"""Build and run the p5bench benchmark.

One workload, one run (the last stdout line is the result):

    python3 p5bench/run.py --workload bulk_tcp --seed 1 --seconds 30 --trace 0

Every workload at once, with each metric printed by name and unit:

    python3 p5bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Later claims re-check on the held-out seed, HELD_OUT_SEED (--seed 7919).
--repeat N runs N seeds (seed, seed+1, ...); --results DIR says where
the per-run records (fingerprint + result) go, default .bench_results/.
compare.py reads those records. The first call configures and builds the
datapath libraries and the p5bench binary from src/ into .bench_build/
(CMake, Release). Run it from the repository root.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(ROOT, ".bench_results")
BINARY = os.path.join(BUILD, "p5bench")
BUILD_TYPE = "Release"
WORKLOADS = ["bulk_tcp", "trace_udp_paced", "server_fanin"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # later claims re-check on this seed; never tune on it
RUN_TIMEOUT_S = 170


def fail(msg):
    print("p5bench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the benchmark; the build log goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("datapath sources not found at src/; run from a full checkout")
    if not shutil.which("cmake"):
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", BUILD, "--target", "p5bench", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed")


def source_digest():
    """SHA-256 over the sources the binary is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "p5bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(workload, seed, seconds, trace, results):
    """Run the binary once. Returns (lines, fingerprint, result); exits on failure."""
    os.makedirs(results, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(results, tag + ".spans.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("%s exited with code %d" % (workload, proc.returncode))
    fingerprint, result = None, None
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result line" % workload)
    fingerprint["commit"] = git_commit()
    fingerprint["source_digest"] = source_digest()
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump({"fingerprint": fingerprint, "result": result}, f, indent=1)
    return lines[:-1], fingerprint, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1, help="run seeds seed..seed+N-1")
    ap.add_argument("--results", default=RESULTS, help="directory for the run records")
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload or --all")

    build()
    if not args.all and args.repeat == 1:
        lines, fingerprint, result = run_once(args.workload, args.seed, args.seconds, args.trace,
                                              args.results)
        for line in lines:
            if not line.startswith("fingerprint "):
                print(line)
        print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
        print(json.dumps(result))
        return

    for workload in WORKLOADS if args.all else [args.workload]:
        for seed in range(args.seed, args.seed + args.repeat):
            _, fingerprint, result = run_once(workload, seed, args.seconds, args.trace,
                                              args.results)
            print("== %s seed %d (%s s, trace %d): correct=%s attempted=%d failed=%d "
                  "fail_ratio=%.6f" %
                  (workload, seed, args.seconds, args.trace, result["correct"],
                   result["attempted"], result["failed"],
                   result["failed"] / result["attempted"]), flush=True)
            for name, m in result["metrics"].items():
                print("   %-42s %16.6g %s" % (name, m["value"], m["unit"]), flush=True)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))


if __name__ == "__main__":
    main()
