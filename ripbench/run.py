#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 ripbench/run.py --workload table1 --seed 2005 --seconds 30 --trace 0

Builds the rip library and the harness in ripbench/ into .bench_build/
(Release), runs one workload, and prints the harness's summary followed
by one JSON line with exactly the keys correct, attempted, failed and
metrics. Generated inputs, CSVs, traces and the full result records
(with the hardware and provenance block) go to .bench_out/.

Two runs of the same sources and seed must reproduce every exact count
and output hash: each run stores them under .bench_out/counts/ and a
later run with the same sources and seed fails its check on any
difference.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("table1", "retarget-stream", "small-stream")
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
BINARY = os.path.join(BUILD_DIR, "ripbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"ripbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; on a stale cache, start over once."""
    jobs = str(min(4, os.cpu_count() or 1))

    def attempt():
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                        "--target", "ripbench"],
                       stdout=sys.stderr, check=True)

    try:
        attempt()
    except subprocess.CalledProcessError:
        if not os.path.isdir(BUILD_DIR):
            raise
        log("build failed; retrying from a clean build directory")
        shutil.rmtree(BUILD_DIR)
        attempt()


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler():
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, check=True).stdout
        return out.splitlines()[0].strip()
    except (OSError, subprocess.CalledProcessError, IndexError):
        return cxx


def commit():
    if not os.path.isdir(".git"):
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """sha256 over every library and benchmark source file."""
    h = hashlib.sha256()
    for top in ("src", BENCH_DIR):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def provenance(record, args):
    config = record["config"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "jobs": int(config.get("jobs", 0)),
        "max_pending": config.get("max_pending", "n/a"),
        "seed": args.seed,
        "commit": commit(),
        "source_digest": source_digest(),
    }


def check_counts(record, args, digest):
    """Compare exact counts with earlier runs of the same sources and
    seed: the same trace mode must match entirely, and output hashes
    must match across trace modes. Returns the mismatches."""
    counts_dir = os.path.join(OUT_DIR, "counts")
    os.makedirs(counts_dir, exist_ok=True)
    counts = record["counts"]
    problems = []
    for trace in (0, 1):
        path = os.path.join(counts_dir,
                            f"{args.workload}-seed{args.seed}-trace{trace}.json")
        try:
            with open(path) as f:
                earlier = json.load(f)
        except (OSError, ValueError):
            continue
        if earlier.get("source_digest") != digest:
            continue
        for key, value in earlier["counts"].items():
            same_mode = trace == args.trace
            if key in counts and (same_mode or key.startswith(("stream.csv",
                                                               "table1.cells"))):
                if counts[key] != value:
                    problems.append(f"{key} is {counts[key]}, an earlier run "
                                    f"(trace {trace}) had {value}")
    mine = os.path.join(counts_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if not problems:
        with open(mine, "w") as f:
            json.dump({"source_digest": digest, "counts": counts}, f, indent=1)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"harness exited with code {proc.returncode}")
        return proc.returncode or 1
    record = json.loads(lines[-1])

    prov = provenance(record, args)
    count_problems = check_counts(record, args, prov["source_digest"])
    record["problems"] += count_problems
    record["correct"] = record["correct"] and not count_problems
    record["provenance"] = prov
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}-{stamp}.json"), "w") as f:
        json.dump(record, f, indent=1)

    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(prov))
    for p in count_problems:
        print(f"FAILED CHECK: {p}")
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
