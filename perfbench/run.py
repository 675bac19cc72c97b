#!/usr/bin/env python3
"""Build and run the PlanetP end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query_live --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the program's
sources plus the benchmark program) into .bench_build/; later calls only
rebuild what changed. The benchmark process is then pinned to one CPU (the
highest-numbered CPU this process may use) and its standard output is passed
through; its last line is the result JSON. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("query_live", "publish_mix", "churn_sim")
ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "planetp_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; False when the program cannot be built."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
        if result.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def source_id():
    """The git commit when the checkout is a repository, else a digest of the
    program and benchmark sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=False)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, ROOT)):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", type=int, choices=(0, 1), default=0,
                        help="tiny sizes, for the benchmark's own smoke test")
    args = parser.parse_args()

    if not build():
        return 1

    cpu = max(os.sched_getaffinity(0))
    env = dict(os.environ, PERFBENCH_COMMIT=source_id())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--smoke", str(args.smoke), "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=False,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        valid = False
    if not valid:
        sys.stderr.write(proc.stdout)
        log(f"benchmark exited {proc.returncode} without a result line")
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode == 0 and not result["correct"]:
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
