#!/usr/bin/env python3
"""Runs one workload of the rrspmm end-to-end benchmark.

    python3 perfbench/run.py [--threads T] --workload W --seed S \
        --seconds N --trace 0|1

Run from the root of a source checkout. The script builds the library
and the benchmark program with CMake into .bench_build/ (the first run
builds; later runs rebuild what changed), writes the workload's inputs from the
seed into a fresh temporary directory under .bench_build/runs/ with a
separate generation process, runs the measurement in another process
and removes the directory. The measurement prints informational lines
and then, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics.

Thread counts are the only program settings the benchmark makes:
OMP_NUM_THREADS (kernels) and RRSPMM_THREADS (preprocessing pool and
server workers) are both set to --threads; every other RRSPMM_*/OMP_*
variable is removed from the child environment so runs see the
library's defaults.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ("gnn_clustered", "serve_mixed", "ingest_corpus")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures once, then builds (a no-op when nothing changed)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    exe = os.path.join(build_dir, "cpp-build", "perfbench")
    if not os.access(exe, os.X_OK):
        raise RuntimeError(f"build produced no benchmark program at {exe}")
    return exe


def child_env(threads, tmpdir):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("RRSPMM_", "OMP_", "GOMP_"))}
    env["OMP_NUM_THREADS"] = str(threads)
    env["RRSPMM_THREADS"] = str(threads)
    # Anything the library spills to the system temp directory stays in
    # this run's directory.
    env["TMPDIR"] = tmpdir
    return env


def parse_result(stdout):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("benchmark program printed nothing")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise RuntimeError(f"result has keys {sorted(result)}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--threads", type=int, default=2)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        log(f"no rrspmm sources next to perfbench/ in {root}; run from a source checkout")
        return 2
    nproc = len(os.sched_getaffinity(0))
    if args.threads > nproc:
        log(f"warning: --threads {args.threads} exceeds the {nproc} usable CPUs")

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    try:
        exe = build(root, build_dir)
    except (subprocess.CalledProcessError, RuntimeError) as e:
        log(f"build failed: {e}")
        return 1

    # On SIGTERM, unwind normally: subprocess.run kills and reaps the
    # child, and the finally clause below removes the run directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runs_dir = os.path.join(root, ".bench_build", "runs")
    os.makedirs(runs_dir, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    try:
        env = child_env(args.threads, tmpdir)
        common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", tmpdir]
        subprocess.run([exe, "gen"] + common, check=True, env=env, timeout=GEN_TIMEOUT_S,
                       stdout=sys.stderr, stderr=sys.stderr)
        proc = subprocess.run([exe, "run"] + common + ["--seconds", str(args.seconds),
                                                       "--trace", args.trace],
                              env=env, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True)
        if proc.returncode != 0:
            log(f"benchmark program exited with {proc.returncode}")
            return 1
        result = parse_result(proc.stdout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError,
            ValueError) as e:
        log(f"run failed: {e}")
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if result["attempted"] >= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
