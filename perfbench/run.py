#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark (README.md in this directory).

    python3 perfbench/run.py --workload dense-inproc --seed 1 --seconds 20 --trace 0

Builds the benchmark program from source (the library in src/ plus perfbench/*.cpp)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs it
from the repository root, checks that its result line names exactly the
metrics BENCHMARK.json declares, and prints that line last. Exits non-zero,
without a result line, when the build or the run fails; exits 1 after the
result line when the run checked a wrong output.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_group(argv, timeout, **kw):
    """Run argv in its own process group; on timeout kill the whole group
    (forked rank workers included) and wait for it."""
    proc = subprocess.Popen(argv, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc, _ = run_group(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], 600,
                          stdout=sys.stderr)
        if rc != 0:
            return False
    rc, _ = run_group(["cmake", "--build", build_dir, "-j", "4"], 900,
                      stdout=sys.stderr)
    return rc == 0


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            with open(os.path.join(dirpath, f), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1

    # A short relative socket path: sun_path holds at most 107 bytes.
    sock = os.path.relpath(os.path.join(build_dir, f"advectd-{os.getpid()}.sock"), ROOT)
    argv = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--socket", sock]
    if args.trace:
        argv += ["--trace-out",
                 os.path.join(build_dir, f"calls-{args.workload}-{args.seed}.trace.json")]
    try:
        rc, out = run_group(argv, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s; killed")
        return 1
    finally:
        if os.path.exists(os.path.join(ROOT, sock)):
            os.unlink(os.path.join(ROOT, sock))
    lines = out.strip().splitlines()
    if rc not in (0, 1) or not lines:
        log(f"perfbench exited with {rc}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench printed no result line")
        return 1
    for line in lines[:-1]:
        if line.startswith("meta "):
            meta = json.loads(line[5:])
            meta["src_lines"] = src_lines()
            print("meta " + json.dumps(meta))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"result has keys {sorted(result)}")
        return 1
    got = set(result["metrics"])
    if got != expected:
        log(f"metrics differ from BENCHMARK.json: missing {sorted(expected - got)}, "
            f"extra {sorted(got - expected)}")
        return 1
    print(lines[-1], flush=True)
    return 0 if rc == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
