#!/usr/bin/env python3
"""End-to-end search benchmark: build, generate inputs, check, measure.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper40 --seed 1 --seconds 20 --trace 0

Steps: build perfbench/ (the library sources plus bench_e2e) into
.bench_build/, generate the workload's FASTA inputs from the seed, compute
the exhaustive top-k reference once per seed and binary, then run the
measurement. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics (the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1).
The exit code is non-zero when the build fails, a top-k differs from the
reference, or the metrics do not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD = ".bench_build"
STEP_BUDGET_S = 170.0


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def child_env():
    tmp = os.path.abspath(os.path.join(BUILD, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp  # compiler and linker scratch stays in the checkout
    return env


def run_step(cmd, timeout, capture=False):
    """Runs cmd to completion. On timeout its whole process group (make and
    the compilers under cmake, too) is killed and reaped, then it raises."""
    with subprocess.Popen(
        cmd,
        env=child_env(),
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout)


def build():
    if not os.path.isfile(os.path.join("src", "swhybrid.hpp")):
        raise RuntimeError("no library sources under src/ in " + os.getcwd())
    build_dir = os.path.join(BUILD, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = run_step(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"], 300)
        if r.returncode != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = run_step(["cmake", "--build", build_dir, "-j", jobs], 840)
    if r.returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(build_dir, "bench_e2e")


def file_digest(path):
    h = hashlib.sha1()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:12]


def inputs_for(binary, workload, seed, toy, deadline):
    """Seeded inputs plus their reference, cached per binary and seed."""
    name = f"{workload}{'-toy' if toy else ''}-{seed}"
    final = os.path.join(BUILD, "inputs", file_digest(binary), name)
    if os.path.isdir(final):
        return final
    tmp = final + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    common = ["--workload", workload, "--dir", tmp] + (["--toy"] if toy else [])
    for step in (["gen", "--seed", str(seed)], ["ref"]):
        r = run_step([binary, step[0]] + common + step[1:],
                     deadline - time.monotonic())
        if r.returncode != 0:
            raise RuntimeError(f"bench_e2e {step[0]} failed")
    os.replace(tmp, final)
    return final


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper40", "hetero_nohit", "short_socket"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy input sizes (the ledger self-test)")
    args = ap.parse_args()

    try:
        binary = build()
        deadline = time.monotonic() + STEP_BUDGET_S
        inputs = inputs_for(binary, args.workload, args.seed, args.toy,
                            deadline)
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_out = os.path.join(traces, f"{args.workload}-{args.seed}.json")
        cmd = [binary, "run", "--workload", args.workload, "--dir", inputs,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-out", trace_out]
        if args.toy:
            cmd.append("--toy")
        r = run_step(cmd, deadline - time.monotonic(), capture=True)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 2

    lines = r.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        log("error: bench_e2e printed no result")
        return 2
    result = json.loads(lines[-1])
    expected = declared_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        log("error: metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ expected)}")
        return 2
    if args.trace:
        log(f"Chrome trace written to {trace_out}")
    print(lines[-1], flush=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
