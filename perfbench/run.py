#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload train_cnn|train_seq|serve_mixed \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/ (the Latte library
plus the latte_perfbench binary) into .bench_build/perfbench, runs the
workload in one process from a cold JIT cache, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). A traced run also writes a Chrome trace and a
self-time table under .bench_build/traces/. Exits 1 on a failed correctness
check or JIT fallback (after printing the result), and without a result
when the build or the run fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "latte_perfbench"

# serve_mixed: fixed absolute rates, never a fraction of a measured peak.
# BENCHMARK.json's workload line restates them (checked by the self-tests).
SERVE = {
    "nominal_rps": 80,
    "ladder_rps": [50, 100, 150, 200, 250, 300, 400, 500, 600, 800],
    "limit_ms": 50,
    "rung_s": 1.5,
}
RUN_TIMEOUT_S = 170
# OpenMP settings of the workload process. The benchmark host is a 4-vCPU VM
# on a shared machine: a team spanning every vCPU stalls whenever any one
# of them is preempted (train_cnn's step p90 swung from 21 to 44 ms between
# identical runs at 4 threads), so teams have two threads, which keeps the
# parallel loops and the serving replicas' contention with them. Training
# also pins its team (train_seq's step p50 varied 3.15-3.45 ms unpinned,
# 3.51-3.54 ms pinned); serving cannot, because its replica threads would
# inherit the main thread's pinning. Serving instead makes idle team threads
# sleep rather than spin, so one replica's idle team does not take the
# other's cores (request p90 read 10.5-21.7 ms spinning, 9.3-11.3 ms
# sleeping, in interleaved runs).
OMP_ENV = {"OMP_NUM_THREADS": "2"}
WORKLOAD_ENV = {
    "train_cnn": {"OMP_PROC_BIND": "true"},
    "train_seq": {"OMP_PROC_BIND": "true"},
    "serve_mixed": {"OMP_WAIT_POLICY": "passive"},
}


def build():
    """Configures and builds perfbench/ (incremental after the first run).
    Build output goes to stderr: stdout carries only the result."""
    out = BUILD / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))


def run_workload(workload, seed, seconds, trace):
    """Runs latte_perfbench once; returns (raw report, exit code)."""
    tag = "%s-%d-%d-%d" % (workload, seed, trace, os.getpid())
    jit_root = BUILD / "jit" / tag
    report = BUILD / "reports" / (tag + ".json")
    report.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(report), "--jit-root", str(jit_root)]
    if workload == "serve_mixed":
        cmd += ["--nominal-rps", str(SERVE["nominal_rps"]),
                "--ladder", ",".join(map(str, SERVE["ladder_rps"])),
                "--limit-ms", str(SERVE["limit_ms"]),
                "--rung-sec", str(SERVE["rung_s"])]
    env = dict(os.environ, **OMP_ENV, **WORKLOAD_ENV[workload])
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: %s timed out" % workload)
    finally:
        shutil.rmtree(jit_root, ignore_errors=True)
    if code not in (0, 1) or not report.exists():
        raise SystemExit("perfbench: latte_perfbench exited %d" % code)
    with open(report) as f:
        doc = json.load(f)
    report.unlink()
    return doc, code


def write_trace(doc):
    """Writes the Chrome trace and the self-time table of a traced run."""
    out = BUILD / "traces"
    out.mkdir(parents=True, exist_ok=True)
    stem = "%s-%d" % (doc["workload"], doc["seed"])
    events = []
    for s in doc["spans"]:
        if s["ph"] == "X":
            events.append(dict(s, pid=1))
        else:  # async: a begin/end pair sharing the request id
            base = {"name": s["name"], "cat": "request", "pid": 1,
                    "tid": 0, "id": s["id"]}
            events.append(dict(base, ph="b", ts=s["ts"]))
            events.append(dict(base, ph="e", ts=s["ts"] + s["dur"]))
    with open(out / (stem + ".trace.json"), "w") as f:
        json.dump({"traceEvents": events}, f)
    table = analysis.self_time_table(doc["spans"])
    with open(out / (stem + ".selftime.txt"), "w") as f:
        f.write("%-48s %8s %12s %12s\n" % ("span", "count", "total_ms",
                                          "self_ms"))
        for name, (n, tot, slf) in sorted(table.items(),
                                          key=lambda kv: -kv[1][2]):
            f.write("%-48s %8d %12.3f %12.3f\n" % (name, n, tot, slf))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=analysis.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    build()
    doc, code = run_workload(args.workload, args.seed, args.seconds,
                             args.trace)
    for err in doc["errors"]:
        print("perfbench: check failed:", err, file=sys.stderr)
    if args.trace:
        write_trace(doc)
        values = analysis.per_layer(doc)
        declared = spec["per_layer"]
    else:
        values = analysis.end_to_end(doc)
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit("perfbench: metrics emitted %s differ from "
                         "BENCHMARK.json" % sorted(values))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": bool(doc["correct"]) and code == 0,
                      "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]),
                      "metrics": metrics}))
    return 0 if doc["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
