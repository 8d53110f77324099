#!/usr/bin/env python3
"""Runs one workload of the DLNER benchmark and prints its result.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. It configures and builds the repository
with CMake under .bench_build/ (the first run takes a minute or so), runs
the runner, and prints a human-readable summary followed, as the last line,
by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 the per_layer ones. The traced run also writes the
benchmark's spans to .bench_build/runs/<workload>-<seed>-1/trace.json and
validates them with tools/check_trace.py. Workload parameters (rates,
sizes, traffic mix) live in perfbench/workloads.json.

failed_share = failed / attempted of the result line: requests of the
fixed-rate phases that were refused (429/503), failed with another code,
answered wrongly, never sent, or unanswered at the drain timeout.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "dlner")
RUNNER_TIMEOUT_S = 170

# Per-layer metrics of layers a workload does not run: only serve_mixed
# has a server.
SERVER_ONLY = ("serve.", "loadgen.repeat_share", "registry.reload_ms")

# One benchmark span per layer of the per-layer table, required in the
# trace of every workload (loadgen/request only where requests go over TCP).
REQUIRED_SPANS = [
    "cache/get", "cache/put", "protocol/parse", "protocol/render",
    "registry/load", "core/pipeline_load", "core/tag_corpus_b1",
    "core/tag_corpus_b16", "plan/compile", "plan/execute",
    "runtime/tag_corpus_1t", "runtime/tag_corpus_nproc", "tensor/bilstm",
    "tensor/affine", "tensor/crf_decode", "text/tokenize", "stream/feed",
    "stream/flush", "entity_memory/apply", "entity_memory/observe",
]
SERVE_SPANS = ["serve/phase", "loadgen/request", "loadgen/send",
               "loadgen/validate"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds dlner_serve and the runner."""
    hook = os.path.join(HERE, "build.cmake")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
               f"-DCMAKE_PROJECT_dlner_INCLUDE={hook}"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "--target", "dlner_serve_tool",
           "perfbench_runner", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def cmake_cache():
    values = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt"), encoding="utf-8") as f:
            for line in f:
                name, sep, value = line.strip().partition("=")
                if sep and not name.startswith(("#", "//")):
                    values[name.split(":")[0]] = value
    except OSError:
        pass
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as f:
        params = json.load(f)
    if args.workload not in params:
        log(f"unknown workload {args.workload!r}; have {sorted(params)}")
        return 2
    if not build():
        log("build failed")
        return 1

    work = os.path.join(ROOT, ".bench_build", "runs",
                        f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(BUILD, "tools", "dlner_serve"),
           "--work-dir", work]
    for key, value in params[args.workload].items():
        cmd += ["--param", f"{key}={value}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("runner timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"runner exited with {proc.returncode}")
        return 1
    res = json.loads(lines[-1])
    failures = list(res["failures"])

    spec = bench["per_layer" if args.trace else "end_to_end"]
    serve = args.workload == "serve_mixed"
    metrics = {}
    for m in spec:
        name = m["name"]
        got = res["metrics"].get(name)
        not_run = not serve and name.startswith(SERVER_ONLY)
        if got is None and args.trace and not_run:
            got = {"value": 0, "unit": m["unit"], "n": 0, "q1": 0, "q3": 0}
        if got is None:
            failures.append(f"metric {name} was not measured")
            continue
        if got["unit"] != m["unit"]:
            failures.append(f"metric {name} measured in {got['unit']}, "
                            f"declared in {m['unit']}")
        metrics[name] = got

    if args.trace:
        check = [sys.executable, os.path.join(ROOT, "tools", "check_trace.py"),
                 "--trace", os.path.join(work, "trace.json")]
        for span in REQUIRED_SPANS + (SERVE_SPANS if serve else []):
            check += ["--require-span-arg", f"{span}:req"]
        if subprocess.run(check, stdout=sys.stderr).returncode != 0:
            failures.append("tools/check_trace.py rejected the trace")

    cache = cmake_cache()
    host = dict(res["host"])
    host.update({
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "DLNER_MARCH_NATIVE": cache.get("DLNER_MARCH_NATIVE", "?"),
        "march": "-march=native" if cache.get("DLNER_HAS_MARCH_NATIVE") == "1"
                 and cache.get("DLNER_MARCH_NATIVE") == "ON" else "default",
        "DLNER_SIMD": cache.get("DLNER_SIMD", "?"),
        "workload": args.workload, "seed": str(args.seed),
        "seconds": str(args.seconds), "trace": str(args.trace),
    })
    correct = not failures
    attempted = max(1, int(res["attempted"]))
    failed = int(res["failed"])
    full = {"host": host, "correct": correct, "failures": failures,
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "info": res["info"]}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as f:
        json.dump(full, f, indent=2, sort_keys=True)

    print("host: " + ", ".join(f"{k}={v}" for k, v in sorted(host.items())))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}  "
              f"(n={m['n']}, q1={m['q1']:.6g}, q3={m['q3']:.6g})")
    for name, value in sorted(res["info"].items()):
        print(f"info: {name} = {value:.6g}")
    print(f"failed_share = {failed / attempted:.6g} "
          f"({failed} of {attempted} attempted)")
    print(f"correct = {str(correct).lower()}")
    for why in failures:
        print(f"FAIL: {why}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
