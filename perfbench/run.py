#!/usr/bin/env python3
"""Build the ttlg benchmark from source and run one workload per process.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The program is built into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. --workload all runs every workload, each in its own process, and
prints one line per workload before a combined object. --self-test injects a
flipped output element and a dropped response and exits 0 only if each is
reported as a failed op. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["single_use", "repeated_use", "accumulate_use", "scale_out"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure once, then build (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cfg += ["-G", "Ninja"]
            if subprocess.call(cfg, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(out, ignore_errors=True)
                fail("configure failed; see the build log", 1)
        jobs = str(min(4, os.cpu_count() or 1))
        rc = subprocess.call(["cmake", "--build", out, "-j", jobs],
                             stdout=log, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("build failed", 1)
    return os.path.join(out, "perfbench")


def results_dir(binary):
    """Per-binary directory for span dumps and determinism records."""
    h = hashlib.sha1()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    d = os.path.join(build_dir(), "out", h.hexdigest()[:16])
    os.makedirs(d, exist_ok=True)
    return d


def run_one(binary, workload, seed, seconds, trace, inject=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", results_dir(binary)]
    if inject:
        cmd += ["--inject", inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}", 1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} printed an unexpected result object", 1)
    return result


def self_test(binary):
    """Each injected fault must surface as a failed op."""
    ok = True
    for workload, inject, seconds in [("repeated_use", "flip", 1),
                                      ("scale_out", "flip", 1),
                                      ("scale_out", "drop", 1)]:
        res = run_one(binary, workload, 1, seconds, 0, inject)
        caught = res["failed"] >= 1 and not res["correct"]
        ok &= caught
        print(f"self-test {workload} --inject {inject}: failed={res['failed']} "
              f"correct={res['correct']} -> {'caught' if caught else 'MISSED'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    binary = build()
    if args.self_test:
        sys.exit(self_test(binary))
    if args.workload != "all":
        print(json.dumps(run_one(binary, args.workload, args.seed,
                                 args.seconds, args.trace)))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        res = run_one(binary, w, args.seed, args.seconds, args.trace)
        print(w, json.dumps(res))
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
