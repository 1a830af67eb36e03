#!/usr/bin/env bash
# CI entry point: tier-1 verification (configure, build, full test
# suite) followed by AddressSanitizer and UndefinedBehaviorSanitizer
# build+test passes in separate build trees, each of which also runs
# the fault-injection suite with an extra environment-driven fault
# sweep and the randomized `ttlg fuzz` harness. Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Fault-injection shakedown shared by both sanitizer trees: the fault
# suite re-runs with an extra TTLG_FAULTS spec from the environment,
# then the CLI fuzz harness sweeps every fault class.
fault_shakedown() {
  local build_dir="$1"
  echo "== fault-injection shakedown ($build_dir) =="
  TTLG_FAULTS="seed=99,alloc.p=0.2,launch.p=0.2,tex.p=0.2,smem.p=0.2" \
    "$build_dir/tests/test_fault_injection" --gtest_brief=1
  "$build_dir/tools/ttlg" fuzz --iters 60
}

echo "== tier-1: configure + build + ctest =="
# Warnings are errors in this tree: the build is warning-free, and
# -Werror keeps it that way.
cmake -B build -S . -G Ninja -DTTLG_WERROR=ON
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"
fault_shakedown build

echo "== perfdiff: specialization speedup gate (fresh run) =="
# Re-measure the BM_Execute* hot paths on THIS machine and hold them to
# the >=1.5x geomean bar against the pre-specialization baseline
# archived under results/baselines/. The second invocation is the
# polarity self-test: with a huge injected slowdown the gate must FAIL.
perf_dir=$(mktemp -d)
TTLG_BENCH_JSON_DIR="$perf_dir" \
  build/bench/microbench --benchmark_filter='BM_Execute' \
  --benchmark_min_time=0.1 >/dev/null
build/tools/perfdiff --filter BM_Execute --min-geomean-speedup 1.5 \
  results/baselines/BENCH_microbench.json "$perf_dir/BENCH_microbench.json"
if build/tools/perfdiff --filter BM_Execute --min-geomean-speedup 1.5 \
   --scale 1e6 results/baselines/BENCH_microbench.json \
   "$perf_dir/BENCH_microbench.json" >/dev/null 2>&1; then
  echo "fresh specialization gate did NOT fail on an injected slowdown" >&2
  exit 1
fi
rm -rf "$perf_dir"
echo "fresh specialization gate: >=1.5x geomean holds and polarity self-test trips"

echo "== perfdiff: bench-trajectory gate over results/ =="
# Every committed BENCH_*.json must pass the schema check, a self-diff
# must be regression-free, and the analyzer must reject an injected
# 1.5x slowdown (self-test of the gate itself). The fresh-run stage
# above gates this commit's hot paths; this stage guards the whole
# committed trajectory.
build/tools/perfdiff --check results
build/tools/perfdiff results results >/dev/null
if build/tools/perfdiff --scale 1.5 results results >/dev/null 2>&1; then
  echo "perfdiff did NOT fail on an injected 1.5x slowdown" >&2
  exit 1
fi
echo "perfdiff: schema check, self-diff and slowdown rejection all pass"

echo "== perfdiff: specialization speedup gate vs archived baseline =="
# Plan-time kernel specialization must keep the committed BM_Execute*
# hot paths at least 1.5x faster (geomean) than the pre-specialization
# baseline archived under results/baselines/. The second invocation is
# the polarity self-test: with a huge injected slowdown the improvement
# gate must FAIL, proving it can.
build/tools/perfdiff --filter BM_Execute --min-geomean-speedup 1.5 \
  results/baselines/BENCH_microbench.json results/BENCH_microbench.json
if build/tools/perfdiff --filter BM_Execute --min-geomean-speedup 1.5 \
   --scale 1e6 results/baselines/BENCH_microbench.json \
   results/BENCH_microbench.json >/dev/null 2>&1; then
  echo "specialization gate did NOT fail on an injected slowdown" >&2
  exit 1
fi
echo "specialization gate: >=1.5x geomean holds and polarity self-test trips"

echo "== perfdiff: fused batched-launch speedup gate (fresh run) =="
# The fused super-grid path must stay >=2x faster (amortized) than the
# per-call loop at batch >= 64 on small tensors. The bench re-measures
# both paths on THIS machine (and exits non-zero if the fused outputs
# or counters ever diverge from the loop — the bit-identity guard);
# perfdiff then gates each acceptance case. The committed trajectory
# twin lives at results/BENCH_batched_launch.json with its loop
# baseline archived under results/baselines/. The final invocation is
# the polarity self-test: an injected slowdown must trip the gate.
batched_dir=$(mktemp -d)
TTLG_BENCH_JSON_DIR="$batched_dir" build/bench/ext_batched_launch \
  --baseline-out "$batched_dir/loop.json" >/dev/null
for key in v1024/b64 v1024/b256; do
  build/tools/perfdiff --filter "$key" --min-geomean-speedup 2.0 \
    "$batched_dir/loop.json" "$batched_dir/BENCH_batched_launch.json"
done
if build/tools/perfdiff --filter v1024/b64 --min-geomean-speedup 2.0 \
   --scale 1e6 "$batched_dir/loop.json" \
   "$batched_dir/BENCH_batched_launch.json" >/dev/null 2>&1; then
  echo "batched-launch gate did NOT fail on an injected slowdown" >&2
  exit 1
fi
rm -rf "$batched_dir"
echo "batched-launch gate: >=2x amortized fuse holds and polarity self-test trips"

echo "== sanitizer pass: -DTTLG_SANITIZE=address =="
cmake -B build-asan -S . -G Ninja -DTTLG_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTTLG_BUILD_BENCH=OFF \
  -DTTLG_BUILD_EXAMPLES=OFF
cmake --build build-asan -j
ctest --test-dir build-asan --output-on-failure -j "$(nproc)"
fault_shakedown build-asan

echo "== sanitizer pass: -DTTLG_SANITIZE=undefined =="
cmake -B build-ubsan -S . -G Ninja -DTTLG_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTTLG_BUILD_BENCH=OFF \
  -DTTLG_BUILD_EXAMPLES=OFF
cmake --build build-ubsan -j
ctest --test-dir build-ubsan --output-on-failure -j "$(nproc)"
# The magic-division property test must be UB-clean: overflow in the
# multiplier precomputation would silently corrupt every block decode.
build-ubsan/tests/test_fastdiv --gtest_brief=1
fault_shakedown build-ubsan

echo "== sanitizer pass: -DTTLG_SANITIZE=thread =="
# ThreadSanitizer targets the parallel block-execution engine and the
# shared planning components: the concurrency battery hammers the
# worker pool, plan cache, metrics registry and fault injector, and
# the determinism battery exercises the parallel launch path itself.
cmake -B build-tsan -S . -G Ninja -DTTLG_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTTLG_BUILD_BENCH=OFF \
  -DTTLG_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j
"build-tsan/tests/test_concurrency" --gtest_brief=1
"build-tsan/tests/test_determinism" --gtest_brief=1
# The sharded executor fans one transpose out over concurrent devices
# through the shared thread pool; its differential battery must be
# race-free too (byte-identical merges at every shard/thread count).
"build-tsan/tests/test_shard_differential" --gtest_brief=1

echo "== chaos soak: service battery under TSan with faults armed =="
# The serving layer's keystone property — every request terminates with
# a classified status, zero lost or hung, bit-identical served outputs
# — must hold under ThreadSanitizer WITH the fault injector armed: the
# soak hammers admission control, quotas, deadline propagation, retry
# backoff and server shutdown from 8+ client threads at once.
"build-tsan/tests/test_service" --gtest_brief=1
TTLG_FAULTS="seed=11,alloc.p=0.05,launch.p=0.05,tex.p=0.05,smem.p=0.05" \
  "build-tsan/tests/test_chaos_soak" --gtest_brief=1

echo "CI passed."
