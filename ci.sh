#!/bin/sh
# Offline CI gate for the matrix-engines workspace.
#
# Stages, fail-fast, no network and no external crates:
#   1. release build of every workspace package, compiler warnings denied
#   2. full test suite at default test parallelism (worker pools contend
#      with the test harness's own threads)
#   3. full test suite single-threaded (RUST_TEST_THREADS=1: each pool owns
#      the machine, the schedule real apps see)
#   4. build + test with --no-default-features (the `trace` feature
#      compiled out: the no-op probe layer must stay a drop-in)
#   5. release smoke run of the parallel_scaling bench (exercises the
#      worker pool + bitwise serial/parallel gates on optimized code)
#   6. traced smoke run of the same bench (ME_BENCH_TRACE=1): emits
#      artifacts/parallel_scaling_trace.json + .prom and structurally
#      validates the Chrome JSON in-process (lanes, span names, events)
#   7. kernel matrix: the cross-variant differential harness, the
#      trace-integration suite, the me-ozaki suite and the paper-headline
#      goldens under every micro-kernel the host can run (ME_KERNEL=scalar,
#      portable, avx2 when CPUID has avx2+fma, and avx512 when it has
#      avx512f), proving the dispatch override and the bitwise-identity
#      contract on each variant independently — the simulated-ME Ozaki
#      path runs its slice products on the dispatched kernel; the pinned
#      Ozaki output digest also runs on the optimized build the
#      benchmark times
#   7b. half-precision stage: the f16/bf16 codec suite (hand-computed
#      bit tables + exhaustive 65536-pattern sweeps) and the half GEMM
#      suites at both test parallelisms (the HostF16-Ozaki tests run with
#      the full me-ozaki suite in stages 2, 3 and 7), then a
#      gemm_kernels smoke run (enforces the >= 2x-over-scalar gate on
#      every SIMD variant the host supports and the cross-variant
#      bitwise check; leaves artifacts/gemm_kernels_ukernel.txt)
#   8. serve stage: the me-serve fault-injection + stress suites at both
#      test parallelisms and a --no-default-features build+test of the
#      crate alone (the serve_throughput smoke runs once, in stage 9)
#   8b. weight-cache + autotune stage: the weight_cache and
#      prepacked_differential suites with the cache enabled and again
#      forced off via ME_WEIGHT_CACHE=0 (the serve path must be bitwise
#      indistinguishable either way), then an autotune_blocking smoke
#      that sweeps the blocking grid and must leave a parseable
#      artifacts/autotune.json behind
#   8c. int8 stage: the INT8-Ozaki slicing property suite and the
#      cross-variant int8 differential harness at both test
#      parallelisms, then a smoke run of the ozaki_int8 bench (enforces
#      the >= 2x vectorized-dot speed gate, the DGEMM-grade accuracy
#      gate, and the INT8-beats-FP16 energy gate; leaves
#      artifacts/ozaki_int8.txt behind)
#   9. serve-scale stage: the lock-free ring linearizability suite, the
#      mutex-vs-ring differential replay, and the fairness + SLO
#      property suites at both test parallelisms; the fault-injection +
#      stress suites forced onto each queue arm via ME_QUEUE; and a
#      smoke run of the multi-tenant open-loop replay (enforces the
#      ring >= mutex throughput gate, the p99-within-SLO gate, and exact
#      global + per-tenant conservation; leaves artifacts/serve_replay.txt;
#      the same run enforces the >= 2x batched-vs-unbatched gate, the
#      B-cache >= no-cache gate and the >= 90% steady-state cache hit-rate
#      gate)
#  10. me-verify: full static analysis (lints + lock-order + env/hot/fma
#      rule families, deny warnings) + model audit, uploading
#      artifacts/verify_report.json and .sarif
#  11. negative fixtures: me-verify over the committed violation tree
#      must FAIL and must name every v2 rule family — proof the
#      analyzer itself has not regressed into silence
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release --workspace (RUSTFLAGS=-D warnings)"
RUSTFLAGS="-D warnings" cargo build --release --workspace

echo "==> cargo test --workspace -q (default parallelism)"
cargo test --workspace -q

echo "==> cargo test --workspace -q (RUST_TEST_THREADS=1)"
RUST_TEST_THREADS=1 cargo test --workspace -q

echo "==> cargo build + test --workspace --no-default-features (trace compiled out)"
cargo build --workspace --no-default-features
cargo test --workspace -q --no-default-features

echo "==> parallel_scaling smoke (release)"
ME_BENCH_SMOKE=1 cargo bench -q -p me-bench --features external-bench --bench parallel_scaling

echo "==> parallel_scaling traced smoke (release, validates Chrome JSON)"
ME_BENCH_SMOKE=1 ME_BENCH_TRACE=1 cargo bench -q -p me-bench --features external-bench --bench parallel_scaling
test -s artifacts/parallel_scaling_trace.json
test -s artifacts/parallel_scaling_metrics.prom

echo "==> kernel matrix (ME_KERNEL x differential + trace suites)"
KERNELS="scalar portable"
if grep -q avx2 /proc/cpuinfo 2>/dev/null && grep -q fma /proc/cpuinfo 2>/dev/null; then
    KERNELS="$KERNELS avx2"
fi
if grep -q avx512f /proc/cpuinfo 2>/dev/null; then
    KERNELS="$KERNELS avx512"
fi
for K in $KERNELS; do
    echo "==>   ME_KERNEL=$K"
    ME_KERNEL=$K cargo test -q --test kernel_differential --test trace_integration \
        --test paper_headlines
    ME_KERNEL=$K cargo test -q -p me-ozaki
    ME_KERNEL=$K cargo test -q --release -p me-ozaki --test pinned_digest
done

echo "==> half-precision stage: f16/bf16 codec + GEMM suites (both parallelisms)"
cargo test -q -p me-numerics --test half_formats
cargo test -q -p me-linalg half
RUST_TEST_THREADS=1 cargo test -q -p me-numerics --test half_formats
RUST_TEST_THREADS=1 cargo test -q -p me-linalg half

echo "==> half-precision stage: gemm_kernels smoke (release, >= 2x SIMD gate)"
rm -f artifacts/gemm_kernels_ukernel.txt
ME_BENCH_SMOKE=1 cargo bench -q -p me-bench --features external-bench --bench gemm_kernels
test -s artifacts/gemm_kernels_ukernel.txt

echo "==> serve stage: fault injection + stress (default and single-threaded)"
cargo test -q -p me-serve --test fault_injection --test stress
RUST_TEST_THREADS=1 cargo test -q -p me-serve --test fault_injection --test stress

echo "==> serve stage: me-serve --no-default-features (trace compiled out)"
cargo build -q -p me-serve --no-default-features
cargo test -q -p me-serve --no-default-features

echo "==> weight-cache stage: cache suites, enabled and ME_WEIGHT_CACHE=0"
cargo test -q -p me-serve --test weight_cache
cargo test -q --test prepacked_differential
ME_WEIGHT_CACHE=0 cargo test -q -p me-serve --test weight_cache
ME_WEIGHT_CACHE=0 cargo test -q -p me-serve --test fault_injection

echo "==> weight-cache stage: autotune_blocking smoke (writes artifacts/autotune.json)"
rm -f artifacts/autotune.json
ME_BENCH_SMOKE=1 cargo bench -q -p me-bench --features external-bench --bench autotune_blocking
test -s artifacts/autotune.json

echo "==> int8 stage: slicing property + differential suites (both parallelisms)"
cargo test -q -p me-ozaki --test int8_slicing
cargo test -q --test int8_differential
RUST_TEST_THREADS=1 cargo test -q -p me-ozaki --test int8_slicing
RUST_TEST_THREADS=1 cargo test -q --test int8_differential

echo "==> int8 stage: ozaki_int8 smoke (release, speed/accuracy/energy gates)"
rm -f artifacts/ozaki_int8.txt
ME_BENCH_SMOKE=1 cargo bench -q -p me-bench --features external-bench --bench ozaki_int8
test -s artifacts/ozaki_int8.txt

echo "==> serve-scale stage: ring + differential + fairness suites (both parallelisms)"
cargo test -q -p me-serve --test ring --test differential --test fairness
RUST_TEST_THREADS=1 cargo test -q -p me-serve --test ring --test differential --test fairness

echo "==> serve-scale stage: fault injection + stress on each queue arm (ME_QUEUE)"
for Q in mutex ring; do
    echo "==>   ME_QUEUE=$Q"
    ME_QUEUE=$Q cargo test -q -p me-serve --test fault_injection --test stress
done

echo "==> serve-scale stage: multi-tenant replay smoke (throughput/SLO/conservation gates)"
rm -f artifacts/serve_replay.txt
ME_BENCH_SMOKE=1 cargo bench -q -p me-bench --features external-bench --bench serve_throughput
test -s artifacts/serve_replay.txt

echo "==> me-verify --deny-warnings (json + sarif artifacts)"
mkdir -p artifacts
cargo run --release -q -p me-verify -- --root . --deny-warnings \
    --json-out artifacts/verify_report.json \
    --sarif-out artifacts/verify_report.sarif
test -s artifacts/verify_report.json
test -s artifacts/verify_report.sarif

echo "==> me-verify negative fixtures (must fail, every rule family firing)"
NEG_ROOT=crates/verify/tests/fixtures/negative_tree
NEG_OUT=artifacts/verify_negative.txt
if cargo run --release -q -p me-verify -- --root "$NEG_ROOT" >"$NEG_OUT" 2>&1; then
    echo "ci.sh: negative fixture tree passed verification — the analyzer is blind"
    exit 1
fi
for RULE in lock-order env-read no-alloc-hot fma-contract; do
    if ! grep -q " $RULE " "$NEG_OUT"; then
        echo "ci.sh: rule $RULE did not fire on its negative fixture"
        cat "$NEG_OUT"
        exit 1
    fi
done

echo "==> ci.sh: all stages passed"
