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
#   5. kernel matrix: the cross-variant differential harness, the
#      trace-integration suite, the me-ozaki suite and the paper-headline
#      goldens under every micro-kernel the host can run (ME_KERNEL=scalar,
#      avx2 when CPUID has avx2+fma, and avx512 when it has avx512f),
#      proving the dispatch override and the bitwise-identity
#      contract on each variant independently — the simulated-ME Ozaki
#      path runs its slice products on the dispatched kernel; the
#      differential harness (serial vs 1/2/8-thread pools), the pinned
#      Ozaki output digest, the Ozaki workspace reuse suite (a reused
#      per-thread arena against a fresh thread's, bit for bit, with no
#      growth after warm-up) and the double-double fold differential
#      (every available variant against the scalar `Accumulator::add`)
#      and the B-pack layout oracle (`packed::tests`: every word of
#      `pack_b` on each variant and of `pack_b_matrix` on the selected
#      one, against the DESIGN §12 index formula, NaN-sentinel buffers)
#      also run on the optimized build the benchmark times, where the
#      Ozaki fold and split and the A/B packs are compiled per variant;
#      then, once, the f32 and int8 engine-call tile-edge
#      differentials, the f64 register-block edge
#      differential and the AMX engine-call tile-edge differential (AMX
#      arm against every SIMD arm; says so when the host has no AMX) in
#      release (each loops over every variant the host runs itself;
#      release is where codegen could reorder or contract)
#   5b. half-precision stage: the f16/bf16 codec suite (hand-computed
#      bit tables + exhaustive 65536-pattern sweeps) and the half GEMM
#      suites at both test parallelisms (the HostF16-Ozaki tests run with
#      the full me-ozaki suite in stages 2, 3 and 5), then a
#      gemm_kernels smoke run (enforces the >= 2x-over-scalar gate on
#      every SIMD variant the host supports — avx2, avx512 — and the
#      cross-variant bitwise check)
#   6. serve stage: the me-serve fault-injection + stress suites at both
#      test parallelisms and a --no-default-features build+test of the
#      crate alone (the serve_throughput smoke runs once, in stage 7)
#   6b. weight-cache + autotune stage: the weight_cache and
#      prepacked_differential suites with the cache enabled and again
#      forced off via ME_WEIGHT_CACHE=0 (the serve path must be bitwise
#      indistinguishable either way), then an autotune_blocking smoke
#      that sweeps the blocking grid and must leave a parseable
#      autotune.json behind
#   6c. int8 stage: the INT8-Ozaki slicing property suite and the
#      cross-variant int8 differential harness at both test
#      parallelisms and again in release (integer overflow panics in
#      debug builds and wraps in release, and the int8 path must be
#      exact in both), then a smoke run of the ozaki_int8 bench
#      (enforces the >= 2x vectorized engine-call speed gate and the
#      cross-variant bitwise check)
#   7. serve-scale stage: the lock-free ring linearizability suite, the
#      golden-digest replay, and the fairness + SLO property suites at
#      both test parallelisms (stage 6 already runs fault-injection +
#      stress on the ring at both); and a smoke run of the multi-tenant
#      open-loop replay (enforces the p99-within-SLO gate and exact
#      global + per-tenant conservation; the same run enforces the >= 2x
#      batched-vs-unbatched gate and the B-cache >= no-cache gate)
#   8. me-verify: full static analysis (lints + lock-order + env/hot/fma
#      rule families, deny warnings) + model audit, uploading
#      artifacts/verify_report.json and .sarif
#   9. negative fixtures: me-verify over the committed violation tree
#      must FAIL and must name every v2 rule family — proof the
#      analyzer itself has not regressed into silence
#
# Bench smoke runs (ME_BENCH_SMOKE=1) write their artifacts under
# target/bench-smoke/, never over the committed artifacts/ copies.
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

SMOKE=target/bench-smoke

echo "==> kernel matrix (ME_KERNEL x differential + trace suites)"
KERNELS="scalar"
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
    ME_KERNEL=$K cargo test -q --release --test kernel_differential
    ME_KERNEL=$K cargo test -q --release -p me-ozaki --test pinned_digest
    ME_KERNEL=$K cargo test -q --release -p me-ozaki --test workspace_reuse
    ME_KERNEL=$K cargo test -q --release -p me-linalg --test fold_differential
    ME_KERNEL=$K cargo test -q --release -p me-linalg --lib packed::tests
done
cargo test -q --release -p me-linalg --test f32_tile_edges --test int8_tile_edges \
    --test f64_block_edges
cargo test -q --release --test amx_tile_edges

echo "==> half-precision stage: f16/bf16 codec + GEMM suites (both parallelisms)"
cargo test -q -p me-numerics --test half_formats
cargo test -q -p me-linalg half
RUST_TEST_THREADS=1 cargo test -q -p me-numerics --test half_formats
RUST_TEST_THREADS=1 cargo test -q -p me-linalg half

echo "==> half-precision stage: gemm_kernels smoke (release, >= 2x SIMD gate)"
rm -f $SMOKE/gemm_kernels_ukernel.txt
ME_BENCH_SMOKE=1 cargo bench -q -p me-bench --bench gemm_kernels
test -s $SMOKE/gemm_kernels_ukernel.txt

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

echo "==> weight-cache stage: autotune_blocking smoke (writes $SMOKE/autotune.json)"
rm -f $SMOKE/autotune.json
ME_BENCH_SMOKE=1 cargo bench -q -p me-bench --bench autotune_blocking
test -s $SMOKE/autotune.json

echo "==> int8 stage: slicing property + differential suites (both parallelisms, debug + release)"
cargo test -q -p me-ozaki --test int8_slicing
cargo test -q --test int8_differential
RUST_TEST_THREADS=1 cargo test -q -p me-ozaki --test int8_slicing
RUST_TEST_THREADS=1 cargo test -q --test int8_differential
cargo test -q --release -p me-ozaki --test int8_slicing
cargo test -q --release --test int8_differential

echo "==> int8 stage: ozaki_int8 smoke (release, speed + bitwise gates)"
rm -f $SMOKE/ozaki_int8.txt
ME_BENCH_SMOKE=1 cargo bench -q -p me-bench --bench ozaki_int8
test -s $SMOKE/ozaki_int8.txt

echo "==> serve-scale stage: ring + differential + fairness suites (both parallelisms)"
cargo test -q -p me-serve --test ring --test differential --test fairness
RUST_TEST_THREADS=1 cargo test -q -p me-serve --test ring --test differential --test fairness

echo "==> serve-scale stage: multi-tenant replay smoke (throughput/SLO/conservation gates)"
rm -f $SMOKE/serve_replay.txt
ME_BENCH_SMOKE=1 cargo bench -q -p me-bench --bench serve_throughput
test -s $SMOKE/serve_replay.txt

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
