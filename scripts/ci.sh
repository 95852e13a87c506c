#!/usr/bin/env bash
# Offline-safe CI gate: everything here runs without network access.
# The workspace has no external dependencies, so no `cargo fetch` step
# is needed — `--offline` guards against accidental registry lookups.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# A hung test run must fail CI, not stall it: the tier-1 suites run
# under a generous wall-clock cap (the chaos matrix sleeps through its
# stall faults, so the cap stays far above the honest runtime).
TEST_TIMEOUT="${BOE_CI_TEST_TIMEOUT:-1800}"

run cargo build --release --offline

# One test pass runs every suite once: the root `Cargo.toml` sets
# `default-members` to the root package plus every crate, so this
# covers, among the rest:
# * parallel-runtime gates: bit-identical output across thread counts
#   (`parallel_determinism`), the randomized Step I sweep
#   (`step1_parallel_equality`: batch ingestion and the TeRGraph kernels
#   against their in-file references, extraction at 1 vs 8 threads),
#   Step II graph features against their reference
#   (`graph_features_oracle`), Step IV proposals against theirs
#   (`linkage_oracle`);
# * resource-governance gates: budgets trip into truncated reports
#   (`governor`), `boe-par` early exit keeps a deterministic prefix
#   (`early_exit`), every chaos site × mode × {1,8} threads stays
#   bit-identical (`chaos_matrix`);
# * occurrence-index gate: the positional index reproduces an in-file
#   naive scan, occurrences and contexts (`occurrence_index_equality`).
run timeout "$TEST_TIMEOUT" cargo test -q --offline
# `perfbench/` is its own workspace (the end-to-end benchmark runner),
# so the pass above never builds it. Its tests catch a library API break
# and a mismatch between the pipeline and its traced rebuild before the
# benchmark itself runs.
run timeout "$TEST_TIMEOUT" cargo test --offline -q --release --manifest-path perfbench/Cargo.toml
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo fmt --check
# Broken intra-doc links fail the build, so docs cannot keep pointing at
# deleted items.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# A small perf-report smoke run with the runtime forced to 2 threads.
# Benches always run with chaos explicitly disarmed — an inherited
# BOE_CHAOS plan would poison the timings (perf_report refuses anyway).
run env BOE_THREADS=2 BOE_CHAOS=off cargo run --release --offline -p boe-bench --bin perf_report -- --smoke --out target/BENCH_smoke.json

echo "ci: all checks passed"
