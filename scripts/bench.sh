#!/usr/bin/env bash
# Build the release workspace and write the machine-readable perf report
# (BENCH_5.json) for the Step I–IV hot paths: the Step I kernels
# (corpus_ingest_*, term_extraction, tergraph_parallel), the indexed
# occurrence-resolution, index-build and inventory-build stages, and the
# Step III/IV scoring kernels.
#
# Usage:
#   scripts/bench.sh            # full run, writes BENCH_5.json at repo root
#   scripts/bench.sh --smoke    # small corpus + short thread sweep (CI)
#
# Any extra arguments are passed through to the perf_report binary
# (e.g. `--out PATH`). Thread-scaling stages are only meaningful on
# hosts with more than one core; the JSON records `threads_available`
# and omits the `speedup_*_Nt` keys entirely on single-core hosts.
set -euo pipefail
cd "$(dirname "$0")/.."

# Never bench with a chaos plan armed: injected faults poison timings,
# and perf_report refuses to run if it sees one.
export BOE_CHAOS=off

cargo build --release --offline -p boe-bench
cargo run --release --offline -p boe-bench --bin perf_report -- "$@"
