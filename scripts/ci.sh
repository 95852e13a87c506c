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
#   (`step1_parallel_equality`: batch ingestion, candidate extraction
#   and the TeRGraph kernels against their in-file references, the
#   candidate oracle, with its own brute-force pattern matcher, checking
#   order and every count at three `min_freq` values and at 1, 2, 3 and
#   8 threads, and extraction interrupted after k stop polls at 1 and 8
#   threads),
#   Step II graph features against their reference and the word graph
#   against the keyed-builder route it replaced, node numbering and
#   weight bits included (`graph_features_oracle`), Step II direct
#   features against theirs
#   (`direct_features_oracle`), Step IV proposals against theirs
#   (`linkage_oracle`);
# * resource-governance gates: budgets trip into truncated reports
#   (`governor`), `boe-par` early exit keeps a deterministic prefix
#   (`early_exit`: a slow first item that trips the stop keeps only
#   itself, a stop after the last item keeps the run complete), every
#   chaos site × mode × {1,8} threads stays bit-identical
#   (`chaos_matrix`);
# * `boe-par` claim-cursor gates (crate unit tests): a skewed fan-out is
#   balanced across workers (`claims_balance_a_skewed_fan_out`) and the
#   lowest-index panic is the one re-raised
#   (`the_lowest_index_panic_is_re_raised`);
# * occurrence-index gate: the positional index reproduces an in-file
#   naive scan, occurrences and contexts, cached contexts and sums at
#   both scopes included, at 1, 2, 3 and 8 threads on corpora large
#   enough to split the parallel cache build
#   (`occurrence_index_equality`); the corpus stem map matches an
#   in-file reference at 1, 2, 3 and 8 threads (`stem_map`);
# * Step III k = 1 gate: `SenseInducer::induce` on terms Step II did not
#   flag equals an in-file one-cluster reference bit for bit, for both
#   representations and scopes, EN/FR/ES worlds, 1 and 8 threads, empty
#   contexts, absent terms and a `term.induce` corrupt plan
#   (`monosemic_senses_oracle`);
# * sparse-vector sum gates: `SparseVector::from_pairs` against an
#   in-order accumulator (single and multi-block inputs), `sum_of`
#   against the `add_assign` fold and the document-scope aggregate
#   against per-occurrence contexts, bit for bit (`vector_oracle`);
#   cluster composites against the fold for k = 1..5
#   (`boe-cluster` `properties::composites_match_the_add_assign_fold`);
# * Step III sweep gates (`boe-cluster` unit tests in `kpredict`,
#   `similarity` and `indexes`): the lowest k wins an exact tie
#   (`lowest_k_wins_an_exact_tie`), an all-worst sweep picks the low end
#   (`all_worst_scores_pick_the_low_end`), degenerate ranges are clamped
#   (`degenerate_ranges_are_clamped_not_rejected`), one shared
#   `UnitVectors` set gives every algorithm the same solutions and every
#   index the same scores as a fresh set per call, bit for bit
#   (`sweep_solutions_equal_direct_clustering_bit_for_bit`), a set builds
#   its similarity matrix at most once (`matrix_is_built_at_most_once`)
#   and silhouette equals an in-test oracle over its own dot products bit
#   for bit (`silhouette_equals_its_oracle_bit_for_bit`);
# * accented-term gate: Step II trains on every French and Spanish
#   ontology term the corpus contains, and the Step IV inventory holds
#   the same keys
#   (`multilingual::detector_trains_on_every_ontology_term_in_the_corpus`);
#   a key whose first raw surface is absent from the corpus is found
#   through a later one by Step II and Step IV alike, with the same
#   tokens
#   (`multilingual::a_key_is_found_through_any_of_its_surfaces_in_steps_ii_and_iv`).
run timeout "$TEST_TIMEOUT" cargo test -q --offline
# `perfbench/` is its own workspace (the end-to-end benchmark runner),
# so the pass above never builds it. Its tests catch a library API break
# and a mismatch between the pipeline and its traced rebuild before the
# benchmark itself runs.
run timeout "$TEST_TIMEOUT" cargo test --offline -q --release --manifest-path perfbench/Cargo.toml
# Its tests never run the benchmark itself. One short run per workload
# of BENCHMARK.json (about 2 s each on 2 cores) must report a correct
# result and no failed operation, so a library change that makes the
# benchmark refuse to run, or fail operations, is caught here;
# `fallback-wide-m` is the run whose Steps III-IV (cluster composites,
# document-scope aggregates, inventory postings) weigh most.
for workload in trained-s trained-s-1t fallback-wide-m; do
    echo "==> perfbench smoke run: $workload"
    result=$(cargo run --offline -q --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0.1 --trace 0 | tail -n 1)
    echo "$result"
    case "$result" in
        *'"correct": true,'*'"failed": 0,'*) ;;
        *)
            echo "perfbench $workload: incorrect result or failed operations" >&2
            exit 1
            ;;
    esac
done
# Short traced runs: besides timing the pipeline, each rebuilds the
# pipeline from the layers' public API (Step II from `TermGraphContext` /
# `graph_features` / `FeatureContext`) and must reach the pipeline's
# report, so a drift between that rebuild and the pipeline fails here.
# `fallback-wide-m` is the run whose traced `termex.extract` (the
# parallel candidate scan) weighs most; `trained-s-1t` runs the
# one-thread context-cache and stem-map builds through the same check.
for workload in trained-s trained-s-1t fallback-wide-m; do
    echo "==> perfbench traced smoke run: $workload"
    result=$(cargo run --offline -q --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0.1 --trace 1 | tail -n 1)
    echo "$result"
    case "$result" in
        *'"correct": true,'*'"failed": 0,'*) ;;
        *)
            echo "perfbench traced $workload: incorrect result or failed operations" >&2
            exit 1
            ;;
    esac
done
# `cargo test` builds the examples but never runs them, and they are the
# only shipping callers of some library items (`ontology::edit::apply`,
# for one). Each must run to completion and exit 0.
for example in enrich_ontology multilingual_extraction quickstart relation_extraction sense_induction; do
    echo "==> example $example"
    cargo run --release --offline -q --example "$example" > /dev/null
done
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo fmt --check
# Broken intra-doc links fail the build, so docs cannot keep pointing at
# deleted items.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The paper's numbers: a fresh `run_experiments --full` (about 18 s on
# 2 cores, release build) must reproduce the committed `experiments_full.txt` byte
# for byte, so a refactor or perf change cannot move them silently. The
# output is deterministic at any thread count; a change that means to
# move a number regenerates the file (and EXPERIMENTS.md) with it. A
# second pass at 3 threads, an odd worker count, runs E3/E4's k-means
# and similarity matrices through uneven `boe-par` claims and must print
# the same file.
for threads in "" 3; do
    echo "==> run_experiments --full${threads:+ at $threads threads}, diffed against experiments_full.txt"
    BOE_CHAOS=off BOE_THREADS="$threads" \
        cargo run --release --offline -q -p boe-eval --bin run_experiments -- --full \
        > target/experiments_full.txt
    diff -u experiments_full.txt target/experiments_full.txt
done

echo "ci: all checks passed"
