//! `perf_report` — machine-readable wall-time report for the Step I–IV
//! hot paths, written as `BENCH_5.json`.
//!
//! Measures, over a synthetic PubMed-like world:
//!
//! - `corpus_ingest_serial` vs `corpus_ingest_batch` — raw-text
//!   ingestion through the per-document `add_text` loop vs the batch
//!   `add_texts` path (parallel tokenize+tag, serial intern), at several
//!   thread counts;
//! - `term_extraction` — the Step I candidate scan (one pass in
//!   document order, nesting over sentence-local occurrence lists),
//!   single-threaded: the kernel runs no threads;
//! - `tergraph_parallel` — the Step I term co-occurrence graph build +
//!   TeRGraph node scores, at several thread counts;
//! - `occurrence_resolution_indexed` — phrase-occurrence lookup for
//!   every ontology term + candidate through the shared positional
//!   [`OccurrenceIndex`], single-threaded; `occurrence_index_build`
//!   times building that index;
//! - `inventory_build_indexed` — the Step IV ontology-term inventory
//!   harvest through the prebuilt index, at several thread counts;
//! - `steps_iii_iv` — the pipeline's per-term Step III (sense induction)
//!   + Step IV (semantic linkage) fan-out, at several thread counts;
//! - `linkage_propose` — Step IV proposals for every candidate,
//!   single-threaded;
//! - `score_kernel_*` / `similarity_matrix` — the isolated Step III/IV
//!   scoring kernels.
//!
//! Usage: `perf_report [--smoke] [--out PATH] [--deadline-ms N]`.
//! `--smoke` shrinks the world and the thread sweep so CI can afford the
//! run; the JSON then carries `"smoke": true` so readers don't compare
//! across scales. Thread-scaling numbers are only meaningful when the
//! host grants the process enough cores — `threads_available` records
//! what it granted, and on a single-core host the `speedup_*_Nt`
//! thread-scaling keys are omitted entirely (a `thread_scaling` note
//! says why) instead of publishing fabricated 1× figures. The
//! single-threaded `speedup_score_kernel_inverted_vs_naive` and
//! `speedup_corpus_ingest_batch_vs_serial_1t` stay valid on any host.
//!
//! Two honesty guards protect published numbers:
//!
//! - if a chaos plan is armed (`BOE_CHAOS`), the tool refuses to run —
//!   injected stalls/panics would poison every timing;
//! - `--deadline-ms` runs the sweep under a wall-clock governor; the
//!   JSON carries `"governed": true`, and if the deadline trips the
//!   partial report goes to stdout only — `BENCH_*.json` is NOT written
//!   and the exit code is 8, so CI can't archive a truncated sweep.

use boe_bench::harness::PerfReport;
use boe_core::governor::{BudgetConfig, Governor};
use boe_core::linkage::{LinkerConfig, OntologyTermInventory, SemanticLinker};
use boe_core::senses::{SenseInducer, SenseInducerConfig};
use boe_core::termex::candidates::CandidateOptions;
use boe_core::termex::{extract_candidates, tergraph_scores, term_cooccurrence_graph};
use boe_corpus::context::{ContextOptions, ContextScope};
use boe_corpus::corpus::CorpusBuilder;
use boe_corpus::occurrence::OccurrenceIndex;
use boe_corpus::SparseVector;
use boe_eval::world::{World, WorldConfig};
use boe_textkit::TokenId;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Best-of-`runs` wall time of `f`, in milliseconds.
fn time_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Finalize the report: always print the JSON, but only write the
/// `BENCH_*.json` artifact when no budget tripped.
fn finish(report: &PerfReport, out_path: &str, tripped: bool) -> ExitCode {
    print!("{}", report.to_json());
    if tripped {
        eprintln!("perf report: deadline tripped — refusing to write {out_path}");
        return ExitCode::from(8);
    }
    let path = std::path::Path::new(out_path);
    report.write(path).expect("write perf report");
    eprintln!("perf report written to {}", path.display());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if boe_chaos::is_enabled() {
        eprintln!(
            "perf report: a chaos plan is armed (BOE_CHAOS) — timings would be meaningless; \
             unset it or set BOE_CHAOS=off"
        );
        return ExitCode::from(3);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_5.json".to_owned());
    let deadline_ms: Option<u64> = args
        .iter()
        .position(|a| a == "--deadline-ms")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--deadline-ms takes milliseconds"));
    let gov = deadline_ms.map(|ms| {
        Governor::new(BudgetConfig {
            deadline_ms: Some(ms),
            ..Default::default()
        })
    });
    // Polled between measurement sections: once the deadline passes, the
    // remaining sections are skipped and the artifact write is refused.
    let tripped = |report: &mut PerfReport| -> bool {
        let hit = gov.as_ref().is_some_and(|g| g.check_hard().is_some());
        if hit {
            report.set_bool("budget_tripped", true);
        }
        hit
    };

    let cfg = if smoke {
        WorldConfig {
            n_concepts: 40,
            n_holdout: 8,
            abstracts_per_concept: 3,
            seed: 0xBE2C,
            ..Default::default()
        }
    } else {
        WorldConfig {
            n_concepts: 150,
            n_holdout: 40,
            abstracts_per_concept: 5,
            seed: 0xBE2C,
            ..Default::default()
        }
    };
    let runs = if smoke { 1 } else { 3 };
    let w = World::generate(&cfg);
    let corpus = &w.corpus;
    let onto = &w.reduced_ontology;

    // The per-term workload: held-out terms actually present in the
    // corpus (same population the pipeline fan-out sees).
    let candidates: Vec<String> = w
        .holdout
        .iter()
        .map(|h| h.surface.clone())
        .filter(|s| corpus.phrase_ids(s).is_some())
        .collect();

    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = PerfReport::new("BENCH_5");
    report.set_bool("smoke", smoke);
    report.set_bool("governed", deadline_ms.is_some());
    report.set_bool("budget_tripped", false);
    report.set_num("threads_available", threads_available as f64);
    report.set_num("corpus_documents", corpus.len() as f64);
    report.set_num("corpus_tokens", corpus.token_count() as f64);
    report.set_num("candidate_terms", candidates.len() as f64);
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };

    // Step I ingestion: the per-document serial loop vs the batch path.
    // Raw texts are re-rendered from the synthetic corpus (the world
    // generator adds pre-tokenized sentences), so both paths pay the
    // same tokenizer + tagger work per document.
    let texts: Vec<String> = corpus
        .docs()
        .iter()
        .map(|d| {
            d.sentences
                .iter()
                .map(|s| {
                    let mut line = s
                        .tokens
                        .iter()
                        .map(|&t| corpus.text(t))
                        .collect::<Vec<_>>()
                        .join(" ");
                    line.push('.');
                    line
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    boe_par::set_threads(Some(1));
    let wall_ingest_serial = time_ms(runs, || {
        let mut b = CorpusBuilder::new(corpus.language());
        for t in &texts {
            b.add_text(t);
        }
        black_box(b.build().token_count());
    });
    report.record("corpus_ingest_serial", 1, wall_ingest_serial, runs);
    for &t in thread_counts {
        boe_par::set_threads(Some(t));
        let wall = time_ms(runs, || {
            let mut b = CorpusBuilder::new(corpus.language());
            b.add_texts(&texts);
            black_box(b.build().token_count());
        });
        report.record("corpus_ingest_batch", t, wall, runs);
    }

    // Step I candidate extraction.
    let copts = CandidateOptions::default();
    boe_par::set_threads(Some(1));
    let wall = time_ms(runs, || {
        black_box(extract_candidates(corpus, copts).len());
    });
    report.record("term_extraction", 1, wall, runs);
    if tripped(&mut report) {
        boe_par::set_threads(None);
        return finish(&report, &out_path, true);
    }

    // Step I TeRGraph: co-occurrence graph build + node scores.
    boe_par::set_threads(Some(1));
    let cand_set = extract_candidates(corpus, copts);
    report.set_num("candidate_set_size", cand_set.len() as f64);
    for &t in thread_counts {
        boe_par::set_threads(Some(t));
        let wall = time_ms(runs, || {
            let g = term_cooccurrence_graph(corpus, &cand_set);
            black_box(tergraph_scores(&g).len());
        });
        report.record("tergraph_parallel", t, wall, runs);
    }
    if tripped(&mut report) {
        boe_par::set_threads(None);
        return finish(&report, &out_path, true);
    }

    // Occurrence-resolution kernel: every ontology term + candidate
    // (the phrase population Steps I–IV actually resolve) through the
    // prebuilt positional index.
    let mut phrases: Vec<Vec<TokenId>> = onto
        .terms()
        .into_iter()
        .filter_map(|(surface, _)| corpus.phrase_ids(surface))
        .collect();
    phrases.extend(candidates.iter().filter_map(|s| corpus.phrase_ids(s)));
    report.set_num("resolved_phrases", phrases.len() as f64);
    boe_par::set_threads(Some(1));
    let index = OccurrenceIndex::build(corpus);
    let wall_res_indexed = time_ms(runs.max(3), || {
        let mut n = 0usize;
        for p in &phrases {
            n += index.find_occurrences(corpus, p).len();
        }
        black_box(n);
    });
    report.record(
        "occurrence_resolution_indexed",
        1,
        wall_res_indexed,
        runs.max(3),
    );

    // One-time setup costs a pipeline run amortizes over all stages.
    let wall_index_build = time_ms(runs.max(3), || {
        black_box(OccurrenceIndex::build(corpus));
    });
    report.record("occurrence_index_build", 1, wall_index_build, runs.max(3));
    if tripped(&mut report) {
        boe_par::set_threads(None);
        return finish(&report, &out_path, true);
    }
    let inducer = SenseInducer::new(corpus, SenseInducerConfig::default());
    let linker = SemanticLinker::new(corpus, onto, LinkerConfig::default());

    for &t in thread_counts {
        boe_par::set_threads(Some(t));

        // The pipeline's Step III+IV per-term fan-out.
        let wall = time_ms(runs, || {
            let res = boe_par::par_map(&candidates, |s| {
                let tokens = corpus.phrase_ids(s).expect("filtered above");
                let senses = inducer.induce(&tokens, true);
                let props = linker.propose(s);
                (senses.k, props.len())
            });
            black_box(res);
        });
        report.record("steps_iii_iv", t, wall, runs);

        // Step IV inventory harvest. The index is prebuilt, and after
        // the first run its document-scope context cache is too: a
        // pipeline run builds both once and shares them across every
        // stage (the index build itself is timed separately as
        // `occurrence_index_build`).
        let wall = time_ms(runs, || {
            let inv = OntologyTermInventory::build(
                corpus,
                onto,
                &[],
                LinkerConfig::default().scope,
                &index,
            );
            black_box(inv.len());
        });
        report.record("inventory_build_indexed", t, wall, runs);
        if tripped(&mut report) {
            boe_par::set_threads(None);
            return finish(&report, &out_path, true);
        }
    }

    // Step IV proposals end to end, single-threaded; the isolated
    // kernels below show the scorer itself.
    boe_par::set_threads(Some(1));
    let wall_propose = time_ms(runs, || {
        for s in &candidates {
            black_box(linker.propose(s).len());
        }
    });
    report.record("linkage_propose", 1, wall_propose, runs);
    if tripped(&mut report) {
        return finish(&report, &out_path, true);
    }

    // Isolated Step IV scoring kernel: each candidate context against
    // the *entire* term inventory — brute-force merge joins vs the
    // inverted-index accumulator.
    let opts = ContextOptions {
        window: None,
        stemmed: true,
        scope: ContextScope::Document,
    };
    let contexts: Vec<SparseVector> = candidates
        .iter()
        .map(|s| {
            let tokens = corpus.phrase_ids(s).expect("filtered above");
            index.occurrences_and_context(corpus, &tokens, opts).1
        })
        .collect();
    let inv = linker.inventory();
    let all: Vec<usize> = (0..inv.len()).collect();
    let kernel_runs = runs.max(3);
    let wall_score_naive = time_ms(kernel_runs, || {
        for ctx in &contexts {
            let mut acc = 0.0;
            for t in inv.terms() {
                acc += ctx.cosine(&t.context);
            }
            black_box(acc);
        }
    });
    let wall_score_inverted = time_ms(kernel_runs, || {
        for ctx in &contexts {
            black_box(inv.cosines_against(ctx, &all));
        }
    });
    report.record("score_kernel_naive", 1, wall_score_naive, kernel_runs);
    report.record("score_kernel_inverted", 1, wall_score_inverted, kernel_runs);
    if tripped(&mut report) {
        return finish(&report, &out_path, true);
    }

    // Step III kernel: the flat similarity matrix over the candidate
    // contexts (unit-normalized), at each thread count.
    let unit: Vec<SparseVector> = inv.terms().iter().map(|t| t.context.normalized()).collect();
    for &t in thread_counts {
        boe_par::set_threads(Some(t));
        let wall = time_ms(kernel_runs, || {
            black_box(boe_cluster::similarity::similarity_matrix(&unit));
        });
        report.record("similarity_matrix", t, wall, kernel_runs);
    }
    boe_par::set_threads(None);

    // Thread-scaling speedups are only honest when the host actually
    // granted more than one core: on a 1-core host the N-thread runs
    // time-slice the same CPU and the ratios would be fabricated noise,
    // so the keys are omitted and annotated instead.
    if threads_available > 1 {
        let scaling_stages = [
            "steps_iii_iv",
            "inventory_build_indexed",
            "similarity_matrix",
            "corpus_ingest_batch",
            "tergraph_parallel",
        ];
        for &t in thread_counts.iter().filter(|&&t| t > 1) {
            for stage in scaling_stages {
                if let Some(s) = report.speedup(stage, 1, t) {
                    report.set_num(&format!("speedup_{stage}_{t}t"), s);
                }
            }
        }
    } else {
        report.set_str(
            "thread_scaling",
            "speedup_*_Nt keys omitted: threads_available == 1 \
             (multi-thread runs time-slice a single core)",
        );
    }
    if wall_score_inverted > 0.0 {
        report.set_num(
            "speedup_score_kernel_inverted_vs_naive",
            wall_score_naive / wall_score_inverted,
        );
    }
    if let Some(p) = report.wall_ms("corpus_ingest_batch", 1) {
        if p > 0.0 {
            report.set_num(
                "speedup_corpus_ingest_batch_vs_serial_1t",
                wall_ingest_serial / p,
            );
        }
    }

    let late_trip = tripped(&mut report);
    finish(&report, &out_path, late_trip)
}
