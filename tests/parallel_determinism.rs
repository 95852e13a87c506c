//! Determinism across thread counts: the parallel runtime must make the
//! pipeline's output bit-identical to the serial run, not merely "close".
//! Workers claim items from one cursor, so which worker computes which
//! item changes from run to run: the pipeline runs at an odd worker count
//! (3) and three times at 8 threads, each against the 1-thread report.
//!
//! The whole check lives in one `#[test]` because the thread-count
//! override ([`boe_par::set_threads`]) is process-global and the test
//! harness runs `#[test]`s of one binary concurrently.

use bio_onto_enrich::eval::world::{World, WorldConfig};
use bio_onto_enrich::par as boe_par;
use bio_onto_enrich::workflow::diagnostics::DetectorOutcome;
use bio_onto_enrich::workflow::linkage::{LinkerConfig, SemanticLinker};
use bio_onto_enrich::workflow::report::EnrichmentReport;
use bio_onto_enrich::workflow::{EnrichmentPipeline, PipelineConfig};

#[path = "oracle/linkage.rs"]
mod oracle;

use oracle::{assert_same_propositions, LinkageOracle};

fn world() -> World {
    World::generate(&WorldConfig {
        n_concepts: 60,
        n_holdout: 10,
        abstracts_per_concept: 4,
        seed: 0xD17E,
        ..Default::default()
    })
}

/// The same shape with planted polysemic ontology terms, so Step II
/// trains a detector instead of falling back.
fn planted_world() -> World {
    World::generate(&WorldConfig {
        n_shared_synonyms: 12,
        n_ambiguous_new: 6,
        ..WorldConfig {
            n_concepts: 60,
            n_holdout: 10,
            abstracts_per_concept: 4,
            seed: 0xD17E,
            ..Default::default()
        }
    })
}

/// Full-report equality, down to float bit patterns.
fn assert_reports_identical(a: &EnrichmentReport, b: &EnrichmentReport) {
    assert_eq!(a.already_known, b.already_known);
    assert_eq!(a.terms.len(), b.terms.len());
    for (x, y) in a.terms.iter().zip(&b.terms) {
        assert_eq!(x.surface, y.surface);
        assert_eq!(
            x.term_score.to_bits(),
            y.term_score.to_bits(),
            "{}",
            x.surface
        );
        assert_eq!(x.polysemic, y.polysemic, "{}", x.surface);
        assert_eq!(x.senses.k, y.senses.k, "{}", x.surface);
        assert_eq!(x.senses.assignments, y.senses.assignments, "{}", x.surface);
        assert_eq!(x.propositions.len(), y.propositions.len(), "{}", x.surface);
        for (p, q) in x.propositions.iter().zip(&y.propositions) {
            assert_eq!(p.term, q.term, "{}", x.surface);
            assert_eq!(p.concepts, q.concepts, "{}", x.surface);
            assert_eq!(p.origin, q.origin, "{}", x.surface);
            assert_eq!(
                p.cosine.to_bits(),
                q.cosine.to_bits(),
                "{} -> {}: {} vs {}",
                x.surface,
                p.term,
                p.cosine,
                q.cosine
            );
        }
    }
    // Degradations must come back in the same (term) order, too.
    let deg = |r: &EnrichmentReport| {
        r.diagnostics
            .degraded
            .iter()
            .map(|d| (d.term.clone(), d.stage, d.reason.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(deg(a), deg(b));
}

/// The parallel thread counts every pipeline report is checked at: an
/// odd worker count, then 8 threads three times over.
const PARALLEL_THREADS: [usize; 4] = [3, 8, 8, 8];

/// `pipeline` on `w` at 1 thread, then at each of [`PARALLEL_THREADS`].
fn serial_and_parallel(
    pipeline: &EnrichmentPipeline,
    w: &World,
) -> (EnrichmentReport, Vec<(usize, EnrichmentReport)>) {
    let run = |threads| {
        boe_par::set_threads(Some(threads));
        pipeline
            .run(&w.corpus, &w.reduced_ontology)
            .expect("valid input")
    };
    let serial = run(1);
    let parallel = PARALLEL_THREADS.iter().map(|&t| (t, run(t))).collect();
    (serial, parallel)
}

#[test]
fn serial_and_parallel_runs_are_bit_identical() {
    let w = world();
    let pipeline = EnrichmentPipeline::new(PipelineConfig {
        top_terms: 120,
        ..Default::default()
    });
    let (serial, parallel) = serial_and_parallel(&pipeline, &w);

    // Step IV: the linker must return exactly the reference
    // implementation's top-10 (order, terms, cosine bits), still at 8
    // threads.
    let linker = SemanticLinker::new(&w.corpus, &w.reduced_ontology, LinkerConfig::default());
    let reference = LinkageOracle::new(
        &w.corpus,
        &w.reduced_ontology,
        linker.inventory(),
        LinkerConfig::default(),
    );
    for h in &w.holdout {
        assert_same_propositions(
            &linker.propose(&h.surface),
            &reference.propose(&h.surface),
            &h.surface,
        );
    }

    // Step-III kernel: the similarity matrix, one claimed item per row,
    // must stay bit-identical across thread counts (which worker fills
    // which row moves; cell values must not). A unit set builds its
    // matrix once, so each thread count gets a fresh set.
    use bio_onto_enrich::cluster::UnitVectors;
    use bio_onto_enrich::corpus::SparseVector;
    let contexts: Vec<SparseVector> = (0..97u32)
        .map(|i| {
            SparseVector::from_pairs([
                (i % 13, 1.0 + f64::from(i) * 0.37),
                (i % 7, 0.25),
                ((i * 31) % 401, 0.11),
            ])
        })
        .collect();
    boe_par::set_threads(Some(1));
    let m1 = UnitVectors::new(&contexts).similarities().clone();
    for threads in PARALLEL_THREADS {
        boe_par::set_threads(Some(threads));
        let m = UnitVectors::new(&contexts).similarities().clone();
        assert_eq!(m1, m, "similarity matrix diverges at {threads} threads");
    }

    // Step II: the planted world trains a detector (its feature rows are
    // built in parallel and memoized per head word), the default world
    // falls back before building any feature context. Both outcomes are
    // exact and thread-count invariant.
    let w2 = planted_world();
    let (trained_serial, trained_parallel) = serial_and_parallel(&pipeline, &w2);

    boe_par::set_threads(None);
    assert!(!serial.terms.is_empty(), "nothing analysed — vacuous test");
    let fallback = DetectorOutcome::Fallback {
        reason: "124 usable training terms, 0 polysemic — need both classes and ≥ 4 terms"
            .to_owned(),
    };
    assert_eq!(serial.diagnostics.detector, fallback);
    let trained = DetectorOutcome::Trained {
        examples: 135,
        positives: 9,
    };
    assert_eq!(trained_serial.diagnostics.detector, trained);
    assert!(
        trained_serial.terms.iter().any(|t| t.polysemic),
        "the trained detector flags no term — vacuous test"
    );
    for ((threads, report), (_, trained_report)) in parallel.iter().zip(&trained_parallel) {
        eprintln!("checking the {threads}-thread reports");
        assert_reports_identical(&serial, report);
        assert_eq!(report.diagnostics.detector, fallback);
        assert_reports_identical(&trained_serial, trained_report);
        assert_eq!(trained_report.diagnostics.detector, trained);
    }
}
