//! Resource-governance integration tests: budgets trip, the pipeline
//! degrades, and the process never sees an abort.
//!
//! Hard trips (deadline, cancellation, allocation budget) truncate the
//! remaining work into score-only term reports; the soft per-stage
//! deadline downgrades Step III to its cheapest configuration and skips
//! linkage. In every case `run` returns `Ok(report)` — exit codes are
//! the CLI's business (see `tests/cli.rs`).

use bio_onto_enrich::chaos::{self, sites, ChaosPlan, FaultMode};
use bio_onto_enrich::eval::world::{World, WorldConfig};
use bio_onto_enrich::par as boe_par;
use bio_onto_enrich::workflow::diagnostics::DetectorOutcome;
use bio_onto_enrich::workflow::error::Stage;
use bio_onto_enrich::workflow::governor::{mem, BudgetConfig, CancelToken, Governor, TripKind};
use bio_onto_enrich::workflow::{EnrichmentPipeline, PipelineConfig};
use std::sync::Mutex;
use std::time::Duration;

/// Serializes the tests that arm a chaos plan or set the thread count:
/// both are process-global.
static GLOBALS: Mutex<()> = Mutex::new(());

fn world() -> World {
    World::generate(&WorldConfig {
        n_concepts: 40,
        n_holdout: 6,
        abstracts_per_concept: 3,
        seed: 0x60BE,
        ..Default::default()
    })
}

fn pipeline(budget: BudgetConfig) -> EnrichmentPipeline {
    EnrichmentPipeline::new(PipelineConfig {
        top_terms: 60,
        budget,
        ..Default::default()
    })
}

#[test]
fn zero_deadline_truncates_instead_of_aborting() {
    let w = world();
    let report = pipeline(BudgetConfig {
        deadline_ms: Some(0),
        ..Default::default()
    })
    .run(&w.corpus, &w.reduced_ontology)
    .expect("a tripped run still returns a report");

    let trip = report
        .diagnostics
        .hard_trip()
        .expect("a 0 ms deadline must trip");
    assert_eq!(trip.kind, TripKind::Deadline);
    assert!(trip.limit == 0, "limit echoes the configured budget");
    // The trip fires at the first checkpoint, before Step I: every step
    // is truncated and no term made it into the report.
    assert_eq!(report.diagnostics.truncated.len(), 4);
    assert!(report.terms.is_empty());
    assert!(report.is_degraded());
    let shown = report.to_string();
    assert!(shown.contains("truncated stages"), "{shown}");
}

#[test]
fn pre_cancelled_token_winds_down_with_a_cancelled_trip() {
    let w = world();
    let token = CancelToken::new();
    token.cancel();
    let report = pipeline(BudgetConfig::default())
        .run_with_token(&w.corpus, &w.reduced_ontology, token)
        .expect("cancellation is a trip, not an error");

    let trip = report.diagnostics.hard_trip().expect("must trip");
    assert_eq!(trip.kind, TripKind::Cancelled);
    assert!(!report.diagnostics.truncated.is_empty());
    assert!(report.terms.is_empty());
}

#[test]
fn exhausted_allocation_budget_trips_at_the_next_checkpoint() {
    let w = world();
    // The test binary has no counting allocator; simulate one. The
    // governor snapshots its baseline at construction, so allocations
    // noted *after* `Governor::new` count against the budget.
    mem::mark_tracking_installed();
    let p = pipeline(BudgetConfig {
        max_alloc_mb: Some(1),
        ..Default::default()
    });
    let gov = Governor::new(p.config().budget);
    mem::note_alloc(8 * 1024 * 1024);
    let report = p
        .run_governed(&w.corpus, &w.reduced_ontology, gov)
        .expect("budget exhaustion is a trip, not an error");
    mem::note_dealloc(8 * 1024 * 1024);

    let trip = report.diagnostics.hard_trip().expect("must trip");
    assert_eq!(trip.kind, TripKind::AllocBudget);
    assert!(
        trip.measured >= trip.limit,
        "measured {} MiB vs limit {} MiB",
        trip.measured,
        trip.limit
    );
    assert!(report.terms.is_empty());
}

#[test]
fn soft_stage_deadline_degrades_to_the_cheapest_induction() {
    let w = world();
    let report = pipeline(BudgetConfig {
        stage_deadline_ms: Some(0),
        ..Default::default()
    })
    .run(&w.corpus, &w.reduced_ontology)
    .expect("a soft trip never fails the run");

    // Soft trip: recorded, but not hard — no truncation, exit code 0.
    assert!(report.diagnostics.hard_trip().is_none());
    assert!(report
        .diagnostics
        .trips
        .iter()
        .any(|t| t.kind == TripKind::StageDeadline));
    assert!(report.diagnostics.truncated.is_empty());
    assert!(report
        .diagnostics
        .degraded
        .iter()
        .any(|d| d.reason.contains("cheapest induction")));
    // The cheap pass still analyses every term (degraded, not
    // truncated), but linkage is skipped wholesale.
    assert!(!report.terms.is_empty(), "cheap pass still reports terms");
    for t in &report.terms {
        assert!(!t.truncated, "{}", t.surface);
        assert!(t.propositions.is_empty(), "{}", t.surface);
    }
}

/// Step-I-heavy trip case: a stall injected *inside* candidate
/// extraction (the `termex.candidates` site) must be caught by the
/// governor checkpoints that Step I now polls — before this PR the
/// deadline could only trip at the next stage boundary, after the whole
/// serial extraction had run to completion.
///
/// The armed stall plan is benign for the tests running concurrently in
/// this binary: they either trip before Step I (never reaching the
/// site) or carry no deadline (the stall only slows them down).
#[test]
fn step1_stall_trips_the_deadline_mid_extraction() {
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let w = world();
    let mut plan = ChaosPlan::new(sites::TERMEX_CANDIDATES, FaultMode::Stall);
    plan.stall_ms = 300;
    chaos::install(Some(plan));
    let report = pipeline(BudgetConfig {
        deadline_ms: Some(100),
        ..Default::default()
    })
    .run(&w.corpus, &w.reduced_ontology)
    .expect("a mid-step-I trip still returns a report");
    chaos::install(None);

    let trip = report
        .diagnostics
        .hard_trip()
        .expect("the stalled extraction must trip the deadline");
    assert_eq!(trip.kind, TripKind::Deadline);
    // An interrupted extraction yields no terms at all (partial
    // candidate statistics would be prefix-dependent): all four steps
    // are truncated and the report is empty but structured.
    assert!(report.terms.is_empty());
    assert!(report.already_known.is_empty());
    assert_eq!(report.diagnostics.truncated.len(), 4);
    assert!(report.is_degraded());
}

/// A cancellation that lands while Step II builds its training rows
/// stops the rows, trains no detector and truncates the whole fan-out.
/// Both thread counts must give exactly the clean run's terms, all
/// truncated, whatever prefix of rows each had finished.
///
/// A stall at the `pipeline.step2.train` site (just before the rows)
/// holds Step II open while a second thread cancels, so the first row
/// poll sees the cancellation. The cancel must land after the natural
/// time to reach Step II on this world (well under `CANCEL_AFTER_MS`)
/// and before the stall ends. The plan only slows the other tests of
/// this binary down: none of them carries a deadline that the stall
/// could trip after Step I.
#[test]
fn cancel_during_training_rows_truncates_the_fan_out_deterministically() {
    const STALL_MS: u64 = 2500;
    const CANCEL_AFTER_MS: u64 = 1000;
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let w = World::generate(&WorldConfig {
        n_shared_synonyms: 6,
        ..WorldConfig {
            n_concepts: 40,
            n_holdout: 6,
            abstracts_per_concept: 3,
            seed: 0x60BE,
            ..Default::default()
        }
    });
    let p = pipeline(BudgetConfig::default());
    let clean = p.run(&w.corpus, &w.reduced_ontology).expect("valid input");
    assert!(
        matches!(clean.diagnostics.detector, DetectorOutcome::Trained { .. }),
        "the world must train a detector: {:?}",
        clean.diagnostics.detector
    );

    let mut plan = ChaosPlan::new(sites::STEP2_TRAIN, FaultMode::Stall);
    plan.stall_ms = STALL_MS;
    for threads in [1, 8] {
        boe_par::set_threads(Some(threads));
        chaos::install(Some(plan.clone()));
        let token = CancelToken::new();
        let report = std::thread::scope(|s| {
            let canceller = token.clone();
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(CANCEL_AFTER_MS));
                canceller.cancel();
            });
            p.run_with_token(&w.corpus, &w.reduced_ontology, token)
                .expect("cancellation is a trip, not an error")
        });
        chaos::install(None);

        let trip = report.diagnostics.hard_trip().expect("must trip");
        assert_eq!(trip.kind, TripKind::Cancelled);
        assert_eq!(trip.stage, Stage::PolysemyDetection);
        assert_eq!(
            report.diagnostics.detector,
            DetectorOutcome::Fallback {
                reason: "training interrupted by a hard budget trip".to_owned()
            }
        );
        assert_eq!(
            report.diagnostics.truncated,
            [
                Stage::PolysemyDetection,
                Stage::SenseInduction,
                Stage::SemanticLinkage
            ]
        );
        assert_eq!(report.terms.len(), clean.terms.len());
        for (t, c) in report.terms.iter().zip(&clean.terms) {
            assert!(t.truncated, "{}", t.surface);
            assert_eq!(t.surface, c.surface);
            assert_eq!(t.term_score.to_bits(), c.term_score.to_bits());
        }
        assert_eq!(report.already_known, clean.already_known);
    }
    boe_par::set_threads(None);
}

#[test]
fn unlimited_budget_reports_nothing() {
    let w = world();
    let report = pipeline(BudgetConfig::default())
        .run(&w.corpus, &w.reduced_ontology)
        .expect("valid input");
    assert!(report.diagnostics.trips.is_empty());
    assert!(report.diagnostics.truncated.is_empty());
    assert!(report.terms.iter().all(|t| !t.truncated));
}

/// The diagnostics time exactly the stages a run entered, in workflow
/// order: a trip keeps the time of every stage it reached, including a
/// Step III/IV setup that ran past the deadline.
#[test]
fn timings_name_exactly_the_stages_entered() {
    const STALL_MS: u64 = 1200;
    const DEADLINE_MS: u64 = 400;
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let w = world();
    let run = |deadline_ms: Option<u64>, stall_site: Option<&str>| {
        if let Some(site) = stall_site {
            let mut plan = ChaosPlan::new(site, FaultMode::Stall);
            plan.stall_ms = STALL_MS;
            chaos::install(Some(plan));
        }
        let report = pipeline(BudgetConfig {
            deadline_ms,
            ..Default::default()
        })
        .run(&w.corpus, &w.reduced_ontology)
        .expect("a tripped run still returns a report");
        chaos::install(None);
        let stages: Vec<Stage> = report.diagnostics.timings.iter().map(|t| t.stage).collect();
        let tripped_at = report.diagnostics.hard_trip().map(|t| t.stage);
        (stages, tripped_at)
    };

    assert_eq!(run(Some(0), None), (vec![], Some(Stage::Validation)));
    assert_eq!(
        run(Some(DEADLINE_MS), Some(sites::TERMEX_CANDIDATES)),
        (vec![Stage::TermExtraction], Some(Stage::TermExtraction))
    );
    assert_eq!(
        run(Some(DEADLINE_MS), Some(sites::STEP34_SETUP)),
        (
            vec![
                Stage::TermExtraction,
                Stage::PolysemyDetection,
                Stage::SenseInduction
            ],
            Some(Stage::SenseInduction)
        )
    );
    assert_eq!(
        run(None, None),
        (
            vec![
                Stage::TermExtraction,
                Stage::PolysemyDetection,
                Stage::SenseInduction,
                Stage::SemanticLinkage
            ],
            None
        )
    );
}
