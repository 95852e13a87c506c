//! The four-step enrichment pipeline.
//!
//! Chains Steps I–IV over one corpus and one target ontology:
//! candidate extraction → polysemy detection → sense induction →
//! semantic linkage, producing an [`EnrichmentReport`].
//!
//! Step II needs a trained detector; the pipeline trains one on weak
//! supervision derived from the *ontology itself* (terms the ontology
//! marks polysemic vs a sample of monosemic terms found in the corpus) —
//! exactly the supervision available to the paper's authors via UMLS.
//!
//! Runs are fallible and self-diagnosing: unusable input is rejected
//! upfront with a typed [`EnrichError`], while per-term trouble in Steps
//! II–IV *degrades* that one term (monosemic prior, senses/linkage
//! omitted) and records the reason in [`RunDiagnostics`] instead of
//! aborting the whole run.
//!
//! Runs are also **resource-governed**: a [`Governor`] built from
//! [`PipelineConfig::budget`] is polled at every stage boundary and
//! before every item of the per-term fan-out. A *hard* trip (run
//! deadline, cancellation, allocation budget) truncates the remaining
//! work — unprocessed terms get score-only reports marked `truncated` —
//! while a *soft* trip (per-stage deadline) re-runs the remaining terms
//! under the cheapest Step-III configuration with Step IV skipped.
//! Either way the partial report is returned with the trip recorded in
//! its diagnostics; the run never aborts mid-flight.
//!
//! The driver is a small stage runner over one private run state. Each
//! stage runs through `Run::step` (stage clock, panic guard, timing) and
//! ends at a `Run::checkpoint`, the one place a hard trip is attributed
//! and recorded. Every early stop is a `?`, so every run that returns a
//! report leaves through the same report assembly, which appends a
//! truncated report for each term the fan-out did not finish.

use crate::diagnostics::{BudgetTrip, Degradation, DetectorOutcome, RunDiagnostics, StageTiming};
use crate::error::{EnrichError, Stage};
use crate::governor::{CancelToken, Governor, TripKind};
use crate::linkage::{LinkerConfig, SemanticLinker};
use crate::polysemy::detector::{FeatureContext, PolysemyDetector, PolysemyModel};
use crate::report::{EnrichmentReport, TermReport};
use crate::senses::{InducedSenses, SenseInducer, SenseInducerConfig};
use crate::termex::candidates::CandidateOptions;
use crate::termex::{RankedTerm, TermExtractor, TermMeasure};
use boe_corpus::occurrence::OccurrenceIndex;
use boe_corpus::Corpus;
use boe_ontology::Ontology;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Step-I candidate extraction options.
    pub candidates: CandidateOptions,
    /// Step-I ranking measure.
    pub measure: TermMeasure,
    /// Number of top-ranked candidates carried into Steps II–IV.
    pub top_terms: usize,
    /// Step-II classifier family.
    pub polysemy_model: PolysemyModel,
    /// Step-III configuration.
    pub senses: SenseInducerConfig,
    /// Step-IV configuration.
    pub linker: LinkerConfig,
    /// Resource budgets (deadline, per-stage deadline, allocation).
    /// Unlimited by default.
    pub budget: crate::governor::BudgetConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            candidates: CandidateOptions::default(),
            measure: TermMeasure::LidfValue,
            top_terms: 50,
            polysemy_model: PolysemyModel::Forest,
            senses: SenseInducerConfig::default(),
            linker: LinkerConfig::default(),
            budget: crate::governor::BudgetConfig::default(),
        }
    }
}

/// The end-to-end enrichment pipeline.
#[derive(Debug)]
pub struct EnrichmentPipeline {
    config: PipelineConfig,
}

impl EnrichmentPipeline {
    /// A pipeline with `config`.
    pub fn new(config: PipelineConfig) -> Self {
        EnrichmentPipeline { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Run all four steps.
    ///
    /// Rejects unusable input upfront (empty corpus/ontology, language
    /// mismatch). A failure on one candidate in Steps II–IV downgrades
    /// that term — polysemy falls back to the monosemic prior, senses
    /// and linkage are omitted — and is recorded in the report's
    /// [`RunDiagnostics`] rather than failing the run.
    pub fn run(
        &self,
        corpus: &Corpus,
        ontology: &Ontology,
    ) -> Result<EnrichmentReport, EnrichError> {
        self.run_governed(corpus, ontology, Governor::new(self.config.budget))
    }

    /// [`run`](Self::run) with an externally held [`CancelToken`]: any
    /// thread can cancel the run, which winds down at its next
    /// cooperative poll and returns the truncated report with the
    /// cancellation recorded in its diagnostics.
    pub fn run_with_token(
        &self,
        corpus: &Corpus,
        ontology: &Ontology,
        cancel: CancelToken,
    ) -> Result<EnrichmentReport, EnrichError> {
        self.run_governed(
            corpus,
            ontology,
            Governor::with_token(self.config.budget, cancel),
        )
    }

    /// [`run`](Self::run) under a caller-constructed [`Governor`]. See
    /// the module docs for the governance contract (hard trips truncate,
    /// soft trips degrade, the run never aborts mid-flight).
    pub fn run_governed(
        &self,
        corpus: &Corpus,
        ontology: &Ontology,
        gov: Governor,
    ) -> Result<EnrichmentReport, EnrichError> {
        let mut run = Run::new(&gov);
        if let Err(Stop::Failed(e)) = self.stages(&mut run, corpus, ontology) {
            return Err(e);
        }

        // Report assembly, the single exit of every run that returns a
        // report. A final late-trip poll lets a budget that tripped after
        // the last checkpoint still reach the caller.
        guarded_stage(Stage::Reporting, || {
            boe_chaos::inject(boe_chaos::sites::REPORT)
        })?;
        if run.diag.hard_trip().is_none() {
            if let Some(trip) = gov.check_hard() {
                run.record_trip(trip, Stage::Reporting, &[]);
            }
        }
        let unprocessed = run.pending[run.processed..].iter().map(truncated_report);
        Ok(EnrichmentReport {
            terms: run.done.into_iter().chain(unprocessed).collect(),
            already_known: run.already_known,
            diagnostics: run.diag,
        })
    }

    /// Validation and Steps I–IV, filling `run`. Every early stop is a
    /// `?`: [`Stop::Truncated`] leaves the unprocessed terms to report
    /// assembly, [`Stop::Failed`] fails the run.
    fn stages(&self, run: &mut Run<'_>, corpus: &Corpus, ontology: &Ontology) -> Result<(), Stop> {
        let gov = run.gov;

        // Upfront validation, untimed. The chaos site sits inside the
        // guard so an injected panic surfaces as a typed stage failure.
        gov.begin_stage();
        guarded_stage(Stage::Validation, || {
            boe_chaos::inject(boe_chaos::sites::VALIDATE);
            validate(corpus, ontology, &mut run.diag)
        })??;
        run.checkpoint(Stage::Validation, ALL_STEPS, false)?;

        // Step I: extract and rank candidates. Candidates already in the
        // ontology are training data for Step II, not enrichment targets.
        // Extraction polls the governor before every document and
        // candidate (hard trips only: soft stage deadlines keep their
        // degrade-later semantics), so a long Step I can no longer starve
        // `--deadline-ms` / cancellation until the first stage boundary.
        let stop_step1 = || gov.check_hard().is_some();
        let extracted = run.step(Stage::TermExtraction, |_| {
            boe_chaos::inject(boe_chaos::sites::STEP1_EXTRACT);
            TermExtractor::try_new(corpus, self.config.candidates, &stop_step1).map(|extractor| {
                let (known, new_terms): (Vec<_>, Vec<_>) = extractor
                    .top(corpus, self.config.measure, self.config.top_terms)
                    .into_iter()
                    .partition(|r| ontology.contains_term(&r.surface));
                (known, new_terms, extractor.into_index())
            })
        })?;
        let Some((known, new_terms, index)) = extracted else {
            // Interrupted mid-extraction: partial candidate statistics
            // would be prefix-dependent, so Step I reports no terms at
            // all — deterministic at any thread count.
            return run.checkpoint(Stage::TermExtraction, ALL_STEPS, true);
        };
        run.already_known = known.into_iter().map(|r| r.surface).collect();
        run.pending = new_terms;
        if run.pending.is_empty() {
            run.diag.warn("step I extracted no new candidate terms");
        }
        run.checkpoint(Stage::TermExtraction, FANOUT_STEPS, false)?;

        // One inverted index per run: Step I's becomes the occurrence
        // index every remaining stage (detector training, per-term
        // features, sense contexts, linkage) resolves phrases through.
        let occ = Arc::new(OccurrenceIndex::from(index));

        // Step II: train the detector on ontology-derived weak labels. A
        // panic during training (or from the chaos site) degrades to the
        // fallback detector instead of failing the run. A hard trip while
        // the training rows are built leaves no detector; the checkpoint
        // below then truncates the fan-out.
        let stop_rows = || gov.check_hard().is_some();
        let (features, detector, rows_interrupted) =
            run.step(Stage::PolysemyDetection, |diag| {
                let features = FeatureContext::build_with_index(corpus, Arc::clone(&occ));
                let trained = catch_unwind(AssertUnwindSafe(|| {
                    boe_chaos::inject(boe_chaos::sites::STEP2_TRAIN);
                    self.train_detector(corpus, ontology, &occ, &features, &stop_rows, diag)
                }));
                match trained {
                    Ok(Ok(d)) => (features, d, false),
                    Ok(Err(RowsInterrupted)) => (features, None, true),
                    Err(payload) => {
                        let reason = panic_message(payload);
                        diag.detector = DetectorOutcome::Fallback {
                            reason: format!("training panicked: {reason}"),
                        };
                        diag.degrade(
                            "",
                            Stage::PolysemyDetection,
                            format!("detector training panicked: {reason}"),
                        );
                        (features, None, false)
                    }
                }
            })?;
        run.checkpoint(Stage::PolysemyDetection, FANOUT_STEPS, rows_interrupted)?;

        // Step III/IV setup: the inducer and linker are corpus-wide and
        // shared by every term; a panic here cannot be downgraded.
        let (inducer, linker) = run.step(Stage::SenseInduction, |_| {
            boe_chaos::inject(boe_chaos::sites::STEP34_SETUP);
            let inducer = SenseInducer::with_index(corpus, self.config.senses, Arc::clone(&occ));
            let linker = SemanticLinker::with_candidates_indexed(
                corpus,
                ontology,
                self.config.linker,
                &[],
                Arc::clone(&occ),
            );
            (inducer, linker)
        })?;
        run.checkpoint(Stage::SenseInduction, FANOUT_STEPS, false)?;

        // Steps II–IV fan out across candidate terms: each term is
        // independent given the trained detector, the inducer and the
        // linker, so the per-term work is chunked across threads
        // (`boe-par`). Determinism contract: outcomes come back in term
        // order, so reports, degradations (term order, stage order within
        // a term) and timing sums are identical to the serial loop at any
        // thread count. The governor is polled before every item; an
        // interruption keeps the deterministic completed prefix.
        gov.begin_stage();
        let stop = || gov.check().is_some();
        let (outcomes, panicked) = fan_out(|| {
            boe_chaos::inject(boe_chaos::sites::FANOUT);
            boe_par::try_par_map(&run.pending, &stop, |r| {
                self.process_term(
                    corpus,
                    r,
                    detector.as_ref(),
                    &features,
                    &inducer,
                    Some(&linker),
                )
            })
        });
        run.absorb(outcomes);
        if let Some(msg) = panicked {
            // A panic that escaped the per-term guards (e.g. the chaos
            // PAR_WORKER or FANOUT site) degrades Steps II–IV wholesale.
            run.diag.degrade(
                "",
                Stage::PolysemyDetection,
                format!("fan-out panicked: {msg}; steps II–IV skipped for all terms"),
            );
            return Err(Stop::Truncated);
        }
        let remaining = run.pending.len() - run.processed;
        if remaining == 0 {
            return Ok(());
        }
        // A hard trip mid-fan-out keeps the completed prefix.
        run.checkpoint(Stage::SenseInduction, FANOUT_STEPS, false)?;

        // Soft stage-deadline trip: re-run the remaining terms under the
        // cheapest Step-III configuration with Step IV skipped, on a
        // fresh stage clock.
        run.record_trip(TripKind::StageDeadline, Stage::SenseInduction, &[]);
        run.diag.degrade(
            "",
            Stage::SenseInduction,
            format!(
                "stage deadline: {remaining} term(s) re-run with the cheapest induction, linkage skipped"
            ),
        );
        gov.begin_stage();
        let cheap =
            SenseInducer::with_index(corpus, self.config.senses.cheapest(), Arc::clone(&occ));
        let stop_hard = || gov.check_hard().is_some();
        let (outcomes, panicked) = fan_out(|| {
            boe_par::try_par_map(&run.pending[run.processed..], &stop_hard, |r| {
                self.process_term(corpus, r, detector.as_ref(), &features, &cheap, None)
            })
        });
        run.absorb(outcomes);
        if let Some(msg) = panicked {
            run.diag.degrade(
                "",
                Stage::SenseInduction,
                format!("cheap fan-out panicked: {msg}"),
            );
            return Err(Stop::Truncated);
        }
        if run.processed < run.pending.len() {
            return run.checkpoint(Stage::SenseInduction, FANOUT_STEPS, true);
        }
        Ok(())
    }

    /// Steps II–IV for one candidate term. `linker` is `None` in the
    /// degraded cheap pass, which skips Step IV entirely. Every stage is
    /// individually guarded: a panic degrades the term, never the run.
    fn process_term(
        &self,
        corpus: &Corpus,
        r: &RankedTerm,
        detector: Option<&PolysemyDetector>,
        features: &FeatureContext<'_>,
        inducer: &SenseInducer<'_>,
        linker: Option<&SemanticLinker<'_>>,
    ) -> TermOutcome {
        let mut out = TermOutcome::default();
        // Chaos faults are keyed by the term surface, not call order, so
        // injected behaviour is identical at any thread count.
        let chaos_key = boe_chaos::key_for(&r.surface);
        let Some(tokens) = corpus.phrase_ids(&r.surface) else {
            out.degraded.push(Degradation {
                term: r.surface.clone(),
                stage: Stage::TermExtraction,
                reason: "candidate tokens missing from the corpus vocabulary".to_owned(),
            });
            return out;
        };

        // Step II: classify; a failure falls back to the monosemic
        // majority prior.
        let t0 = Instant::now();
        let polysemic = guarded_term(
            &mut out.degraded,
            Stage::PolysemyDetection,
            &r.surface,
            || {
                boe_chaos::inject_keyed(boe_chaos::sites::TERM_DETECT, chaos_key);
                match detector {
                    Some(d) => d.is_polysemic(&features.features(&tokens, &r.surface)),
                    None => false,
                }
            },
            || false,
        );
        out.detect = t0.elapsed();

        // Step III: a failure downgrades to a single omitted sense.
        let t0 = Instant::now();
        let senses = guarded_term(
            &mut out.degraded,
            Stage::SenseInduction,
            &r.surface,
            || {
                boe_chaos::inject_keyed(boe_chaos::sites::TERM_INDUCE, chaos_key);
                inducer.induce(&tokens, polysemic)
            },
            single_sense,
        );
        if senses.repaired > 0 {
            out.degraded.push(Degradation {
                term: r.surface.clone(),
                stage: Stage::SenseInduction,
                reason: format!(
                    "{} context vector(s) repaired (non-finite weights dropped)",
                    senses.repaired
                ),
            });
        }
        out.induce = t0.elapsed();

        // Step IV: a failure omits the propositions.
        let t0 = Instant::now();
        let propositions = match linker {
            Some(l) => guarded_term(
                &mut out.degraded,
                Stage::SemanticLinkage,
                &r.surface,
                || {
                    boe_chaos::inject_keyed(boe_chaos::sites::TERM_LINK, chaos_key);
                    l.propose(&r.surface)
                },
                Vec::new,
            ),
            None => Vec::new(),
        };
        out.link = t0.elapsed();

        out.report = Some(TermReport {
            surface: r.surface.clone(),
            term_score: r.score,
            polysemic,
            senses,
            propositions,
            truncated: false,
        });
        out
    }

    /// Weak supervision for Step II: ontology terms found in the corpus,
    /// labelled polysemic iff the ontology attaches them to ≥ 2 concepts.
    /// Returns `Ok(None)` when either class is missing (detector then
    /// defaults to "monosemic", the majority prior); the outcome is
    /// recorded in `diag.detector` either way.
    ///
    /// The class balance is decided from the labels alone, so a fallback
    /// computes no features. The feature rows are built on `boe-par`,
    /// polling `stop` before each; an interruption discards them all
    /// (`Err`), so the outcome does not depend on the thread count.
    fn train_detector(
        &self,
        corpus: &Corpus,
        ontology: &Ontology,
        occ: &OccurrenceIndex,
        features: &FeatureContext<'_>,
        stop: &(dyn Fn() -> bool + Sync),
        diag: &mut RunDiagnostics,
    ) -> Result<Option<PolysemyDetector>, RowsInterrupted> {
        let mut examples = Vec::new();
        for (surface, concepts) in ontology.terms() {
            let Some(tokens) = corpus.phrase_ids(surface) else {
                continue;
            };
            if !occ.contains(corpus, &tokens) {
                continue;
            }
            examples.push((surface, tokens, concepts.len() >= 2));
        }
        let pos = examples.iter().filter(|e| e.2).count();
        if pos == 0 || pos == examples.len() || examples.len() < 4 {
            diag.detector = DetectorOutcome::Fallback {
                reason: format!(
                    "{} usable training terms, {pos} polysemic — need both classes and ≥ 4 terms",
                    examples.len()
                ),
            };
            return Ok(None);
        }
        let rows = match boe_par::try_par_map(&examples, &stop, |(surface, tokens, _)| {
            features.features(tokens, surface)
        }) {
            boe_par::ParOutcome::Complete(rows) => rows,
            boe_par::ParOutcome::Interrupted { .. } => {
                diag.detector = DetectorOutcome::Fallback {
                    reason: "training interrupted by a hard budget trip".to_owned(),
                };
                return Err(RowsInterrupted);
            }
        };
        diag.detector = DetectorOutcome::Trained {
            examples: examples.len(),
            positives: pos,
        };
        let labels = examples.iter().map(|e| e.2).collect();
        Ok(Some(PolysemyDetector::train(
            self.config.polysemy_model,
            rows,
            labels,
        )))
    }
}

/// Detector training stopped at a hard budget trip before its feature
/// rows were complete.
struct RowsInterrupted;

/// The four workflow steps, for naming what a pre-Step-I trip truncates.
const ALL_STEPS: &[Stage] = &[
    Stage::TermExtraction,
    Stage::PolysemyDetection,
    Stage::SenseInduction,
    Stage::SemanticLinkage,
];

/// The per-term fan-out stages, truncated together by a mid-run trip.
const FANOUT_STEPS: &[Stage] = &[
    Stage::PolysemyDetection,
    Stage::SenseInduction,
    Stage::SemanticLinkage,
];

/// Why the stages of a run stopped early.
enum Stop {
    /// A hard trip or a wholesale fan-out failure: report assembly gives
    /// the unprocessed terms truncated reports.
    Truncated,
    /// The run fails with this error.
    Failed(EnrichError),
}

impl From<EnrichError> for Stop {
    fn from(e: EnrichError) -> Self {
        Stop::Failed(e)
    }
}

/// The state of one governed run, filled stage by stage and turned into
/// the report at the single exit of [`EnrichmentPipeline::run_governed`].
struct Run<'g> {
    gov: &'g Governor,
    diag: RunDiagnostics,
    already_known: Vec<String>,
    /// Step I's new terms, in rank order.
    pending: Vec<RankedTerm>,
    /// How many of `pending` the fan-out has finished; the rest get
    /// truncated reports.
    processed: usize,
    /// Reports of the finished terms, in term order (a term whose tokens
    /// are missing finishes without one).
    done: Vec<TermReport>,
}

impl<'g> Run<'g> {
    fn new(gov: &'g Governor) -> Self {
        Run {
            gov,
            diag: RunDiagnostics::default(),
            already_known: Vec::new(),
            pending: Vec::new(),
            processed: 0,
            done: Vec::new(),
        }
    }

    /// Begin `stage` on the governor, run `f` under the stage panic guard
    /// (a panic fails the run with [`EnrichError::StageFailure`]) and add
    /// the elapsed time to the stage's timing.
    fn step<T>(
        &mut self,
        stage: Stage,
        f: impl FnOnce(&mut RunDiagnostics) -> T,
    ) -> Result<T, Stop> {
        self.gov.begin_stage();
        let t0 = Instant::now();
        let out = guarded_stage(stage, || f(&mut self.diag))?;
        self.add_time(stage, t0.elapsed());
        Ok(out)
    }

    /// Stop the run on a hard trip, recording it at `stage` as truncating
    /// `truncates`. `interrupted` says the stage's work was cut short by a
    /// hard poll: deadline and cancellation trips persist, but an
    /// allocation trip can clear once the discarded work is freed, so an
    /// interruption with no trip left standing was the allocation budget.
    fn checkpoint(
        &mut self,
        stage: Stage,
        truncates: &[Stage],
        interrupted: bool,
    ) -> Result<(), Stop> {
        let trip = self
            .gov
            .check_hard()
            .or(interrupted.then_some(TripKind::AllocBudget));
        match trip {
            Some(kind) => {
                self.record_trip(kind, stage, truncates);
                Err(Stop::Truncated)
            }
            None => Ok(()),
        }
    }

    /// Merge a fan-out pass's outcomes, in term order, and add their
    /// per-stage time sums to the Steps II–IV timings.
    fn absorb(&mut self, outcomes: Vec<TermOutcome>) {
        let (mut detect, mut induce, mut link) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        self.processed += outcomes.len();
        for o in outcomes {
            detect += o.detect;
            induce += o.induce;
            link += o.link;
            self.diag.degraded.extend(o.degraded);
            self.done.extend(o.report);
        }
        self.add_time(Stage::PolysemyDetection, detect);
        self.add_time(Stage::SenseInduction, induce);
        self.add_time(Stage::SemanticLinkage, link);
    }

    /// Add `elapsed` to `stage`'s timing, appending the stage on first use.
    fn add_time(&mut self, stage: Stage, elapsed: Duration) {
        match self.diag.timings.iter_mut().find(|t| t.stage == stage) {
            Some(t) => t.elapsed += elapsed,
            None => self.diag.timings.push(StageTiming { stage, elapsed }),
        }
    }

    /// Record a budget trip in the diagnostics with the governor's
    /// measured value and limit, naming the stages the trip truncates.
    fn record_trip(&mut self, kind: TripKind, stage: Stage, truncated: &[Stage]) {
        let (measured, limit) = self.gov.describe(kind);
        let detail = match kind {
            TripKind::Deadline => "wall-clock deadline exceeded",
            TripKind::StageDeadline => "stage exceeded its soft deadline",
            TripKind::Cancelled => "cancellation requested",
            TripKind::AllocBudget => "allocation budget exhausted",
        };
        self.diag.trip(
            BudgetTrip {
                kind,
                stage,
                detail: detail.to_owned(),
                measured,
                limit,
            },
            truncated.iter().copied(),
        );
    }
}

/// Run one pass of the per-term fan-out, catching a panic that escapes
/// the per-term guards: the completed outcomes in term order (a prefix
/// when interrupted, none after a panic) and the panic message, if any.
fn fan_out(
    pass: impl FnOnce() -> boe_par::ParOutcome<TermOutcome>,
) -> (Vec<TermOutcome>, Option<String>) {
    match catch_unwind(AssertUnwindSafe(pass)) {
        Ok(o) => (o.into_results(), None),
        Err(payload) => (Vec::new(), Some(panic_message(payload))),
    }
}

/// A single sense with no concepts: what a term gets when its Step III
/// failed or never ran.
fn single_sense() -> InducedSenses {
    InducedSenses {
        k: 1,
        concepts: Vec::new(),
        assignments: Vec::new(),
        repaired: 0,
    }
}

/// A score-only report for a term whose Steps II–IV were truncated by a
/// hard budget trip (or a wholesale fan-out failure).
fn truncated_report(r: &RankedTerm) -> TermReport {
    TermReport {
        surface: r.surface.clone(),
        term_score: r.score,
        polysemic: false,
        senses: single_sense(),
        propositions: Vec::new(),
        truncated: true,
    }
}

/// Upfront input validation: hard errors for unusable input, warnings
/// for suspicious-but-usable input.
fn validate(
    corpus: &Corpus,
    ontology: &Ontology,
    diag: &mut RunDiagnostics,
) -> Result<(), EnrichError> {
    if corpus.is_empty() || corpus.token_count() == 0 {
        return Err(EnrichError::EmptyCorpus);
    }
    if ontology.is_empty() {
        return Err(EnrichError::EmptyOntology);
    }
    if corpus.language() != ontology.language() {
        return Err(EnrichError::LanguageMismatch {
            corpus: corpus.language(),
            ontology: ontology.language(),
        });
    }
    if corpus.len() == 1 {
        diag.warn("single-document corpus: document-frequency measures are degenerate");
    }
    if ontology.len() == 1 {
        diag.warn("single-concept ontology: linkage has no structure to propose into");
    }
    let hygiene = corpus.hygiene();
    if !hygiene.is_clean() {
        diag.warn(format!(
            "corpus hygiene: {} empty document(s) and {} empty sentence(s) tolerated",
            hygiene.empty_docs, hygiene.empty_sentences
        ));
    }
    Ok(())
}

/// Per-term result of the Steps II–IV fan-out: the report (absent when
/// the term was skipped), the degradations recorded while processing it,
/// and the wall-clock time spent in each stage.
#[derive(Default)]
struct TermOutcome {
    report: Option<TermReport>,
    degraded: Vec<Degradation>,
    detect: Duration,
    induce: Duration,
    link: Duration,
}

/// Run `f`, catching panics: on a panic the term is degraded at `stage`
/// with the panic message as reason and `fallback` supplies the value.
/// Takes a bare degradation list rather than [`RunDiagnostics`] because
/// inside the parallel fan-out each worker owns a local list that is
/// merged into the diagnostics in term order afterwards.
fn guarded_term<T>(
    degraded: &mut Vec<Degradation>,
    stage: Stage,
    term: &str,
    f: impl FnOnce() -> T,
    fallback: impl FnOnce() -> T,
) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(payload) => {
            degraded.push(Degradation {
                term: term.to_owned(),
                stage,
                reason: panic_message(payload),
            });
            fallback()
        }
    }
}

/// Run a corpus-wide stage, converting a panic into a typed
/// [`EnrichError::StageFailure`] carrying the extracted panic message.
fn guarded_stage<T>(stage: Stage, f: impl FnOnce() -> T) -> Result<T, EnrichError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| EnrichError::StageFailure {
        stage,
        term: String::new(),
        cause: panic_message(payload),
    })
}

/// Extract a human-readable message from a panic payload: `&str` and
/// `String` payloads (the overwhelmingly common cases) are passed
/// through verbatim, anything else gets a generic label.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::corpus::CorpusBuilder;
    use boe_ontology::OntologyBuilder;
    use boe_textkit::Language;

    /// A small aligned world: ontology with a polysemic term ("keratitis"
    /// on two concepts), corpus where a new term "corneal injuries"
    /// co-occurs with ontology terms.
    fn world() -> (Corpus, Ontology) {
        let mut ob = OntologyBuilder::new("t", Language::English);
        let eye = ob.add_concept("eye diseases", vec![]);
        let cd = ob.add_concept("corneal diseases", vec!["keratitis".to_owned()]);
        let skin = ob.add_concept("skin inflammation", vec!["keratitis".to_owned()]);
        ob.add_is_a(cd, eye);
        let _ = skin;
        let onto = ob.build().expect("valid");
        let mut cb = CorpusBuilder::new(Language::English);
        for _ in 0..3 {
            cb.add_text(
                "corneal injuries resemble corneal diseases of the epithelium stroma tissue.",
            );
            cb.add_text("keratitis damages the epithelium stroma tissue.");
            cb.add_text("keratitis irritates the dermis follicle layer.");
            cb.add_text("eye diseases involve the retina nerve.");
            cb.add_text("corneal injuries heal in the epithelium stroma tissue.");
        }
        (cb.build(), onto)
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let (c, o) = world();
        let pipeline = EnrichmentPipeline::new(PipelineConfig::default());
        let report = pipeline.run(&c, &o).expect("valid input");
        assert!(!report.is_empty(), "no candidates analysed");
        let ci = report.get("corneal injuries").expect("analysed");
        assert!(ci.term_score > 0.0);
        assert!(!ci.propositions.is_empty(), "linkage found nothing");
        let proposed: Vec<&str> = ci.propositions.iter().map(|p| p.term.as_str()).collect();
        assert!(proposed.contains(&"corneal diseases"), "{proposed:?}");
    }

    #[test]
    fn known_terms_are_set_aside() {
        let (c, o) = world();
        let pipeline = EnrichmentPipeline::new(PipelineConfig::default());
        let report = pipeline.run(&c, &o).expect("valid input");
        assert!(report
            .already_known
            .iter()
            .any(|t| t == "corneal diseases" || t == "keratitis" || t == "eye diseases"));
        assert!(report.get("keratitis").is_none());
    }

    #[test]
    fn sense_counts_are_in_range() {
        let (c, o) = world();
        let pipeline = EnrichmentPipeline::new(PipelineConfig::default());
        let report = pipeline.run(&c, &o).expect("valid input");
        for t in &report.terms {
            assert!(
                (1..=5).contains(&t.senses.k),
                "{}: k={}",
                t.surface,
                t.senses.k
            );
        }
    }

    #[test]
    fn report_displays() {
        let (c, o) = world();
        let pipeline = EnrichmentPipeline::new(PipelineConfig::default());
        let report = pipeline.run(&c, &o).expect("valid input");
        let s = report.to_string();
        assert!(s.contains("enrichment report"));
        assert!(s.contains("corneal injuries"));
    }

    #[test]
    fn empty_corpus_is_a_typed_error() {
        let (_, o) = world();
        let empty = CorpusBuilder::new(Language::English).build();
        let pipeline = EnrichmentPipeline::new(PipelineConfig::default());
        assert!(matches!(
            pipeline.run(&empty, &o),
            Err(EnrichError::EmptyCorpus)
        ));
    }

    #[test]
    fn language_mismatch_is_a_typed_error() {
        let (c, _) = world();
        let mut ob = OntologyBuilder::new("fr", Language::French);
        ob.add_concept("maladies", vec![]);
        let o = ob.build().expect("valid");
        let pipeline = EnrichmentPipeline::new(PipelineConfig::default());
        match pipeline.run(&c, &o) {
            Err(EnrichError::LanguageMismatch { corpus, ontology }) => {
                assert_eq!(corpus, Language::English);
                assert_eq!(ontology, Language::French);
            }
            other => panic!("expected LanguageMismatch, got {other:?}"),
        }
    }

    #[test]
    fn diagnostics_record_timings_and_detector() {
        let (c, o) = world();
        let pipeline = EnrichmentPipeline::new(PipelineConfig::default());
        let report = pipeline.run(&c, &o).expect("valid input");
        let stages: Vec<Stage> = report.diagnostics.timings.iter().map(|t| t.stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::TermExtraction,
                Stage::PolysemyDetection,
                Stage::SenseInduction,
                Stage::SemanticLinkage,
            ]
        );
        assert_ne!(
            report.diagnostics.detector,
            DetectorOutcome::NotAttempted,
            "training outcome must be recorded"
        );
    }

    #[test]
    fn interrupted_checkpoint_blames_the_standing_trip_or_the_alloc_budget() {
        let gov = Governor::new(Default::default());
        let mut run = Run::new(&gov);
        assert!(run
            .checkpoint(Stage::TermExtraction, ALL_STEPS, false)
            .is_ok());
        assert!(run.diag.trips.is_empty());
        // Interrupted with nothing standing: the allocation budget, which
        // is the one hard trip that can clear.
        assert!(matches!(
            run.checkpoint(Stage::TermExtraction, ALL_STEPS, true),
            Err(Stop::Truncated)
        ));
        let trip = run.diag.hard_trip().expect("recorded");
        assert_eq!(trip.kind, TripKind::AllocBudget);
        assert_eq!(trip.stage, Stage::TermExtraction);
        assert_eq!(run.diag.truncated, ALL_STEPS);

        gov.cancel_token().cancel();
        let mut run = Run::new(&gov);
        assert!(matches!(
            run.checkpoint(Stage::PolysemyDetection, FANOUT_STEPS, true),
            Err(Stop::Truncated)
        ));
        assert_eq!(run.diag.trips.len(), 1);
        assert_eq!(run.diag.trips[0].kind, TripKind::Cancelled);
        assert_eq!(run.diag.truncated, FANOUT_STEPS);
    }

    #[test]
    fn guarded_records_degradation_and_falls_back() {
        let mut diag = RunDiagnostics::default();
        let v = guarded_term(
            &mut diag.degraded,
            Stage::SenseInduction,
            "cornea",
            || -> usize { panic!("boom {}", 7) },
            || 42,
        );
        assert_eq!(v, 42);
        assert_eq!(diag.degraded.len(), 1);
        assert_eq!(diag.degraded[0].term, "cornea");
        assert_eq!(diag.degraded[0].reason, "boom 7");
    }
}
