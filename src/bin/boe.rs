//! `boe` — command-line front-end to the enrichment workflow.
//!
//! ```text
//! boe extract  <corpus.txt> [--lang en|fr|es] [--measure NAME] [--top N]
//! boe senses   <corpus.txt> <term> [--lang ..]
//! boe link     <corpus.txt> <ontology.boe> <term> [--top N]
//! boe pipeline <corpus.txt> <ontology.boe> [--top N] [--strict]
//!              [--deadline-ms N] [--stage-deadline-ms N] [--max-alloc-mb N]
//! boe demo
//! ```
//!
//! Corpus files are plain text; blank lines separate documents. Ontology
//! files use the `boe-ontology` text format (`! name lang` header, then
//! `C`/`S`/`L` records — see `boe_ontology::io`).
//!
//! Exit codes are stable per error class: 0 success, 1 I/O error,
//! 2 usage error, 3 invalid/empty input, 4 language mismatch, 5 unknown
//! term, 6 stage failure, 7 degraded run under `--strict`, 8 deadline
//! exceeded, 9 cancelled, 10 memory budget exhausted. Codes 3 (empty
//! corpus or ontology), 4 and 6 are the library's [`EnrichError`]
//! classes; the rest are the CLI's own. `boe` never exits 4 (it loads the
//! corpus in the ontology's language) or 9 (it holds no cancel token).
//! Warnings and degradations always go to stderr; a budget-truncated
//! report is still printed before the governed exit code is returned.

use bio_onto_enrich::corpus::corpus::{Corpus, CorpusBuilder};
use bio_onto_enrich::ontology::{io as onto_io, Ontology};
use bio_onto_enrich::textkit::Language;
use bio_onto_enrich::workflow::diagnostics::BudgetTrip;
use bio_onto_enrich::workflow::error::EnrichError;
use bio_onto_enrich::workflow::governor::{self, BudgetConfig, TripKind};
use bio_onto_enrich::workflow::linkage::{LinkerConfig, SemanticLinker};
use bio_onto_enrich::workflow::senses::{SenseInducer, SenseInducerConfig};
use bio_onto_enrich::workflow::termex::candidates::CandidateOptions;
use bio_onto_enrich::workflow::termex::{TermExtractor, TermMeasure};
use bio_onto_enrich::workflow::{EnrichmentPipeline, PipelineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt;
use std::process::ExitCode;

/// A counting allocator shim: delegates every call to [`System`] and
/// feeds byte deltas into the workflow governor's approximate allocation
/// accounting, enabling `--max-alloc-mb`. Library crates forbid `unsafe`,
/// so the shim lives here in the binary.
struct CountingAlloc;

// SAFETY: all allocation is delegated verbatim to `System`; the shim
// only adds relaxed atomic counter updates around it.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            governor::mem::note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        governor::mem::note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            governor::mem::note_dealloc(layout.size());
            governor::mem::note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    governor::mem::mark_tracking_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("boe: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "usage:
  boe extract  <corpus.txt> [--lang en|fr|es] [--measure NAME] [--top N]
  boe senses   <corpus.txt> <term> [--lang en|fr|es]
  boe link     <corpus.txt> <ontology.boe> <term> [--top N]
  boe pipeline <corpus.txt> <ontology.boe> [--top N] [--strict]
               [--deadline-ms N] [--stage-deadline-ms N] [--max-alloc-mb N]
  boe demo

measures: c-value tf-idf okapi f-tfidf-c f-ocapi lidf-value tergraph

exit codes: 0 ok · 1 i/o · 2 usage · 3 invalid input · 5 unknown term ·
6 stage failure · 7 degraded (--strict) · 8 deadline exceeded ·
10 memory budget exhausted";

/// A CLI failure, mapped onto a stable exit code.
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown subcommand/flag, missing arguments.
    Usage(String),
    /// The OS said no: unreadable files and similar.
    Io(String),
    /// A file's content is unusable: no documents, unparsable ontology.
    InvalidInput(String),
    /// A requested term does not occur in the corpus vocabulary.
    UnknownTerm(String),
    /// `--strict` promoted a degraded run to a failure.
    Degraded {
        /// Number of warnings / degraded terms in the run.
        warnings: usize,
    },
    /// The run's wall-clock deadline tripped; the report was truncated.
    DeadlineExceeded {
        /// Milliseconds elapsed when the trip fired.
        elapsed_ms: u64,
        /// The configured deadline, in milliseconds.
        budget_ms: u64,
    },
    /// The run was cancelled; the report was truncated.
    Cancelled,
    /// The run's memory budget tripped; the report was truncated.
    BudgetExhausted {
        /// Mebibytes allocated beyond the run-start baseline.
        allocated_mb: u64,
        /// The configured budget, in mebibytes.
        budget_mb: u64,
    },
    /// A typed workflow error.
    Enrich(EnrichError),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Io(_) => 1,
            CliError::Usage(_) => 2,
            CliError::InvalidInput(_) => 3,
            CliError::UnknownTerm(_) => 5,
            CliError::Degraded { .. } => 7,
            CliError::DeadlineExceeded { .. } => 8,
            CliError::Cancelled => 9,
            CliError::BudgetExhausted { .. } => 10,
            CliError::Enrich(e) => e.exit_code(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Io(m) => f.write_str(m),
            CliError::InvalidInput(what) => write!(f, "invalid input: {what}"),
            CliError::UnknownTerm(term) => {
                write!(f, "term {term:?} does not occur in the corpus")
            }
            CliError::Degraded { warnings } => {
                write!(f, "strict mode: run degraded with {warnings} warning(s)")
            }
            CliError::DeadlineExceeded {
                elapsed_ms,
                budget_ms,
            } => write!(
                f,
                "deadline exceeded: {elapsed_ms} ms elapsed against a {budget_ms} ms budget"
            ),
            CliError::Cancelled => write!(f, "run cancelled"),
            CliError::BudgetExhausted {
                allocated_mb,
                budget_mb,
            } => write!(
                f,
                "memory budget exhausted: {allocated_mb} MiB allocated against a {budget_mb} MiB budget"
            ),
            CliError::Enrich(e) => write!(f, "{e}"),
        }
    }
}

impl From<EnrichError> for CliError {
    fn from(e: EnrichError) -> Self {
        CliError::Enrich(e)
    }
}

/// The flags one subcommand accepts.
struct FlagSpec {
    /// Flags that consume the next argument as a value.
    valued: &'static [&'static str],
    /// Boolean switches.
    boolean: &'static [&'static str],
}

impl FlagSpec {
    fn describe(&self) -> String {
        let all: Vec<String> = self
            .valued
            .iter()
            .chain(self.boolean)
            .map(|n| format!("--{n}"))
            .collect();
        if all.is_empty() {
            "this subcommand takes no flags".to_owned()
        } else {
            format!("valid flags: {}", all.join(", "))
        }
    }
}

/// Parsed argv of one subcommand: positional arguments plus recognized
/// flags. Unknown or misspelled flags are rejected against the spec.
struct Flags {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], spec: &FlagSpec) -> Result<Flags, CliError> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut switches = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if spec.boolean.contains(&name) {
                    switches.push(name.to_owned());
                } else if spec.valued.contains(&name) {
                    let value = it
                        .next()
                        .ok_or_else(|| CliError::Usage(format!("flag --{name} needs a value")))?;
                    flags.push((name.to_owned(), value.clone()));
                } else {
                    return Err(CliError::Usage(format!(
                        "unknown flag --{name} ({})",
                        spec.describe()
                    )));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Flags {
            positional,
            flags,
            switches,
        })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn lang(&self) -> Result<Language, CliError> {
        self.get("lang")
            .unwrap_or("en")
            .parse()
            .map_err(|e| CliError::Usage(format!("{e}")))
    }

    fn top(&self, default: usize) -> Result<usize, CliError> {
        match self.get("top") {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --top value {v:?}"))),
        }
    }

    fn budget_u64(&self, name: &str) -> Result<Option<u64>, CliError> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("bad --{name} value {v:?}"))),
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::Usage("missing subcommand".into()));
    };
    match cmd.as_str() {
        "extract" => cmd_extract(&Flags::parse(
            rest,
            &FlagSpec {
                valued: &["lang", "measure", "top"],
                boolean: &[],
            },
        )?),
        "senses" => cmd_senses(&Flags::parse(
            rest,
            &FlagSpec {
                valued: &["lang"],
                boolean: &[],
            },
        )?),
        "link" => cmd_link(&Flags::parse(
            rest,
            &FlagSpec {
                valued: &["top"],
                boolean: &[],
            },
        )?),
        "pipeline" => cmd_pipeline(&Flags::parse(
            rest,
            &FlagSpec {
                valued: &["top", "deadline-ms", "stage-deadline-ms", "max-alloc-mb"],
                boolean: &["strict"],
            },
        )?),
        "demo" => {
            Flags::parse(
                rest,
                &FlagSpec {
                    valued: &[],
                    boolean: &[],
                },
            )?;
            cmd_demo()
        }
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    }
}

fn load_corpus(path: &str, lang: Language) -> Result<Corpus, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path:?}: {e}")))?;
    let mut builder = CorpusBuilder::new(lang);
    // Batch ingestion: tokenize + tag every document in parallel, then
    // intern serially in order — same corpus as a per-document loop.
    let docs: Vec<&str> = text
        .split("\n\n")
        .filter(|d| !d.trim().is_empty())
        .collect();
    builder.add_texts(&docs);
    if builder.is_empty() {
        return Err(CliError::InvalidInput(format!(
            "{path:?} contains no documents"
        )));
    }
    Ok(builder.build())
}

fn load_ontology(path: &str) -> Result<Ontology, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path:?}: {e}")))?;
    onto_io::from_str(&text)
        .map_err(|e| CliError::InvalidInput(format!("cannot parse {path:?}: {e}")))
}

fn parse_measure(name: &str) -> Result<TermMeasure, CliError> {
    TermMeasure::ALL
        .into_iter()
        .find(|m| m.name() == name)
        .ok_or_else(|| CliError::Usage(format!("unknown measure {name:?}")))
}

fn cmd_extract(flags: &Flags) -> Result<(), CliError> {
    let [path] = flags.positional.as_slice() else {
        return Err(CliError::Usage(
            "extract needs exactly one corpus file".into(),
        ));
    };
    let lang = flags.lang()?;
    let measure = parse_measure(flags.get("measure").unwrap_or("lidf-value"))?;
    let top = flags.top(20)?;
    let corpus = load_corpus(path, lang)?;
    let extractor = TermExtractor::new(&corpus, CandidateOptions::default());
    println!(
        "{} candidates from {} documents; top {top} by {measure}:",
        extractor.candidates().len(),
        corpus.len()
    );
    for (i, t) in extractor.top(&corpus, measure, top).iter().enumerate() {
        println!("{:>3}. {:<32} {:.4}", i + 1, t.surface, t.score);
    }
    Ok(())
}

fn cmd_senses(flags: &Flags) -> Result<(), CliError> {
    let [path, term] = flags.positional.as_slice() else {
        return Err(CliError::Usage(
            "senses needs a corpus file and a term".into(),
        ));
    };
    let corpus = load_corpus(path, flags.lang()?)?;
    let ids = corpus
        .phrase_ids(term)
        .ok_or_else(|| CliError::UnknownTerm(term.clone()))?;
    let inducer = SenseInducer::new(&corpus, SenseInducerConfig::default());
    let senses = inducer.induce(&ids, true);
    println!("term {term:?}: {} sense(s)", senses.k);
    for concept in &senses.concepts {
        let labels: Vec<&str> = concept
            .features
            .iter()
            .filter_map(|&(d, _)| inducer.feature_label(d))
            .take(8)
            .collect();
        println!(
            "  sense {} ({} contexts): {}",
            concept.cluster,
            concept.support,
            labels.join(", ")
        );
    }
    Ok(())
}

fn cmd_link(flags: &Flags) -> Result<(), CliError> {
    let [corpus_path, onto_path, term] = flags.positional.as_slice() else {
        return Err(CliError::Usage(
            "link needs a corpus file, an ontology file and a term".into(),
        ));
    };
    let ontology = load_ontology(onto_path)?;
    let corpus = load_corpus(corpus_path, ontology.language())?;
    if corpus.phrase_ids(term).is_none() {
        return Err(CliError::UnknownTerm(term.clone()));
    }
    let top = flags.top(10)?;
    let linker = SemanticLinker::new(
        &corpus,
        &ontology,
        LinkerConfig {
            top_n: top,
            ..Default::default()
        },
    );
    let props = linker.propose(term);
    if props.is_empty() {
        println!("no propositions — {term:?} has no ontology neighbourhood in this corpus");
        return Ok(());
    }
    println!("where to add {term:?}:");
    for (i, p) in props.iter().enumerate() {
        println!(
            "{:>3}. {:<32} cosine {:.4}  via {}",
            i + 1,
            p.term,
            p.cosine,
            p.origin.name()
        );
    }
    Ok(())
}

fn cmd_pipeline(flags: &Flags) -> Result<(), CliError> {
    let [corpus_path, onto_path] = flags.positional.as_slice() else {
        return Err(CliError::Usage(
            "pipeline needs a corpus file and an ontology file".into(),
        ));
    };
    let ontology = load_ontology(onto_path)?;
    let corpus = load_corpus(corpus_path, ontology.language())?;
    let pipeline = EnrichmentPipeline::new(PipelineConfig {
        top_terms: flags.top(50)?,
        budget: BudgetConfig {
            deadline_ms: flags.budget_u64("deadline-ms")?,
            stage_deadline_ms: flags.budget_u64("stage-deadline-ms")?,
            max_alloc_mb: flags.budget_u64("max-alloc-mb")?,
        },
        ..Default::default()
    });
    let report = pipeline.run(&corpus, &ontology)?;
    for w in &report.diagnostics.warnings {
        eprintln!("boe: warning: {w}");
    }
    for d in &report.diagnostics.degraded {
        eprintln!(
            "boe: warning: {:?} degraded at {}: {}",
            d.term, d.stage, d.reason
        );
    }
    for t in &report.diagnostics.trips {
        eprintln!(
            "boe: budget trip: {} during {} — {}",
            t.kind, t.stage, t.detail
        );
    }
    print!("{report}");
    // A hard budget trip produced a truncated report; surface it as the
    // matching governed exit code. Takes precedence over --strict.
    if let Some(e) = report.diagnostics.hard_trip().and_then(trip_error) {
        return Err(e);
    }
    if flags.has("strict") && report.is_degraded() {
        return Err(CliError::Degraded {
            warnings: report.diagnostics.warning_count(),
        });
    }
    Ok(())
}

/// The error a budget trip ends the CLI with: one per hard trip kind,
/// `None` for the soft stage deadline.
fn trip_error(trip: &BudgetTrip) -> Option<CliError> {
    match trip.kind {
        TripKind::Deadline => Some(CliError::DeadlineExceeded {
            elapsed_ms: trip.measured,
            budget_ms: trip.limit,
        }),
        TripKind::Cancelled => Some(CliError::Cancelled),
        TripKind::AllocBudget => Some(CliError::BudgetExhausted {
            allocated_mb: trip.measured,
            budget_mb: trip.limit,
        }),
        TripKind::StageDeadline => None,
    }
}

fn cmd_demo() -> Result<(), CliError> {
    use bio_onto_enrich::eval::exp_linkage_case;
    use bio_onto_enrich::eval::world::{World, WorldConfig};
    let world = World::generate(&WorldConfig {
        n_concepts: 100,
        n_holdout: 8,
        abstracts_per_concept: 5,
        ..Default::default()
    });
    println!(
        "generated a {}-concept MeSH-like ontology and a {}-abstract corpus;",
        world.full_ontology.len(),
        world.corpus.len()
    );
    println!("re-placing held-out term {:?}:\n", world.holdout[0].surface);
    let case = exp_linkage_case::run(&world, 0, 150);
    println!("{}", exp_linkage_case::render(&case));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_onto_enrich::workflow::error::Stage;

    fn trip(kind: TripKind, measured: u64, limit: u64) -> BudgetTrip {
        BudgetTrip {
            kind,
            stage: Stage::SenseInduction,
            detail: String::new(),
            measured,
            limit,
        }
    }

    #[test]
    fn exit_codes_are_stable_and_distinct_per_class() {
        let hard = [
            TripKind::Deadline,
            TripKind::Cancelled,
            TripKind::AllocBudget,
        ]
        .map(|kind| {
            trip_error(&trip(kind, 1, 1))
                .expect("hard trip")
                .exit_code()
        });
        assert_eq!(hard, [8, 9, 10]);
        assert!(trip_error(&trip(TripKind::StageDeadline, 1, 1)).is_none());

        let errors = [
            CliError::Io("x".into()),
            CliError::Usage("x".into()),
            CliError::InvalidInput("x".into()),
            CliError::Enrich(EnrichError::LanguageMismatch {
                corpus: Language::English,
                ontology: Language::Spanish,
            }),
            CliError::UnknownTerm("x".into()),
            CliError::Enrich(EnrichError::StageFailure {
                stage: Stage::Validation,
                term: String::new(),
                cause: "x".into(),
            }),
            CliError::Degraded { warnings: 1 },
            CliError::DeadlineExceeded {
                elapsed_ms: 10,
                budget_ms: 5,
            },
            CliError::Cancelled,
            CliError::BudgetExhausted {
                allocated_mb: 10,
                budget_mb: 5,
            },
        ];
        let codes: Vec<u8> = errors.iter().map(CliError::exit_code).collect();
        assert_eq!(codes, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], "codes collide");
        // The library's empty-input classes share the invalid-input code.
        assert_eq!(CliError::Enrich(EnrichError::EmptyCorpus).exit_code(), 3);
        assert_eq!(CliError::Enrich(EnrichError::EmptyOntology).exit_code(), 3);
    }

    #[test]
    fn trip_messages_carry_their_measurements() {
        let dl = trip_error(&trip(TripKind::Deadline, 120, 100)).expect("hard trip");
        assert!(dl.to_string().contains("120 ms"), "{dl}");
        let mem = trip_error(&trip(TripKind::AllocBudget, 64, 32)).expect("hard trip");
        assert!(mem.to_string().contains("64 MiB"), "{mem}");
    }
}
