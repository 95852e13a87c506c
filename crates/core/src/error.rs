//! Typed failure taxonomy for the enrichment workflow.
//!
//! Every way a pipeline run can fail outright is one [`EnrichError`]
//! variant; per-term trouble inside a run is *not* an error — it
//! downgrades the term and lands in
//! [`RunDiagnostics`](crate::diagnostics::RunDiagnostics) instead.
//! The taxonomy is dependency-free (std only) and implements
//! [`std::error::Error`] so callers can box, chain and `?` it.

use boe_textkit::Language;
use std::fmt;

/// The workflow stage a failure or degradation is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Upfront input validation, before Step I.
    Validation,
    /// Step I — term extraction.
    TermExtraction,
    /// Step II — polysemy detection.
    PolysemyDetection,
    /// Step III — sense induction.
    SenseInduction,
    /// Step IV — semantic linkage.
    SemanticLinkage,
    /// Final report assembly, after the per-term fan-out.
    Reporting,
}

impl Stage {
    /// Human-readable stage name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Validation => "validation",
            Stage::TermExtraction => "term extraction (step I)",
            Stage::PolysemyDetection => "polysemy detection (step II)",
            Stage::SenseInduction => "sense induction (step III)",
            Stage::SemanticLinkage => "semantic linkage (step IV)",
            Stage::Reporting => "report assembly",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an enrichment run cannot produce a report: exactly the failures
/// [`EnrichmentPipeline::run`](crate::EnrichmentPipeline::run) returns.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EnrichError {
    /// The corpus has no documents (or no tokens at all).
    EmptyCorpus,
    /// The ontology has no concepts.
    EmptyOntology,
    /// Corpus and ontology disagree on language; every downstream stage
    /// (stemming, stopwords, term patterns) would silently misfire.
    LanguageMismatch {
        /// The corpus language.
        corpus: Language,
        /// The ontology language.
        ontology: Language,
    },
    /// A stage failed in a way that could not be downgraded.
    StageFailure {
        /// The stage that failed.
        stage: Stage,
        /// The term being processed (empty for corpus-wide failures).
        term: String,
        /// What went wrong.
        cause: String,
    },
}

impl EnrichError {
    /// Stable process exit code for this error class (the `boe` CLI
    /// reserves 0 for success, 1 for I/O errors and 2 for usage errors,
    /// and owns the codes of its own failure classes).
    pub fn exit_code(&self) -> u8 {
        match self {
            EnrichError::EmptyCorpus | EnrichError::EmptyOntology => 3,
            EnrichError::LanguageMismatch { .. } => 4,
            EnrichError::StageFailure { .. } => 6,
        }
    }
}

impl fmt::Display for EnrichError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnrichError::EmptyCorpus => write!(f, "the corpus contains no documents"),
            EnrichError::EmptyOntology => write!(f, "the ontology contains no concepts"),
            EnrichError::LanguageMismatch { corpus, ontology } => write!(
                f,
                "language mismatch: corpus is {corpus}, ontology is {ontology}"
            ),
            EnrichError::StageFailure { stage, term, cause } => {
                if term.is_empty() {
                    write!(f, "{stage} failed: {cause}")
                } else {
                    write!(f, "{stage} failed on {term:?}: {cause}")
                }
            }
        }
    }
}

impl std::error::Error for EnrichError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = EnrichError::LanguageMismatch {
            corpus: Language::English,
            ontology: Language::French,
        };
        let s = e.to_string();
        assert!(s.contains("en") && s.contains("fr"), "{s}");
        assert!(EnrichError::EmptyCorpus
            .to_string()
            .contains("no documents"));
        let sf = EnrichError::StageFailure {
            stage: Stage::SenseInduction,
            term: "cornea".into(),
            cause: "boom".into(),
        };
        assert!(sf.to_string().contains("step III"), "{sf}");
        assert!(sf.to_string().contains("cornea"));
    }

    #[test]
    fn exit_codes_are_distinct_per_class() {
        let errors = [
            EnrichError::EmptyCorpus,
            EnrichError::LanguageMismatch {
                corpus: Language::English,
                ontology: Language::Spanish,
            },
            EnrichError::StageFailure {
                stage: Stage::Validation,
                term: String::new(),
                cause: "x".into(),
            },
        ];
        let mut codes: Vec<u8> = errors.iter().map(|e| e.exit_code()).collect();
        // Empty corpus/ontology share the invalid-input class.
        assert_eq!(EnrichError::EmptyCorpus.exit_code(), 3);
        assert_eq!(EnrichError::EmptyOntology.exit_code(), 3);
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len(), "codes collide");
        assert!(codes.iter().all(|&c| c >= 3), "0–2 are reserved");
    }

    #[test]
    fn implements_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(EnrichError::EmptyCorpus);
        assert!(e.source().is_none());
    }

    #[test]
    fn stage_names_follow_the_paper() {
        assert_eq!(
            Stage::TermExtraction.to_string(),
            "term extraction (step I)"
        );
        assert_eq!(
            Stage::SemanticLinkage.to_string(),
            "semantic linkage (step IV)"
        );
    }
}
