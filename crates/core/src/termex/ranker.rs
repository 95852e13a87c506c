//! The term extractor: candidates + a chosen measure → ranked term list.

use crate::termex::candidates::{try_extract_candidates, CandidateOptions, CandidateSet};
use crate::termex::lidf::lidf_values;
use crate::termex::measures::{c_values, f_ocapis, f_tfidf_cs, phrase_okapis, phrase_tf_idfs};
use crate::termex::tergraph::{tergraph_scores, term_cooccurrence_graph};
use boe_corpus::index::InvertedIndex;
use boe_corpus::weighting::Bm25Params;
use boe_corpus::Corpus;
use boe_textkit::pattern::PatternSet;

/// The termhood measures BIOTEX exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermMeasure {
    /// C-value.
    CValue,
    /// Phrase-level TF-IDF.
    TfIdf,
    /// Phrase-level Okapi BM25.
    Okapi,
    /// Harmonic fusion of TF-IDF and C-value.
    FTfIdfC,
    /// Harmonic fusion of Okapi and C-value.
    FOCapi,
    /// Linguistic-pattern prior × IDF × C-value (BIOTEX's default).
    LidfValue,
    /// LIDF-value re-ranked by the TeRGraph neighbourhood-specificity
    /// score (LIDF × TeRGraph).
    TerGraph,
}

impl TermMeasure {
    /// All measures, in ablation order.
    pub const ALL: [TermMeasure; 7] = [
        TermMeasure::CValue,
        TermMeasure::TfIdf,
        TermMeasure::Okapi,
        TermMeasure::FTfIdfC,
        TermMeasure::FOCapi,
        TermMeasure::LidfValue,
        TermMeasure::TerGraph,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TermMeasure::CValue => "c-value",
            TermMeasure::TfIdf => "tf-idf",
            TermMeasure::Okapi => "okapi",
            TermMeasure::FTfIdfC => "f-tfidf-c",
            TermMeasure::FOCapi => "f-ocapi",
            TermMeasure::LidfValue => "lidf-value",
            TermMeasure::TerGraph => "tergraph",
        }
    }
}

impl std::fmt::Display for TermMeasure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A scored candidate term.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedTerm {
    /// Index into the extractor's [`CandidateSet`].
    pub candidate: usize,
    /// Surface form.
    pub surface: String,
    /// The measure's score.
    pub score: f64,
}

/// Step-I extractor: owns the candidate set and index for one corpus.
///
/// ```
/// use boe_core::termex::{TermExtractor, TermMeasure};
/// use boe_core::termex::candidates::CandidateOptions;
/// use boe_corpus::corpus::CorpusBuilder;
/// use boe_textkit::Language;
///
/// let mut b = CorpusBuilder::new(Language::English);
/// b.add_text("corneal injuries heal. corneal injuries persist.");
/// let corpus = b.build();
/// let extractor = TermExtractor::new(&corpus, CandidateOptions::default());
/// let top = extractor.top(&corpus, TermMeasure::LidfValue, 1);
/// assert_eq!(top[0].surface, "corneal injuries");
/// ```
#[derive(Debug)]
pub struct TermExtractor {
    candidates: CandidateSet,
    index: InvertedIndex,
    patterns: PatternSet,
}

impl TermExtractor {
    /// Build the extractor (extracts candidates eagerly).
    pub fn new(corpus: &Corpus, opts: CandidateOptions) -> Self {
        Self::try_new(corpus, opts, &|| false).expect("never-stop predicate cannot interrupt")
    }

    /// [`new`](Self::new) with cooperative cancellation: `should_stop`
    /// is threaded into candidate extraction (see
    /// [`try_extract_candidates`]) so a resource governor can interrupt
    /// a long Step I mid-scan. Returns `None` when interrupted — the
    /// deterministic "no extractor" outcome, identical at any thread
    /// count for a monotonic predicate.
    pub fn try_new<S>(corpus: &Corpus, opts: CandidateOptions, should_stop: &S) -> Option<Self>
    where
        S: Fn() -> bool,
    {
        let candidates = try_extract_candidates(corpus, opts, should_stop)?;
        Some(TermExtractor {
            candidates,
            index: InvertedIndex::build(corpus),
            patterns: PatternSet::for_language(corpus.language()),
        })
    }

    /// The underlying candidate set.
    pub fn candidates(&self) -> &CandidateSet {
        &self.candidates
    }

    /// Give up the extractor, keeping its inverted index: the pipeline
    /// hands it to the run's occurrence index instead of building a
    /// second one over the same corpus.
    pub fn into_index(self) -> InvertedIndex {
        self.index
    }

    /// Rank all candidates by `measure`, descending (surface breaks ties
    /// for determinism). `corpus` must be the corpus the extractor was
    /// built from (needed only by the graph-based measure).
    pub fn rank(&self, corpus: &Corpus, measure: TermMeasure) -> Vec<RankedTerm> {
        // Each batch scorer fans its per-candidate loop out on `boe_par`
        // (independent read-only scores, in-order reassembly): scores are
        // bit-identical to the serial maps at any thread count.
        let scores: Vec<f64> = match measure {
            TermMeasure::CValue => c_values(&self.candidates),
            TermMeasure::TfIdf => phrase_tf_idfs(&self.index, &self.candidates),
            TermMeasure::Okapi => {
                phrase_okapis(&self.index, &self.candidates, Bm25Params::default())
            }
            TermMeasure::FTfIdfC => f_tfidf_cs(&self.index, &self.candidates),
            TermMeasure::FOCapi => f_ocapis(&self.index, &self.candidates),
            TermMeasure::LidfValue => lidf_values(&self.index, &self.patterns, &self.candidates),
            TermMeasure::TerGraph => {
                let graph = term_cooccurrence_graph(corpus, &self.candidates);
                let tg = tergraph_scores(&graph);
                lidf_values(&self.index, &self.patterns, &self.candidates)
                    .into_iter()
                    .zip(&tg)
                    .map(|(l, g)| l * g)
                    .collect()
            }
        };
        let mut ranked: Vec<RankedTerm> = self
            .candidates
            .terms
            .iter()
            .enumerate()
            .map(|(i, t)| RankedTerm {
                candidate: i,
                surface: t.surface.clone(),
                score: scores[i],
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.surface.cmp(&b.surface))
        });
        ranked
    }

    /// The top `n` terms under `measure`.
    pub fn top(&self, corpus: &Corpus, measure: TermMeasure, n: usize) -> Vec<RankedTerm> {
        let mut r = self.rank(corpus, measure);
        r.truncate(n);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::corpus::CorpusBuilder;
    use boe_textkit::Language;

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new(Language::English);
        b.add_text(
            "corneal injuries damage the epithelium. corneal injuries require amniotic membrane grafts.",
        );
        b.add_text("the epithelium heals after corneal injuries. treatment helps recovery.");
        b.add_text("amniotic membrane grafts support the epithelium during treatment.");
        b.build()
    }

    #[test]
    fn every_measure_produces_a_full_ranking() {
        let c = corpus();
        let ex = TermExtractor::new(&c, CandidateOptions::default());
        for m in TermMeasure::ALL {
            let r = ex.rank(&c, m);
            assert_eq!(r.len(), ex.candidates().len(), "{m}");
            assert!(
                r.windows(2).all(|w| w[0].score >= w[1].score),
                "{m} not sorted"
            );
            assert!(r.iter().all(|t| t.score.is_finite()), "{m} non-finite");
        }
    }

    #[test]
    fn multiword_domain_terms_rank_high_under_lidf() {
        let c = corpus();
        let ex = TermExtractor::new(&c, CandidateOptions::default());
        let top: Vec<String> = ex
            .top(&c, TermMeasure::LidfValue, 5)
            .into_iter()
            .map(|t| t.surface)
            .collect();
        assert!(
            top.iter().any(|t| t == "corneal injuries"),
            "top-5 was {top:?}"
        );
    }

    #[test]
    fn top_truncates() {
        let c = corpus();
        let ex = TermExtractor::new(&c, CandidateOptions::default());
        assert_eq!(ex.top(&c, TermMeasure::CValue, 3).len(), 3);
    }

    #[test]
    fn deterministic_ranking() {
        let c = corpus();
        let ex = TermExtractor::new(&c, CandidateOptions::default());
        let a = ex.rank(&c, TermMeasure::TerGraph);
        let b = ex.rank(&c, TermMeasure::TerGraph);
        assert_eq!(a, b);
    }

    #[test]
    fn measure_names() {
        assert_eq!(TermMeasure::LidfValue.to_string(), "lidf-value");
        assert_eq!(TermMeasure::ALL.len(), 7);
    }
}
