//! Step I — Term Extraction (the BIOTEX measures).
//!
//! Extracts *candidate terms* from a POS-tagged corpus: token sequences
//! matching the linguistic patterns, scored by the measures of the
//! companion IRJ-2016 paper (C-value, TF-IDF, Okapi, F-TFIDF-C, F-OCapi,
//! LIDF-value, TeRGraph).

pub mod candidates;
pub mod lidf;
pub mod measures;
pub mod ranker;
pub mod tergraph;

pub use candidates::{extract_candidates, try_extract_candidates, CandidateSet, CandidateTerm};
pub use ranker::{RankedTerm, TermExtractor, TermMeasure};
pub use tergraph::{tergraph_scores, term_cooccurrence_graph};
