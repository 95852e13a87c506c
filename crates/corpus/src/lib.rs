//! # boe-corpus
//!
//! Corpus and information-retrieval substrate for the ontology-enrichment
//! workflow:
//!
//! * [`doc`] / [`corpus`] — tokenized, POS-tagged document collections over
//!   an interned vocabulary;
//! * [`index`] — inverted index with positional postings;
//! * [`occurrence`] — index-backed phrase-occurrence resolution shared
//!   by Steps I–IV (rarest-token postings walk, batch context
//!   harvesting), bit-identical to a full corpus scan;
//! * [`stats`] — frequency and windowed co-occurrence statistics;
//! * [`vector`] — sparse vectors and the cosine kernel every downstream
//!   step (clustering, linkage) runs on;
//! * [`weighting`] — TF-IDF and Okapi BM25;
//! * [`context`] — harvesting context windows around term occurrences;
//! * [`synth`] — the synthetic-data generators that stand in for PubMed
//!   and MSH-WSD (see DESIGN.md §2 for the substitution argument).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod corpus;
pub mod doc;
pub mod index;
pub mod occurrence;
pub mod stats;
pub mod synth;
pub mod vector;
pub mod weighting;

pub use corpus::{Corpus, CorpusBuilder, CorpusHygiene};
pub use doc::{DocId, Document, Sentence};
pub use occurrence::OccurrenceIndex;
pub use vector::SparseVector;
