//! # boe-corpus
//!
//! Corpus and information-retrieval substrate for the ontology-enrichment
//! workflow:
//!
//! * [`doc`] / [`corpus`] — tokenized, POS-tagged document collections over
//!   an interned vocabulary and its stem map;
//! * [`occurrence`] — the one positional index, shared by Steps I–IV:
//!   the corpus as one sentinel-separated token stream, each token's
//!   stream positions in one CSR array, exact phrase matching by a
//!   rarest-token walk that compares stream windows, and context
//!   harvesting from one context cache for both scopes, bit-identical
//!   to a full corpus scan;
//! * [`stats`] — frequency and windowed co-occurrence statistics;
//! * [`vector`] — sparse vectors and the cosine kernel every downstream
//!   step (clustering, linkage) runs on;
//! * [`context`] — the context vector around one term occurrence;
//! * [`synth`] — the synthetic-data generators that stand in for PubMed
//!   and MSH-WSD (see DESIGN.md §2 for the substitution argument).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod corpus;
pub mod doc;
pub mod occurrence;
pub mod stats;
pub mod synth;
pub mod vector;

pub use corpus::{Corpus, CorpusBuilder, CorpusHygiene};
pub use doc::{DocId, Document, Sentence};
pub use occurrence::OccurrenceIndex;
pub use vector::SparseVector;
