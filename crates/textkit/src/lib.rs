//! # boe-textkit
//!
//! Text-processing substrate for the biomedical ontology-enrichment
//! workflow (EDBT 2016 reproduction). Provides the NLP layer the paper's
//! BIOTEX term extractor depends on:
//!
//! * [`tokenizer`] — rule-based word tokenizer for English, French and
//!   Spanish biomedical text;
//! * [`sentence`] — sentence segmentation;
//! * [`normalize`] — case folding and accent folding;
//! * [`stopwords`] — per-language stopword lists;
//! * [`stem`] — Porter stemmer (EN) and light stemmers (FR/ES);
//! * [`pos`] — lexicon + suffix-rule part-of-speech tagger;
//! * [`pattern`] — the linguistic term patterns (POS-tag sequences) that
//!   filter multi-word candidate terms, with the pattern probabilities
//!   LIDF-value needs;
//! * [`vocab`] — string interning so downstream crates work on `u32` ids.
//!
//! Everything is deterministic and allocation-conscious: hot paths operate
//! on interned ids and byte slices, strings only appear at the edges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lang;
pub mod normalize;
pub mod pattern;
pub mod pos;
pub mod sentence;
pub mod stem;
pub mod stopwords;
pub mod token;
pub mod tokenizer;
pub mod vocab;

pub use lang::Language;
pub use token::{Token, TokenKind};
pub use tokenizer::Tokenizer;
pub use vocab::{TokenId, Vocabulary};
