//! Synthetic-data generators.
//!
//! The paper's corpora (PubMed retrievals, the MSH-WSD benchmark) are not
//! redistributable; these generators produce the closest synthetic
//! equivalents that exercise the same code paths (DESIGN.md §2):
//!
//! * [`vocabgen`] — morpheme-composed biomedical-like vocabulary per
//!   language, chosen so the POS tagger's suffix rules classify it
//!   correctly;
//! * [`topic`] — concept topic profiles and the template-based abstract
//!   generator: *terms that denote a concept co-occur with that concept's
//!   characteristic vocabulary*, the property every workflow step relies
//!   on;
//! * [`mshwsd`] — an MSH-WSD-like word-sense-disambiguation dataset: N
//!   ambiguous entities, each with k ∈ \[2,5\] senses and ~100 context
//!   snippets per sense.
//!
//! All generators are seeded and fully deterministic.

pub mod mshwsd;
pub mod topic;
pub mod vocabgen;

pub use mshwsd::{AmbiguousEntity, MshWsdDataset};
pub use topic::{AbstractGenerator, Background, ConceptProfile};
pub use vocabgen::LexiconPools;
