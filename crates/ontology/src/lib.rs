//! # boe-ontology
//!
//! Ontology substrate: the MeSH/UMLS-like conceptual model the workflow
//! enriches, plus the statistics and synthetic generators the experiments
//! need.
//!
//! * [`model`] — concepts, terms (preferred + synonyms), is-a hierarchy;
//! * [`query`] — fathers/sons/ancestors/siblings, term lookup,
//!   neighbourhood extraction;
//! * [`polysemy`] — the polysemic-term statistics of the paper's Table 1;
//! * [`synth`] — seeded MeSH-like (tree) and UMLS-like (polysemy-profiled)
//!   generators standing in for the licensed resources (DESIGN.md §2);
//! * [`edit`] — enrichment operations with provenance, the output side of
//!   the workflow;
//! * [`io`] — line-oriented text serialization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edit;
pub mod io;
pub mod model;
pub mod polysemy;
pub mod query;
pub mod synth;

pub use model::{Concept, ConceptId, Ontology, OntologyBuilder};
