//! Step IV — Semantic Linkage.
//!
//! Finds where a candidate term should be attached in the ontology:
//!
//! 1. build the term co-occurrence graph over the corpus and select the
//!    candidate's *MeSH neighbourhood* — the ontology terms it co-occurs
//!    with;
//! 2. score the candidate against (i) those neighbours and (ii) the
//!    fathers/sons of the neighbours' concepts, by **cosine similarity of
//!    aggregate context vectors**;
//! 3. return the top-N ranked *propositions* (paper Table 3 shows the
//!    top-10 for "corneal injuries").

pub mod inventory;
pub mod linker;

pub use inventory::{terms_in_corpus, CorpusTerm, LinkedTerm, OntologyTermInventory};
pub use linker::{LinkerConfig, PositionOrigin, Proposition, SemanticLinker};
