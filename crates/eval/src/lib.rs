//! # boe-eval
//!
//! Experiment harness regenerating every table of the EDBT-2016 paper
//! (see DESIGN.md §4 for the experiment index):
//!
//! * [`exp_table1`] — **Table 1**: polysemic-term statistics of
//!   UMLS/MeSH-like terminologies for EN/FR/ES;
//! * [`exp_sense_number`] — **§3(i)**: sense-number prediction accuracy
//!   matrix (5 algorithms × 2 representations × indexes; paper's best:
//!   93.1% with max(f_k));
//! * [`exp_polysemy`] — **§2(II)**: polysemy-detection F-measure with the
//!   23 features (paper: 98%);
//! * [`exp_linkage_case`] — **Table 3**: top-10 propositions for one
//!   held-out term (the paper's "corneal injuries" case study);
//! * [`exp_linkage_precision`] — **Table 4**: linkage precision at top
//!   1/2/5/10 over held-out terms (paper: 0.333/0.400/0.500/0.583);
//! * [`exp_term_measures`] — ablation A3: precision@N of gold-term
//!   recovery for each of the seven Step I measures.
//!
//! [`world`] builds the aligned synthetic world (ontology + corpus) the
//! linkage experiments run on; [`table`] renders paper-style tables.
//! Everything is seeded; `cargo run -p boe-eval --bin run_experiments`
//! regenerates every number in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp_linkage_case;
pub mod exp_linkage_precision;
pub mod exp_polysemy;
pub mod exp_relation;
pub mod exp_sense_number;
pub mod exp_table1;
pub mod exp_table2;
pub mod exp_term_measures;
pub mod table;
pub mod world;
