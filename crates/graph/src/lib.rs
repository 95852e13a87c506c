//! # boe-graph
//!
//! Weighted-graph substrate. Step II of the workflow derives 12 of its 23
//! polysemy features from a graph *induced from the text corpus*, and Step
//! IV builds a term co-occurrence graph to select the MeSH neighbourhood
//! of a candidate term. This crate provides the graph structure and the
//! analyses those steps need:
//!
//! * [`graph`] — immutable undirected weighted graph in compressed sparse
//!   row (CSR) form, built once from its edge list;
//! * [`metrics`] — degree statistics, density, clustering coefficients;
//! * [`pagerank`] — weighted PageRank;
//! * [`kcore`] — k-core decomposition;
//! * [`components`] — connected components;
//! * [`community`] — label propagation and modularity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod community;
pub mod components;
pub mod graph;
pub mod kcore;
pub mod metrics;
pub mod pagerank;

pub use graph::{Graph, NodeId};
