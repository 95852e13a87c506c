//! # boe-bench
//!
//! The [`harness::PerfReport`] JSON writer behind perfbench's per-layer
//! reports. The paper's tables and ablations are printed by
//! `boe-eval`'s `run_experiments`; perfbench times the pipeline.

#![forbid(unsafe_code)]

pub mod harness;
