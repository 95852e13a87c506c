//! Ablation A3 — the Step I measure comparison behind BIOTEX's choice of
//! LIDF-value: for each of the seven termhood measures, precision@N of
//! recovering gold terms (every term of the world's full ontology) among
//! the top N ranked candidates.

use crate::table::{f3, Table};
use crate::world::World;
use boe_core::termex::candidates::CandidateOptions;
use boe_core::termex::{TermExtractor, TermMeasure};
use boe_textkit::normalize::match_key;
use std::collections::HashSet;

/// One measure's precision@N.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurePrecision {
    /// The termhood measure.
    pub measure: TermMeasure,
    /// Gold terms among the top N, divided by N.
    pub precision: f64,
}

/// Rank the world's candidates with every [`TermMeasure::ALL`] measure,
/// in that order, and score each top `n` against the full ontology.
pub fn run(world: &World, n: usize) -> Vec<MeasurePrecision> {
    let gold: HashSet<String> = world
        .full_ontology
        .terms()
        .iter()
        .map(|(t, _)| match_key(t))
        .collect();
    let extractor = TermExtractor::new(&world.corpus, CandidateOptions::default());
    TermMeasure::ALL
        .into_iter()
        .map(|measure| {
            let hits = extractor
                .top(&world.corpus, measure, n)
                .iter()
                .filter(|t| gold.contains(&match_key(&t.surface)))
                .count();
            MeasurePrecision {
                measure,
                precision: hits as f64 / n as f64,
            }
        })
        .collect()
}

/// Render one row per measure.
pub fn render(n: usize, results: &[MeasurePrecision]) -> String {
    let col = format!("P@{n}");
    let mut t = Table::new(&["measure", &col]);
    for r in results {
        t.row(vec![r.measure.name().to_owned(), f3(r.precision)]);
    }
    format!(
        "Ablation A3: precision@{n} of gold-term recovery per Step I measure\n{}",
        t.render()
    )
}
