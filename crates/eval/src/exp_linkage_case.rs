//! Experiment E5 — **Table 3**: the case-study table.
//!
//! The paper walks through re-placing "corneal injuries": its top-10
//! propositions mix the gold synonyms/fathers with plausible corpus terms
//! ("chemical burns", "wound"), 5 of 10 being correct. This experiment
//! reproduces the protocol for one held-out term of the synthetic world
//! and renders the same two-column table with correct rows marked.

use crate::table::{f3, Table};
use crate::world::World;
#[cfg(test)]
use crate::world::WorldConfig;
use boe_core::linkage::{LinkerConfig, Proposition, SemanticLinker};
use boe_core::termex::candidates::CandidateOptions;
use boe_core::termex::{TermExtractor, TermMeasure};
use boe_textkit::normalize::match_key;
use std::sync::Arc;

/// The case-study result.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// The candidate term examined.
    pub candidate: String,
    /// Its gold position terms.
    pub gold_terms: Vec<String>,
    /// The top-10 propositions with correctness flags.
    pub propositions: Vec<(Proposition, bool)>,
}

impl CaseStudy {
    /// Number of correct propositions in the list.
    pub fn correct_count(&self) -> usize {
        self.propositions.iter().filter(|(_, ok)| *ok).count()
    }
}

/// Run the case study on the `which`-th held-out term of a world.
pub fn run(world: &World, which: usize, top_candidates: usize) -> CaseStudy {
    let held = &world.holdout[which % world.holdout.len()];
    // Step-I candidates become proposable corpus terms (Table 3 proposes
    // non-MeSH terms too).
    let extractor = TermExtractor::new(&world.corpus, CandidateOptions::default());
    let candidates: Vec<String> = extractor
        .top(&world.corpus, TermMeasure::LidfValue, top_candidates)
        .into_iter()
        .map(|t| t.surface)
        .collect();
    let linker = SemanticLinker::with_candidates_indexed(
        &world.corpus,
        &world.reduced_ontology,
        LinkerConfig::default(),
        &candidates,
        Arc::clone(extractor.index()),
    );
    let props = linker.propose(&held.surface);
    let propositions = props
        .into_iter()
        .map(|p| {
            let ok = held.gold_terms.contains(&match_key(&p.term));
            (p, ok)
        })
        .collect();
    CaseStudy {
        candidate: held.surface.clone(),
        gold_terms: held.gold_terms.clone(),
        propositions,
    }
}

/// Render in Table-3 style.
pub fn render(case: &CaseStudy) -> String {
    let mut t = Table::new(&["No", "Where", "Cosine", "Correct"]);
    for (i, (p, ok)) in case.propositions.iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            p.term.clone(),
            f3(p.cosine),
            if *ok { "yes".into() } else { String::new() },
        ]);
    }
    format!(
        "Table 3: propositions about where to add the term {:?} ({} of {} correct)\n{}",
        case.candidate,
        case.correct_count(),
        case.propositions.len(),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(&WorldConfig {
            n_concepts: 80,
            n_holdout: 6,
            abstracts_per_concept: 5,
            seed: 21,
            ..Default::default()
        })
    }

    #[test]
    fn case_study_finds_correct_positions() {
        let w = world();
        // At least one of the held-out terms should get ≥1 correct
        // proposition in its top-10 (the paper's term got 5/10).
        let mut best = 0;
        for i in 0..w.holdout.len() {
            let case = run(&w, i, 150);
            best = best.max(case.correct_count());
        }
        assert!(best >= 1, "no correct proposition for any held-out term");
    }

    #[test]
    fn propositions_are_ranked_and_capped() {
        let w = world();
        let case = run(&w, 0, 150);
        assert!(case.propositions.len() <= 10);
        let cosines: Vec<f64> = case.propositions.iter().map(|(p, _)| p.cosine).collect();
        assert!(cosines.windows(2).all(|x| x[0] >= x[1]));
    }

    #[test]
    fn render_marks_correct_rows() {
        let w = world();
        let case = run(&w, 0, 150);
        let s = render(&case);
        assert!(s.contains("Table 3"));
        assert!(s.contains(&case.candidate));
    }
}
