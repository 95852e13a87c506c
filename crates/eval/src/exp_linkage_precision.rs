//! Experiment E6 — **Table 4**: linkage precision at top 1/2/5/10.
//!
//! For each of the held-out terms, ask the linker for propositions and
//! check whether at least one of the top-N is a gold position (synonym,
//! father or son of the term's true concept). The paper reports 0.333 /
//! 0.400 / 0.500 / 0.583 for N = 1, 2, 5, 10 over 60 terms; the shape to
//! reproduce is the monotone increase with a meaningful top-1. The
//! ablation sweeps the hierarchy expansion off to quantify its
//! contribution.

use crate::table::{f3, Table};
use crate::world::World;
use boe_core::linkage::{LinkerConfig, SemanticLinker};
use boe_core::termex::candidates::CandidateOptions;
use boe_core::termex::{TermExtractor, TermMeasure};
use boe_textkit::normalize::match_key;
use std::sync::Arc;

/// The Table-4 result.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionAtN {
    /// Precision at top 1, 2, 5, 10.
    pub at: [f64; 4],
    /// Terms evaluated.
    pub n_terms: usize,
    /// Terms for which the linker produced no proposition at all.
    pub no_proposals: usize,
}

/// The N cut-offs of Table 4.
pub const CUTOFFS: [usize; 4] = [1, 2, 5, 10];

/// Run E6 over the world's hold-out set.
pub fn run(world: &World, top_candidates: usize, expand_hierarchy: bool) -> PrecisionAtN {
    let extractor = TermExtractor::new(&world.corpus, CandidateOptions::default());
    let candidates: Vec<String> = extractor
        .top(&world.corpus, TermMeasure::LidfValue, top_candidates)
        .into_iter()
        .map(|t| t.surface)
        .collect();
    let linker = SemanticLinker::with_candidates_indexed(
        &world.corpus,
        &world.reduced_ontology,
        LinkerConfig {
            expand_hierarchy,
            ..Default::default()
        },
        &candidates,
        Arc::clone(extractor.index()),
    );
    let mut hits = [0usize; 4];
    let mut no_proposals = 0usize;
    for held in &world.holdout {
        let props = linker.propose(&held.surface);
        if props.is_empty() {
            no_proposals += 1;
            continue;
        }
        for (ci, &cut) in CUTOFFS.iter().enumerate() {
            let hit = props
                .iter()
                .take(cut)
                .any(|p| held.gold_terms.contains(&match_key(&p.term)));
            if hit {
                hits[ci] += 1;
            }
        }
    }
    let n = world.holdout.len();
    PrecisionAtN {
        at: hits.map(|h| h as f64 / n as f64),
        n_terms: n,
        no_proposals,
    }
}

/// Render in Table-4 style, with the paper's row for comparison.
pub fn render(result: &PrecisionAtN) -> String {
    let mut t = Table::new(&["", "Top 1", "Top 2", "Top 5", "Top 10"]);
    t.row(vec![
        format!("measured (n={})", result.n_terms),
        f3(result.at[0]),
        f3(result.at[1]),
        f3(result.at[2]),
        f3(result.at[3]),
    ]);
    t.row(vec![
        "paper (n=60)".into(),
        "0.333".into(),
        "0.400".into(),
        "0.500".into(),
        "0.583".into(),
    ]);
    format!(
        "Table 4: precision of terms with at least 1 correct proposition\n{}{} terms had no proposition at all\n",
        t.render(),
        result.no_proposals
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn world() -> World {
        World::generate(&WorldConfig {
            n_concepts: 80,
            n_holdout: 10,
            abstracts_per_concept: 5,
            seed: 33,
            ..Default::default()
        })
    }

    #[test]
    fn precision_is_monotone_in_n() {
        let w = world();
        let r = run(&w, 150, true);
        assert!(r.at[0] <= r.at[1] + 1e-12);
        assert!(r.at[1] <= r.at[2] + 1e-12);
        assert!(r.at[2] <= r.at[3] + 1e-12);
        assert_eq!(r.n_terms, 10);
    }

    #[test]
    fn top10_precision_is_meaningful() {
        let w = world();
        let r = run(&w, 150, true);
        assert!(
            r.at[3] >= 0.3,
            "top-10 precision {} below paper-shape floor",
            r.at[3]
        );
    }

    #[test]
    fn hierarchy_expansion_does_not_hurt() {
        let w = world();
        let with = run(&w, 150, true);
        let without = run(&w, 150, false);
        assert!(
            with.at[3] + 1e-12 >= without.at[3],
            "expansion hurt: {} vs {}",
            with.at[3],
            without.at[3]
        );
    }

    #[test]
    fn render_includes_paper_row() {
        let w = world();
        let r = run(&w, 150, true);
        let s = render(&r);
        assert!(s.contains("0.583"));
        assert!(s.contains("Table 4"));
    }
}
