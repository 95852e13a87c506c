//! Experiment E2 — **Table 2**: the five new internal indexes.
//!
//! Table 2 is definitional, so the experiment validates *semantics* on a
//! controlled fixture: g planted orthogonal sense blobs, clustered for
//! every k ∈ \[2,5\], each solution scored by every index. The printed
//! score curves make each index's argmax visible — including the
//! structural k = 2 bias of the literal `f_k` that EXPERIMENTS.md
//! discusses.

use crate::table::{f3, Table};
use boe_cluster::{Algorithm, InternalIndex, KSweep, UnitVectors};
use boe_corpus::SparseVector;
use boe_rng::StdRng;

/// Fixture parameters.
#[derive(Debug, Clone, Copy)]
pub struct Table2Config {
    /// Number of planted senses (the gold k).
    pub gold_k: usize,
    /// Contexts per sense.
    pub per_sense: usize,
    /// Dimensions per sense vocabulary.
    pub dims_per_sense: u32,
    /// Active dimensions per context.
    pub active_dims: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Table2Config {
    fn default() -> Self {
        Table2Config {
            gold_k: 3,
            per_sense: 40,
            dims_per_sense: 30,
            active_dims: 8,
            seed: 0x7AB1E2,
        }
    }
}

/// Score curves: for each index, the score at every k in \[2,5\] plus the
/// best k (the lowest k wins a tie).
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// `(index, [score at k=2..=5], chosen k)`.
    pub curves: Vec<(InternalIndex, [f64; 4], usize)>,
    /// The planted k.
    pub gold_k: usize,
}

/// Generate the fixture and sweep.
pub fn run(config: &Table2Config) -> Table2Result {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut vs = Vec::new();
    for sense in 0..config.gold_k as u32 {
        let base = sense * config.dims_per_sense;
        for _ in 0..config.per_sense {
            let pairs: Vec<(u32, f64)> = (0..config.active_dims)
                .map(|_| (base + rng.gen_range(0..config.dims_per_sense), 1.0))
                .collect();
            vs.push(SparseVector::from_pairs(pairs));
        }
    }
    let unit = UnitVectors::new(&vs);
    let sweep =
        KSweep::run(&unit, Algorithm::Rbr, (2, 5), config.seed).expect("the fixture has contexts");
    let curves = InternalIndex::ALL
        .iter()
        .map(|&index| {
            let pred = sweep.predict(index);
            let scores = pred.scores.try_into().expect("one score per k in [2, 5]");
            (index, scores, pred.k)
        })
        .collect();
    Table2Result {
        curves,
        gold_k: config.gold_k,
    }
}

/// Render the score curves.
pub fn render(result: &Table2Result) -> String {
    let mut t = Table::new(&["index", "k=2", "k=3", "k=4", "k=5", "argbest", "gold"]);
    for (index, scores, chosen) in &result.curves {
        t.row(vec![
            index.name().to_owned(),
            f3(scores[0]),
            f3(scores[1]),
            f3(scores[2]),
            f3(scores[3]),
            chosen.to_string(),
            if *chosen == result.gold_k {
                "✓".into()
            } else {
                String::new()
            },
        ]);
    }
    format!(
        "Table 2 semantics: index score curves on a {}-sense fixture\n{}",
        result.gold_k,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ek_and_baselines_recover_planted_k() {
        let r = run(&Table2Config::default());
        let chosen = |idx: InternalIndex| {
            r.curves
                .iter()
                .find(|(i, _, _)| *i == idx)
                .map(|(_, _, c)| *c)
                .expect("present")
        };
        assert_eq!(chosen(InternalIndex::Ek), 3);
        assert_eq!(chosen(InternalIndex::Silhouette), 3);
        assert_eq!(chosen(InternalIndex::CalinskiHarabasz), 3);
    }

    #[test]
    fn fk_shows_its_k2_bias_on_balanced_senses() {
        let r = run(&Table2Config::default());
        let fk = r
            .curves
            .iter()
            .find(|(i, _, _)| *i == InternalIndex::Fk)
            .expect("present");
        assert_eq!(fk.2, 2, "literal f_k should pick k = 2 here");
    }

    #[test]
    fn curves_are_finite_everywhere() {
        let r = run(&Table2Config {
            gold_k: 4,
            per_sense: 20,
            ..Default::default()
        });
        for (index, scores, chosen) in &r.curves {
            assert!((2..=5).contains(chosen), "{index}");
            assert!(scores.iter().all(|s| s.is_finite()), "{index}");
        }
    }

    #[test]
    fn render_marks_gold_hits() {
        let r = run(&Table2Config::default());
        let s = render(&r);
        assert!(s.contains("max(ek)"));
        assert!(s.contains("✓"));
    }
}
