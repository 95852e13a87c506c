//! Sense-number prediction (Step III-a).
//!
//! "The prediction of the sense number of a term falls directly in
//! clustering-based issues": cluster the term's contexts for every k in
//! [2, 5], score each solution with an internal index, keep the optimum.
//!
//! [`KSweep`] is the only loop over k: it clusters once per k, so any
//! number of indexes can score the same solutions over the same
//! [`UnitVectors`] (and its one similarity matrix), and
//! [`KSweep::predict`] holds the only best-k rule.

use crate::indexes::InternalIndex;
use crate::similarity::UnitVectors;
use crate::solution::ClusterSolution;
use crate::Algorithm;

/// The solutions of one k sweep, one per swept k in ascending order,
/// with the unit vectors they cluster.
#[derive(Debug, Clone)]
pub struct KSweep<'u> {
    unit: &'u UnitVectors,
    solutions: Vec<ClusterSolution>,
}

/// One index's reading of a [`KSweep`].
#[derive(Debug, Clone)]
pub struct KPrediction<'s> {
    /// The chosen k.
    pub k: usize,
    /// The index's score at every swept k, in ascending k.
    pub scores: Vec<f64>,
    /// The chosen solution.
    pub solution: &'s ClusterSolution,
}

impl<'u> KSweep<'u> {
    /// Cluster the unit vectors `unit` (see [`Algorithm::cluster`]) with
    /// `algorithm` once per k in the inclusive `k_range`, seeding each
    /// run with `seed ^ k`. Returns `None` when there are fewer than 2
    /// contexts (no clustering signal; the caller treats the term as
    /// monosemous).
    ///
    /// A degenerate requested range (`lo < 2`, `lo > hi`) or a range
    /// wider than the context count is clamped rather than rejected:
    /// the sweep covers `max(lo, 2) ..= min(max(hi, lo), n)`, and the
    /// single k `n` when that is empty.
    pub fn run(
        unit: &'u UnitVectors,
        algorithm: Algorithm,
        k_range: (usize, usize),
        seed: u64,
    ) -> Option<KSweep<'u>> {
        if unit.len() < 2 {
            return None;
        }
        let lo = k_range.0.max(2);
        let hi = k_range.1.max(lo).min(unit.len());
        let solutions = (lo.min(hi)..=hi)
            .map(|k| algorithm.cluster(unit, k, seed ^ k as u64))
            .collect();
        Some(KSweep { unit, solutions })
    }

    /// Score every solution with `index` over the unit vectors the
    /// sweep clustered, and pick the best k. Only a strict
    /// improvement replaces the running best, so the lowest k wins an
    /// exact tie and a sweep that scores the worst value everywhere
    /// picks the low end of the range.
    pub fn predict(&self, index: InternalIndex) -> KPrediction<'_> {
        let scores: Vec<f64> = self
            .solutions
            .iter()
            .map(|s| index.score(s, self.unit))
            .collect();
        let best = best_position(&scores, index.maximize());
        KPrediction {
            k: self.solutions[best].k(),
            scores,
            solution: &self.solutions[best],
        }
    }
}

/// Position of the best of `scores` (non-empty): the first score no
/// later one strictly improves on.
fn best_position(scores: &[f64], maximize: bool) -> usize {
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate().skip(1) {
        let better = if maximize {
            s > scores[best]
        } else {
            s < scores[best]
        };
        if better {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::SparseVector;

    /// `k` orthogonal context blobs of `per` contexts each.
    fn blobs(per: usize, k: usize) -> UnitVectors {
        let mut vs = Vec::new();
        for c in 0..k as u32 {
            for i in 0..per as u32 {
                vs.push(SparseVector::from_pairs([
                    (c * 1000, 10.0),
                    (c * 1000 + 1 + i, 1.0),
                ]));
            }
        }
        UnitVectors::new(&vs)
    }

    /// The k predicted by `index` over a `(2, 5)` sweep of `algorithm`,
    /// with the scores for failure messages.
    fn predict(vs: &UnitVectors, algorithm: Algorithm, index: InternalIndex) -> (usize, Vec<f64>) {
        let sweep = KSweep::run(vs, algorithm, (2, 5), 0).expect("enough contexts");
        let pred = sweep.predict(index);
        (pred.k, pred.scores)
    }

    fn swept_ks(sweep: &KSweep) -> Vec<usize> {
        sweep.solutions.iter().map(ClusterSolution::k).collect()
    }

    #[test]
    fn ek_recovers_true_k() {
        for true_k in 2..=5 {
            let vs = blobs(12, true_k);
            let (k, scores) = predict(&vs, Algorithm::Direct, InternalIndex::Ek);
            assert_eq!(k, true_k, "scores: {scores:?}");
        }
    }

    #[test]
    fn fk_recovers_two_sense_terms() {
        let vs = blobs(12, 2);
        let (k, scores) = predict(&vs, Algorithm::Direct, InternalIndex::Fk);
        assert_eq!(k, 2, "scores: {scores:?}");
    }

    /// The literal Table-2 `f_k = a_k / log10(k)` is biased toward k = 2:
    /// merging two of three equal orthogonal senses at most halves one
    /// cluster's ISIM (a_2 ≥ 0.75·a_3) while the log penalty ratio
    /// log10(3)/log10(2) ≈ 1.58 always outweighs it. This test pins that
    /// behaviour — EXPERIMENTS.md discusses the consequence for the
    /// paper's 93.1% claim.
    #[test]
    fn fk_is_biased_toward_two_on_balanced_senses() {
        let vs = blobs(12, 3);
        let (k, scores) = predict(&vs, Algorithm::Direct, InternalIndex::Fk);
        assert_eq!(k, 2, "scores: {scores:?}");
    }

    #[test]
    fn ek_recovers_true_k_across_algorithms() {
        for alg in Algorithm::ALL {
            let vs = blobs(10, 3);
            let (k, scores) = predict(&vs, alg, InternalIndex::Ek);
            assert_eq!(k, 3, "{alg}: {scores:?}");
        }
    }

    #[test]
    fn bk_minimization_direction() {
        let vs = blobs(10, 2);
        // b_k is minimized; for orthogonal 2-blob data every k isolates
        // the blobs so ESIM stays ~0 — prediction must still be valid.
        let (k, _) = predict(&vs, Algorithm::Direct, InternalIndex::Bk);
        assert!((2..=5).contains(&k));
    }

    #[test]
    fn too_few_contexts_returns_none() {
        let none = UnitVectors::new(&[]);
        assert!(KSweep::run(&none, Algorithm::Direct, (2, 5), 0).is_none());
        let one = UnitVectors::new(&[SparseVector::from_pairs([(0, 1.0)])]);
        assert!(KSweep::run(&one, Algorithm::Direct, (2, 5), 0).is_none());
    }

    #[test]
    fn k_range_clamps_to_object_count() {
        let vs = blobs(1, 3); // only 3 contexts
        let sweep = KSweep::run(&vs, Algorithm::Direct, (2, 5), 0).expect("3 contexts");
        assert_eq!(swept_ks(&sweep), vec![2, 3], "narrowed to the object count");
        let pred = sweep.predict(InternalIndex::Fk);
        assert!(pred.k <= 3);
        assert_eq!(pred.scores.len(), 2);
    }

    #[test]
    fn degenerate_ranges_are_clamped_not_rejected() {
        let vs = blobs(10, 2);
        for (k_range, ks) in [
            ((0, 0), vec![2]),
            ((1, 1), vec![2]),
            ((5, 2), vec![5]),
            ((2, 2), vec![2]),
            ((30, 40), vec![20]),
        ] {
            let sweep = KSweep::run(&vs, Algorithm::Direct, k_range, 0).expect("enough contexts");
            assert_eq!(swept_ks(&sweep), ks, "{k_range:?}");
            let pred = sweep.predict(InternalIndex::Fk);
            assert!(pred.k >= 2, "{k_range:?} gave k = {}", pred.k);
            assert!(!pred.scores.is_empty());
        }
    }

    #[test]
    fn scores_cover_requested_range() {
        let vs = blobs(10, 2);
        let sweep = KSweep::run(&vs, Algorithm::Direct, (2, 5), 0).expect("enough");
        assert_eq!(
            swept_ks(&sweep),
            vec![2, 3, 4, 5],
            "a full range is not narrowed"
        );
        assert_eq!(sweep.predict(InternalIndex::Fk).scores.len(), 4);
    }

    #[test]
    fn lowest_k_wins_an_exact_tie() {
        // Identical contexts: every cluster's ISIM and ESIM is exactly 1
        // at every k, so a_k (maximized) and b_k (minimized) tie across
        // the whole sweep.
        let vs = UnitVectors::new(&vec![SparseVector::from_pairs([(0, 1.0)]); 8]);
        let sweep = KSweep::run(&vs, Algorithm::Direct, (2, 5), 0).expect("enough");
        for index in [InternalIndex::Ak, InternalIndex::Bk] {
            let pred = sweep.predict(index);
            assert!(
                pred.scores.iter().all(|&s| s == pred.scores[0]),
                "{index}: {:?}",
                pred.scores
            );
            assert_eq!(pred.k, 2, "{index}");
        }
        // A tie between two later ks goes to the lower one too.
        assert_eq!(best_position(&[0.1, 0.7, 0.7, 0.2], true), 1);
        assert_eq!(best_position(&[0.9, 0.3, 0.3, 0.5], false), 1);
    }

    #[test]
    fn all_worst_scores_pick_the_low_end() {
        assert_eq!(best_position(&[f64::NEG_INFINITY; 4], true), 0);
        assert_eq!(best_position(&[f64::INFINITY; 4], false), 0);
        assert_eq!(best_position(&[f64::NEG_INFINITY, 0.0], true), 1);
    }

    /// One shared set, one sweep per algorithm, against a fresh set
    /// (and so a fresh similarity matrix) for every call: the same
    /// solutions and every index's scores, bit for bit.
    #[test]
    fn sweep_solutions_equal_direct_clustering_bit_for_bit() {
        let contexts: Vec<SparseVector> = (0..17u32)
            .map(|i| {
                SparseVector::from_pairs([(i % 5, 1.0 + f64::from(i) * 0.3), (7 + i % 3, 0.4)])
            })
            .collect();
        let shared = UnitVectors::new(&contexts);
        for alg in Algorithm::ALL {
            let sweep = KSweep::run(&shared, alg, (2, 5), 11).expect("enough");
            assert_eq!(swept_ks(&sweep), vec![2, 3, 4, 5]);
            for sol in &sweep.solutions {
                let k = sol.k();
                let fresh = alg.cluster(&UnitVectors::new(&contexts), k, 11 ^ k as u64);
                assert_eq!(*sol, fresh, "{alg} at k = {k}");
            }
            for index in InternalIndex::ALL {
                let pred = sweep.predict(index);
                let fresh: Vec<u64> = sweep
                    .solutions
                    .iter()
                    .map(|sol| index.score(sol, &UnitVectors::new(&contexts)).to_bits())
                    .collect();
                let shared: Vec<u64> = pred.scores.iter().map(|s| s.to_bits()).collect();
                assert_eq!(shared, fresh, "{alg}, {index}");
            }
        }
    }
}
