//! Cluster labelling (Step III-b).
//!
//! "For each cluster it selects the most important features, which
//! represent the induced concept": the top-weighted dimensions of each
//! cluster centroid, i.e. the context words that characterize the sense.

use crate::solution::ClusterSolution;
use boe_corpus::SparseVector;

/// The `top_n` most important features per cluster, as `(dimension,
/// centroid weight)` sorted by decreasing weight (dimension id breaks
/// ties).
pub fn top_features(
    solution: &ClusterSolution,
    vectors: &[SparseVector],
    top_n: usize,
) -> Vec<Vec<(u32, f64)>> {
    solution
        .centroids(vectors)
        .iter()
        .map(|centroid| ranked_features(centroid, top_n))
        .collect()
}

/// The `top_n` entries of `centroid` by decreasing weight (dimension id
/// breaks ties).
fn ranked_features(centroid: &SparseVector, top_n: usize) -> Vec<(u32, f64)> {
    let mut entries: Vec<(u32, f64)> = centroid.iter().collect();
    entries.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    entries.truncate(top_n);
    entries
}

/// An induced concept: the representative features of one sense cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct InducedConcept {
    /// Cluster index within the solution.
    pub cluster: usize,
    /// Number of supporting contexts.
    pub support: usize,
    /// Top features `(dimension, weight)`.
    pub features: Vec<(u32, f64)>,
}

impl InducedConcept {
    /// The concept of cluster `cluster` from its composite (the sum of
    /// its `support` member vectors): the `top_n` features of the
    /// unit-normalized composite, as [`induce_concepts`] ranks them.
    pub fn from_composite(
        cluster: usize,
        support: usize,
        composite: &SparseVector,
        top_n: usize,
    ) -> Self {
        InducedConcept {
            cluster,
            support,
            features: ranked_features(&composite.normalized(), top_n),
        }
    }
}

/// Build [`InducedConcept`]s for every cluster of a solution.
pub fn induce_concepts(
    solution: &ClusterSolution,
    vectors: &[SparseVector],
    top_n: usize,
) -> Vec<InducedConcept> {
    let sizes = solution.sizes();
    solution
        .composites(vectors)
        .iter()
        .enumerate()
        .map(|(cluster, composite)| {
            InducedConcept::from_composite(cluster, sizes[cluster], composite, top_n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_features_are_cluster_specific() {
        let vs = vec![
            SparseVector::from_pairs([(1, 5.0), (9, 0.1)]),
            SparseVector::from_pairs([(1, 4.0), (8, 0.1)]),
            SparseVector::from_pairs([(2, 5.0)]),
        ];
        let sol = ClusterSolution::new(vec![0, 0, 1], 2);
        let feats = top_features(&sol, &vs, 1);
        assert_eq!(feats[0][0].0, 1);
        assert_eq!(feats[1][0].0, 2);
    }

    #[test]
    fn features_sorted_by_weight() {
        let vs = vec![SparseVector::from_pairs([(0, 1.0), (1, 3.0), (2, 2.0)])];
        let sol = ClusterSolution::new(vec![0], 1);
        let feats = top_features(&sol, &vs, 3);
        let dims: Vec<u32> = feats[0].iter().map(|(d, _)| *d).collect();
        assert_eq!(dims, vec![1, 2, 0]);
    }

    #[test]
    fn top_n_truncates() {
        let vs = vec![SparseVector::from_pairs([(0, 1.0), (1, 3.0), (2, 2.0)])];
        let sol = ClusterSolution::new(vec![0], 1);
        assert_eq!(top_features(&sol, &vs, 2)[0].len(), 2);
    }

    #[test]
    fn induced_concepts_carry_support() {
        let vs = vec![
            SparseVector::from_pairs([(1, 1.0)]),
            SparseVector::from_pairs([(1, 1.0)]),
            SparseVector::from_pairs([(2, 1.0)]),
        ];
        let sol = ClusterSolution::new(vec![0, 0, 1], 2);
        let concepts = induce_concepts(&sol, &vs, 5);
        assert_eq!(concepts.len(), 2);
        assert_eq!(concepts[0].support, 2);
        assert_eq!(concepts[1].support, 1);
        assert_eq!(concepts[1].features[0].0, 2);
    }
}
