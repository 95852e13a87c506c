//! Cluster solutions, and the per-cluster tallies every method and
//! index shares: sizes, composites, centroids and first-appearance
//! label densification. Each exists once here; the methods call these
//! over labels that may not yet form a valid solution.

use boe_corpus::SparseVector;

/// A partition of `n` objects into `k` clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSolution {
    assignments: Vec<usize>,
    k: usize,
}

impl ClusterSolution {
    /// Build from per-object cluster labels in `0..k`.
    ///
    /// # Panics
    /// Panics if any label is ≥ `k`, or if some cluster in `0..k` is empty
    /// (solutions produced by the algorithms in this crate never have
    /// empty clusters).
    pub fn new(assignments: Vec<usize>, k: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        let mut seen = vec![false; k];
        for &a in &assignments {
            assert!(a < k, "label {a} out of range for k = {k}");
            seen[a] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "empty cluster in solution with k = {k}"
        );
        ClusterSolution { assignments, k }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether there are no objects (never true for built solutions).
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Cluster label of object `i`.
    pub fn assignment(&self, i: usize) -> usize {
        self.assignments[i]
    }

    /// All labels.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Cluster sizes, indexed by label.
    pub fn sizes(&self) -> Vec<usize> {
        sizes(&self.assignments, self.k)
    }

    /// Composite (sum) vector per cluster.
    pub fn composites(&self, vectors: &[SparseVector]) -> Vec<SparseVector> {
        assert_eq!(vectors.len(), self.len(), "vector/assignment mismatch");
        composites(vectors, &self.assignments, self.k)
    }

    /// Unit-normalized centroid per cluster.
    pub fn centroids(&self, vectors: &[SparseVector]) -> Vec<SparseVector> {
        assert_eq!(vectors.len(), self.len(), "vector/assignment mismatch");
        centroids(vectors, &self.assignments, self.k)
    }

    /// The solution whose labels number `labels`' distinct values in
    /// order of first appearance. Every value must be below
    /// `labels.len()`.
    pub(crate) fn densified(labels: &[usize]) -> Self {
        let mut label_of = vec![usize::MAX; labels.len()];
        let mut k = 0usize;
        let assignments = labels
            .iter()
            .map(|&l| {
                if label_of[l] == usize::MAX {
                    label_of[l] = k;
                    k += 1;
                }
                label_of[l]
            })
            .collect();
        ClusterSolution::new(assignments, k)
    }
}

/// Size of each of `k` clusters under `assignments` (a cluster may be
/// empty).
pub(crate) fn sizes(assignments: &[usize], k: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; k];
    for &a in assignments {
        sizes[a] += 1;
    }
    sizes
}

/// Composite (sum) vector of each of `k` clusters under `assignments`,
/// summed in object order (an empty cluster's composite is the zero
/// vector).
///
/// Each cluster is one [`SparseVector::from_pairs`] over its members'
/// entries in object order, so every dimension adds its values in the
/// order folding the members with [`SparseVector::add_assign`] would,
/// and the composite is bit-identical to that fold (see
/// [`SparseVector::sum_of`]) at linear rather than quadratic cost.
pub(crate) fn composites(
    vectors: &[SparseVector],
    assignments: &[usize],
    k: usize,
) -> Vec<SparseVector> {
    let mut members = vec![Vec::new(); k];
    for (i, &a) in assignments.iter().enumerate() {
        members[a].push(i);
    }
    members
        .iter()
        .map(|m| SparseVector::from_pairs(m.iter().flat_map(|&i| vectors[i].iter())))
        .collect()
}

/// Unit-normalized centroid of each of `k` clusters under `assignments`
/// (an empty cluster's centroid is the zero vector).
pub(crate) fn centroids(
    vectors: &[SparseVector],
    assignments: &[usize],
    k: usize,
) -> Vec<SparseVector> {
    composites(vectors, assignments, k)
        .into_iter()
        .map(|c| c.normalized())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Object indices of cluster `c`.
    fn members(s: &ClusterSolution, c: usize) -> Vec<usize> {
        (0..s.len()).filter(|&i| s.assignment(i) == c).collect()
    }

    #[test]
    fn basic_accessors() {
        let s = ClusterSolution::new(vec![0, 1, 0, 1, 1], 2);
        assert_eq!(s.k(), 2);
        assert_eq!(s.len(), 5);
        assert_eq!(s.sizes(), vec![2, 3]);
        assert_eq!(members(&s, 0), vec![0, 2]);
        assert_eq!(s.assignment(4), 1);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn label_out_of_range_panics() {
        let _ = ClusterSolution::new(vec![0, 2], 2);
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn empty_cluster_panics() {
        let _ = ClusterSolution::new(vec![0, 0], 2);
    }

    #[test]
    fn composites_and_centroids() {
        let vs = vec![
            SparseVector::from_pairs([(0, 1.0)]),
            SparseVector::from_pairs([(0, 1.0)]),
            SparseVector::from_pairs([(1, 2.0)]),
        ];
        let s = ClusterSolution::new(vec![0, 0, 1], 2);
        let comps = s.composites(&vs);
        assert_eq!(comps[0].get(0), 2.0);
        assert_eq!(comps[1].get(1), 2.0);
        let cents = s.centroids(&vs);
        assert!((cents[0].norm() - 1.0).abs() < 1e-12);
        assert!((cents[1].norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_clusters_have_zero_composites_and_centroids() {
        let vs = vec![
            SparseVector::from_pairs([(0, 1.0e16), (3, 1.0)]),
            SparseVector::from_pairs([(0, -1.0e16)]),
            SparseVector::from_pairs([(0, 1.0)]),
        ];
        let comps = composites(&vs, &[2, 2, 2], 4);
        assert_eq!(comps.len(), 4);
        for c in [0, 1, 3] {
            assert!(comps[c].is_empty());
            assert_eq!(comps[c].norm().to_bits(), 0.0f64.to_bits());
        }
        // Object order: 1e16 − 1e16 + 1, not 1e16 + 1 − 1e16.
        assert_eq!(comps[2].entries(), &[(0, 1.0), (3, 1.0)]);
        let cents = centroids(&vs, &[2, 2, 2], 4);
        assert!(cents[0].is_empty() && cents[3].is_empty());
        assert!((cents[2].norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn densified_numbers_labels_by_first_appearance() {
        let s = ClusterSolution::densified(&[4, 4, 1, 0, 1, 4]);
        assert_eq!(s.assignments(), &[0, 0, 1, 2, 1, 0]);
        assert_eq!(s.k(), 3);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn composite_length_mismatch_panics() {
        let s = ClusterSolution::new(vec![0], 1);
        let _ = s.composites(&[]);
    }
}
