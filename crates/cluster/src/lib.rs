//! # boe-cluster
//!
//! Clustering substrate — the from-scratch replacement for the CLUTO
//! toolkit the paper uses in Step III (sense induction). Every method
//! and index takes one [`UnitVectors`] set: a term's contexts,
//! normalized when the set is built, whose similarity matrix is built at
//! most once however many ks, methods and indexes read it.
//!
//! * [`solution`] — cluster assignments with invariant checking, and the
//!   per-cluster sizes, composites, centroids and label densification
//!   every method shares;
//! * [`similarity`] — [`UnitVectors`], its lazily built cosine matrix,
//!   and composite-vector identities;
//! * [`kmeans`] — `direct`: spherical k-means on the I2 criterion (its
//!   assignment step also refines `rbr`);
//! * [`bisect`] — `rb` (repeated bisection) and `rbr` (rb + k-way
//!   refinement);
//! * [`agglo`] — `agglo`: UPGMA agglomerative clustering;
//! * [`graphc`] — `graph`: kNN-graph based agglomerative partitioning;
//! * [`isim`] — CLUTO's ISIM/ESIM cluster statistics;
//! * [`indexes`] — the paper's five new internal indexes a_k, b_k, c_k,
//!   e_k, f_k (Table 2) plus silhouette / Calinski–Harabasz baselines;
//! * [`external`] — external indexes (purity, NMI, adjusted Rand) for
//!   gold-labelled sanity checks;
//! * [`kpredict`] — sense-number prediction: the one k sweep (cluster
//!   once per k ∈ \[2,5\]) and the one best-k rule every caller shares;
//! * [`features`] — top features per cluster (concept labelling).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agglo;
pub mod bisect;
pub mod external;
pub mod features;
pub mod graphc;
pub mod indexes;
pub mod isim;
pub mod kmeans;
pub mod kpredict;
pub mod similarity;
pub mod solution;

pub use indexes::InternalIndex;
pub use kpredict::KSweep;
pub use similarity::UnitVectors;
pub use solution::ClusterSolution;

/// The five clustering methods the paper selects by their CLUTO names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Repeated bisection.
    Rb,
    /// Repeated bisection followed by k-way refinement.
    Rbr,
    /// Direct k-way spherical k-means.
    Direct,
    /// UPGMA agglomerative.
    Agglo,
    /// kNN-graph based partitioning.
    Graph,
}

impl Algorithm {
    /// All algorithms in the paper's order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Rb,
        Algorithm::Rbr,
        Algorithm::Direct,
        Algorithm::Agglo,
        Algorithm::Graph,
    ];

    /// The CLUTO method name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Rb => "rb",
            Algorithm::Rbr => "rbr",
            Algorithm::Direct => "direct",
            Algorithm::Agglo => "agglo",
            Algorithm::Graph => "graph",
        }
    }

    /// Cluster `unit` into `k` clusters. Build the [`UnitVectors`] once
    /// per set of contexts and reuse it for every k, every method and
    /// every index: `agglo` and `graph` read its similarity matrix,
    /// which is built on first use only.
    ///
    /// ```
    /// use boe_cluster::{Algorithm, UnitVectors};
    /// use boe_corpus::SparseVector;
    ///
    /// let docs = vec![
    ///     SparseVector::from_pairs([(0, 1.0)]),
    ///     SparseVector::from_pairs([(0, 1.0), (1, 0.1)]),
    ///     SparseVector::from_pairs([(9, 1.0)]),
    ///     SparseVector::from_pairs([(9, 1.0), (8, 0.1)]),
    /// ];
    /// let unit = UnitVectors::new(&docs);
    /// let solution = Algorithm::Direct.cluster(&unit, 2, 42);
    /// assert_eq!(solution.assignment(0), solution.assignment(1));
    /// assert_ne!(solution.assignment(0), solution.assignment(2));
    /// ```
    ///
    /// # Panics
    /// Panics if `k == 0` or `k > unit.len()`.
    pub fn cluster(self, unit: &UnitVectors, k: usize, seed: u64) -> ClusterSolution {
        assert!(k >= 1, "k must be positive");
        assert!(
            k <= unit.len(),
            "k = {k} exceeds object count {}",
            unit.len()
        );
        let vectors = unit.vectors();
        match self {
            Algorithm::Rb => bisect::repeated_bisection(vectors, k, seed, false),
            Algorithm::Rbr => bisect::repeated_bisection(vectors, k, seed, true),
            Algorithm::Direct => kmeans::spherical_kmeans(vectors, k, seed),
            Algorithm::Agglo => agglo::upgma(unit, k),
            Algorithm::Graph => graphc::knn_graph_partition(unit, k, 10),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_cluto_names() {
        let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["rb", "rbr", "direct", "agglo", "graph"]);
    }

    #[test]
    #[should_panic(expected = "exceeds object count")]
    fn k_larger_than_n_panics() {
        let v = UnitVectors::new(&[boe_corpus::SparseVector::from_pairs([(0, 1.0)])]);
        let _ = Algorithm::Direct.cluster(&v, 2, 0);
    }
}
