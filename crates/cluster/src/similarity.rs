//! Unit vectors and the similarity helpers over them.
//!
//! [`UnitVectors`] is the one input every clustering method and index
//! takes: a term's contexts, normalized when the set is built, with
//! their pairwise similarity matrix built lazily, at most once per set,
//! the first time `agglo`, `graph` or silhouette asks for it. Every k of
//! a [`crate::KSweep`] and every index reads the same matrix.
//!
//! For unit vectors, cosine reduces to the dot product, and sums of
//! pairwise similarities reduce to composite-vector norms:
//! `Σ_{x,y ∈ S} x·y = ||Σ_{x∈S} x||²` — the identity CLUTO's criterion
//! functions and ISIM/ESIM exploit. Every function here assumes unit
//! inputs.

use boe_corpus::SparseVector;
use std::sync::OnceLock;

/// A set of contexts on the unit sphere, normalized once when built,
/// with its similarity matrix built on first use and shared after.
#[derive(Debug)]
pub struct UnitVectors {
    vectors: Vec<SparseVector>,
    sim: OnceLock<SimMatrix>,
}

impl UnitVectors {
    /// Normalize each of `contexts` (an empty vector stays empty).
    pub fn new<'a>(contexts: impl IntoIterator<Item = &'a SparseVector>) -> Self {
        UnitVectors {
            vectors: contexts.into_iter().map(SparseVector::normalized).collect(),
            sim: OnceLock::new(),
        }
    }

    /// The unit vectors, in the order they were given.
    pub fn vectors(&self) -> &[SparseVector] {
        &self.vectors
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the set holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The pairwise cosine matrix (see [`SimMatrix`]), built on the
    /// first call and returned from then on.
    pub fn similarities(&self) -> &SimMatrix {
        self.sim.get_or_init(|| similarity_matrix(&self.vectors))
    }
}

/// A dense symmetric similarity matrix in one flat row-major buffer —
/// one allocation instead of `n` heap rows. Built only by
/// [`UnitVectors::similarities`]: n×n, symmetric, diagonal 1 for nonzero
/// vectors and 0 for empty ones.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SimMatrix {
    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Set entries `(i, j)` and `(j, i)` (UPGMA's working copy).
    #[inline]
    pub(crate) fn set_sym(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }
}

/// Full pairwise cosine matrix. The upper triangle is computed in
/// parallel with one item per row: row `i` holds `n-1-i` cells, so the
/// heavy rows come first in `boe-par`'s in-order claims and the light
/// tail balances the workers. Every entry is an independent dot
/// product, so the matrix is bit-identical at any thread count.
fn similarity_matrix(unit: &[SparseVector]) -> SimMatrix {
    let n = unit.len();
    let rows: Vec<Vec<f64>> =
        boe_par::par_map_indexed(n, |i| ((i + 1)..n).map(|j| unit[i].dot(&unit[j])).collect());
    let mut m = SimMatrix {
        n,
        data: vec![0.0; n * n],
    };
    for (i, (u, row)) in unit.iter().zip(&rows).enumerate() {
        m.data[i * n + i] = if u.is_empty() { 0.0 } else { 1.0 };
        for (j, &v) in ((i + 1)..n).zip(row) {
            m.set_sym(i, j, v);
        }
    }
    m
}

/// Average pairwise similarity among all *ordered distinct* pairs in a
/// set given its composite vector and size; 1.0 for singletons by
/// convention (a single object is perfectly self-similar).
pub fn avg_pairwise_from_composite(composite: &SparseVector, n: usize) -> f64 {
    assert!(n >= 1, "empty cluster");
    if n == 1 {
        return 1.0;
    }
    let sq = composite.dot(composite);
    // ||Σx||² = n (unit self-sims) + Σ_{i≠j} x_i·x_j.
    ((sq - n as f64) / (n as f64 * (n as f64 - 1.0))).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().copied()).normalized()
    }

    /// CLUTO's I2 criterion of a partition, `Σ_k ||composite_k||` (what
    /// `direct`, `rb` and `rbr` maximize).
    fn i2(composites: &[SparseVector]) -> f64 {
        composites.iter().map(SparseVector::norm).sum()
    }

    fn raw(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn vectors_are_normalized_once_when_built() {
        let contexts = vec![raw(&[(0, 3.0), (1, 4.0)]), SparseVector::new()];
        let unit = UnitVectors::new(&contexts);
        assert_eq!(unit.len(), 2);
        assert_eq!(unit.vectors()[0], contexts[0].normalized());
        assert!(unit.vectors()[1].is_empty(), "an empty context stays empty");
    }

    #[test]
    fn matrix_is_built_at_most_once() {
        let unit = UnitVectors::new(&[raw(&[(0, 1.0)]), raw(&[(0, 1.0), (1, 1.0)])]);
        assert!(unit.sim.get().is_none(), "not built until asked for");
        let first: *const SimMatrix = unit.similarities();
        assert!(
            std::ptr::eq(first, unit.similarities()),
            "built once, then shared"
        );
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let contexts = [
            raw(&[(0, 1.0)]),
            raw(&[(0, 1.0), (1, 1.0)]),
            raw(&[(1, 1.0)]),
        ];
        let unit = UnitVectors::new(&contexts);
        let m = unit.similarities();
        for i in 0..unit.len() {
            assert!((m.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..unit.len() {
                assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-12);
            }
            for j in (i + 1)..unit.len() {
                let dot = unit.vectors()[i].dot(&unit.vectors()[j]);
                assert_eq!(m.get(i, j).to_bits(), dot.to_bits(), "({i}, {j})");
            }
        }
        assert!(m.get(0, 1) > 0.0 && m.get(0, 2).abs() < 1e-12);
    }

    #[test]
    fn matrix_is_identical_at_any_thread_count() {
        let contexts: Vec<SparseVector> = (0..40u32)
            .map(|i| raw(&[(i % 7, 1.0 + f64::from(i)), (i % 3, 0.5)]))
            .collect();
        boe_par::set_threads(Some(1));
        let serial = UnitVectors::new(&contexts).similarities().clone();
        boe_par::set_threads(Some(8));
        let parallel = UnitVectors::new(&contexts).similarities().clone();
        boe_par::set_threads(None);
        assert_eq!(serial, parallel, "bit-identical across thread counts");
    }

    #[test]
    fn zero_vector_has_zero_diagonal() {
        let unit = UnitVectors::new(&[raw(&[(0, 1.0)]), SparseVector::new()]);
        let m = unit.similarities();
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn composite_identity_matches_direct_sum() {
        let vs = vec![
            unit(&[(0, 1.0)]),
            unit(&[(0, 1.0), (1, 1.0)]),
            unit(&[(1, 1.0)]),
        ];
        let composite = SparseVector::sum_of(&vs);
        let avg = avg_pairwise_from_composite(&composite, 3);
        // Direct computation.
        let mut total = 0.0;
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    total += vs[i].dot(&vs[j]);
                }
            }
        }
        assert!((avg - total / 6.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_avg_is_one() {
        let v = unit(&[(0, 2.0)]);
        assert_eq!(avg_pairwise_from_composite(&v, 1), 1.0);
    }

    #[test]
    fn i2_of_tight_clusters_exceeds_split() {
        let a = vec![unit(&[(0, 1.0)]), unit(&[(0, 1.0)])];
        let b = vec![unit(&[(1, 1.0)]), unit(&[(1, 1.0)])];
        let good = [SparseVector::sum_of(&a), SparseVector::sum_of(&b)];
        let mixed = [
            SparseVector::sum_of(&[a[0].clone(), b[0].clone()]),
            SparseVector::sum_of(&[a[1].clone(), b[1].clone()]),
        ];
        assert!(i2(&good) > i2(&mixed));
    }
}
