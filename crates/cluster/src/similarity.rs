//! Similarity helpers over unit-normalized vectors.
//!
//! For unit vectors, cosine reduces to the dot product, and sums of
//! pairwise similarities reduce to composite-vector norms:
//! `Σ_{x,y ∈ S} x·y = ||Σ_{x∈S} x||²` — the identity CLUTO's criterion
//! functions and ISIM/ESIM exploit. Every function here assumes unit
//! inputs (callers of [`crate::Algorithm::cluster`] normalize once).

use boe_corpus::SparseVector;

/// A dense symmetric similarity matrix in one flat row-major buffer —
/// one allocation instead of `n` heap rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SimMatrix {
    /// An n×n matrix of zeros.
    pub fn zeros(n: usize) -> Self {
        SimMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Set entry `(i, j)` (one triangle only; use [`Self::set_sym`] to
    /// keep the matrix symmetric).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Set entries `(i, j)` and `(j, i)`.
    #[inline]
    pub fn set_sym(&mut self, i: usize, j: usize, v: f64) {
        self.set(i, j, v);
        self.set(j, i, v);
    }
}

/// Full pairwise cosine matrix (n×n, symmetric, diagonal = 1 for nonzero
/// vectors). The upper triangle is computed in parallel with one item
/// per row: row `i` holds `n-1-i` cells, so the heavy rows come first in
/// `boe-par`'s in-order claims and the light tail balances the workers.
/// Every entry is an independent dot product, so the matrix is
/// bit-identical at any thread count.
pub fn similarity_matrix(unit: &[SparseVector]) -> SimMatrix {
    let n = unit.len();
    let rows: Vec<Vec<f64>> =
        boe_par::par_map_indexed(n, |i| ((i + 1)..n).map(|j| unit[i].dot(&unit[j])).collect());
    let mut m = SimMatrix::zeros(n);
    for (i, (u, row)) in unit.iter().zip(&rows).enumerate() {
        m.set(i, i, if u.is_empty() { 0.0 } else { 1.0 });
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

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let vs = vec![
            unit(&[(0, 1.0)]),
            unit(&[(0, 1.0), (1, 1.0)]),
            unit(&[(1, 1.0)]),
        ];
        let m = similarity_matrix(&vs);
        for i in 0..vs.len() {
            assert!((m.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..vs.len() {
                assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-12);
            }
        }
        assert!(m.get(0, 1) > 0.0 && m.get(0, 2).abs() < 1e-12);
    }

    #[test]
    fn matrix_is_identical_at_any_thread_count() {
        let vs: Vec<SparseVector> = (0..40u32)
            .map(|i| unit(&[(i % 7, 1.0 + f64::from(i)), (i % 3, 0.5)]))
            .collect();
        boe_par::set_threads(Some(1));
        let serial = similarity_matrix(&vs);
        boe_par::set_threads(Some(8));
        let parallel = similarity_matrix(&vs);
        boe_par::set_threads(None);
        assert_eq!(serial, parallel, "bit-identical across thread counts");
    }

    #[test]
    fn zero_vector_has_zero_diagonal() {
        let vs = vec![unit(&[(0, 1.0)]), SparseVector::new()];
        let m = similarity_matrix(&vs);
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
