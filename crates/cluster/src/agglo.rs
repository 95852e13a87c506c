//! UPGMA agglomerative clustering — the `agglo` method.
//!
//! Average-linkage merging via Lance–Williams updates on a working copy
//! of the set's shared similarity matrix (the shared one stays intact
//! for the other ks and indexes): start from singletons, repeatedly
//! merge the most similar pair, stop at `k` clusters. O(n²) memory,
//! O(n³) worst-case time — fine for the context-set sizes of Step III
//! (hundreds of objects).

use crate::similarity::UnitVectors;
use crate::solution::ClusterSolution;

/// Cluster unit vectors into `k` clusters by UPGMA.
pub fn upgma(unit: &UnitVectors, k: usize) -> ClusterSolution {
    let n = unit.len();
    assert!(k >= 1 && k <= n);
    if k == n {
        return ClusterSolution::new((0..n).collect(), n);
    }
    let mut sim = unit.similarities().clone();
    let mut active: Vec<bool> = vec![true; n];
    let mut size: Vec<usize> = vec![1; n];
    // Union-find-ish: representative per original object.
    let mut rep: Vec<usize> = (0..n).collect();
    let mut clusters = n;
    while clusters > k {
        // Most similar active pair (lowest indices win ties).
        let mut best = None;
        let mut best_s = f64::NEG_INFINITY;
        for (i, &ai) in active.iter().enumerate() {
            if !ai {
                continue;
            }
            for (j, &aj) in active.iter().enumerate().skip(i + 1) {
                if !aj {
                    continue;
                }
                let s = sim.get(i, j);
                if s > best_s {
                    best_s = s;
                    best = Some((i, j));
                }
            }
        }
        let (a, b) = best.expect("clusters > k >= 1 implies a pair");
        // Lance–Williams average linkage: s(a∪b, x) =
        // (|a| s(a,x) + |b| s(b,x)) / (|a| + |b|).
        let (na, nb) = (size[a] as f64, size[b] as f64);
        for (x, &ax) in active.iter().enumerate() {
            if !ax || x == a || x == b {
                continue;
            }
            let merged = (na * sim.get(a, x) + nb * sim.get(b, x)) / (na + nb);
            sim.set_sym(a, x, merged);
        }
        active[b] = false;
        size[a] += size[b];
        for r in rep.iter_mut() {
            if *r == b {
                *r = a;
            }
        }
        clusters -= 1;
    }
    ClusterSolution::densified(&rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::SparseVector;

    fn blobs(per: usize, k: usize) -> (UnitVectors, Vec<usize>) {
        let mut vs = Vec::new();
        let mut gold = Vec::new();
        for c in 0..k as u32 {
            for i in 0..per as u32 {
                vs.push(SparseVector::from_pairs([
                    (c * 100, 10.0),
                    (c * 100 + 1 + i, 1.0),
                ]));
                gold.push(c as usize);
            }
        }
        (UnitVectors::new(&vs), gold)
    }

    fn rand_index(a: &[usize], b: &[usize]) -> f64 {
        let n = a.len();
        let (mut agree, mut total) = (0, 0);
        for i in 0..n {
            for j in (i + 1)..n {
                total += 1;
                if (a[i] == a[j]) == (b[i] == b[j]) {
                    agree += 1;
                }
            }
        }
        agree as f64 / total as f64
    }

    #[test]
    fn recovers_blobs_exactly() {
        let (vs, gold) = blobs(6, 3);
        let sol = upgma(&vs, 3);
        assert_eq!(rand_index(sol.assignments(), &gold), 1.0);
    }

    #[test]
    fn merge_order_is_similarity_driven() {
        // Two near-identical vectors and one orthogonal: k=2 must pair the
        // similar ones.
        let vs = UnitVectors::new(&[
            SparseVector::from_pairs([(0, 1.0), (1, 0.1)]),
            SparseVector::from_pairs([(0, 1.0), (2, 0.1)]),
            SparseVector::from_pairs([(9, 1.0)]),
        ]);
        let sol = upgma(&vs, 2);
        assert_eq!(sol.assignment(0), sol.assignment(1));
        assert_ne!(sol.assignment(0), sol.assignment(2));
    }

    #[test]
    fn k_one_merges_everything() {
        let (vs, _) = blobs(4, 2);
        let sol = upgma(&vs, 1);
        assert_eq!(sol.sizes(), vec![8]);
    }

    #[test]
    fn k_equals_n() {
        let (vs, _) = blobs(2, 2);
        let sol = upgma(&vs, 4);
        assert_eq!(sol.sizes(), vec![1; 4]);
    }

    #[test]
    fn deterministic() {
        let (vs, _) = blobs(5, 3);
        assert_eq!(upgma(&vs, 3).assignments(), upgma(&vs, 3).assignments());
    }

    #[test]
    fn labels_are_dense() {
        let (vs, _) = blobs(4, 3);
        let sol = upgma(&vs, 5);
        let mut labels: Vec<usize> = sol.assignments().to_vec();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels, vec![0, 1, 2, 3, 4]);
    }
}
