//! Spherical k-means — the `direct` method.
//!
//! Maximizes CLUTO's I2 criterion (`Σ_k ||composite_k||`) by alternating
//! cosine assignment and centroid renormalization, with farthest-first
//! seeding and deterministic tie-breaking.

use crate::solution::{self, ClusterSolution};
use boe_corpus::SparseVector;
use boe_rng::StdRng;

const MAX_ITERS: usize = 100;

/// Objects below which assignment stays serial (thread spawn ≫ work).
const PAR_ASSIGN_MIN: usize = 512;

/// Cluster unit-normalized `vectors` into `k` clusters.
///
/// Callers reach this through [`crate::Algorithm::cluster`], which
/// documents and enforces `1 <= k <= n`; out-of-range `k` is clamped
/// here so the invariant degrades instead of panicking.
pub fn spherical_kmeans(unit: &[SparseVector], k: usize, seed: u64) -> ClusterSolution {
    let n = unit.len();
    debug_assert!(k >= 1 && k <= n, "k = {k} out of range for n = {n}");
    let k = k.clamp(1, n.max(1));
    if k == 1 {
        return ClusterSolution::new(vec![0; n], 1);
    }
    if k == n {
        return ClusterSolution::new((0..n).collect(), n);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centroids = farthest_first_seeds(unit, k, &mut rng);
    let mut assignments = vec![usize::MAX; n];
    for _ in 0..MAX_ITERS {
        let new_assignments = assign(unit, &centroids);
        if new_assignments == assignments {
            break;
        }
        assignments = new_assignments;
        centroids = solution::centroids(unit, &assignments, k);
        repair_empty_clusters(unit, &mut assignments, &mut centroids, k);
    }
    repair_empty_clusters(unit, &mut assignments, &mut centroids, k);
    ClusterSolution::new(assignments, k)
}

/// Farthest-first (k-means++ greedy flavour) seeding.
fn farthest_first_seeds(unit: &[SparseVector], k: usize, rng: &mut StdRng) -> Vec<SparseVector> {
    let n = unit.len();
    let first = rng.gen_range(0..n);
    let mut seeds = vec![unit[first].clone()];
    // max similarity of each object to the chosen seeds.
    let mut max_sim: Vec<f64> = unit.iter().map(|v| v.dot(&seeds[0])).collect();
    while seeds.len() < k {
        // Pick the object least similar to all current seeds.
        let (mut best_i, mut best_s) = (0usize, f64::INFINITY);
        for (i, &s) in max_sim.iter().enumerate() {
            if s < best_s {
                best_s = s;
                best_i = i;
            }
        }
        let newest = unit[best_i].clone();
        for (i, v) in unit.iter().enumerate() {
            let s = v.dot(&newest);
            if s > max_sim[i] {
                max_sim[i] = s;
            }
        }
        seeds.push(newest);
    }
    seeds
}

/// Assign each object to its most similar centroid (lowest index wins
/// ties). Each object's choice is independent, so the loop is spread
/// across threads for large collections (results are in input order and
/// identical to the serial scan; below the threshold no threads spawn —
/// Step-III context sets are usually small and a spawn would cost more
/// than the dots).
pub(crate) fn assign(unit: &[SparseVector], centroids: &[SparseVector]) -> Vec<usize> {
    boe_par::par_map_min(unit, PAR_ASSIGN_MIN, |v| {
        let mut best = 0usize;
        let mut best_s = f64::NEG_INFINITY;
        for (c, cent) in centroids.iter().enumerate() {
            let s = v.dot(cent);
            if s > best_s {
                best_s = s;
                best = c;
            }
        }
        best
    })
}

/// Give each empty cluster the object least similar to its current
/// centroid (stealing from clusters of size ≥ 2).
fn repair_empty_clusters(
    unit: &[SparseVector],
    assignments: &mut [usize],
    centroids: &mut [SparseVector],
    k: usize,
) {
    loop {
        let sizes = solution::sizes(assignments, k);
        let Some(empty) = sizes.iter().position(|&s| s == 0) else {
            return;
        };
        // Steal the worst-fitting object from a multi-object cluster.
        let mut worst: Option<(usize, f64)> = None;
        for (i, v) in unit.iter().enumerate() {
            if sizes[assignments[i]] < 2 {
                continue;
            }
            let s = v.dot(&centroids[assignments[i]]);
            if worst.is_none_or(|(_, ws)| s < ws) {
                worst = Some((i, s));
            }
        }
        // `k <= n` guarantees a donor cluster of size >= 2 whenever some
        // cluster is empty; bail gracefully if that invariant is broken
        // upstream rather than panicking mid-repair.
        let Some((steal, _)) = worst else {
            return;
        };
        assignments[steal] = empty;
        centroids.clone_from_slice(&solution::centroids(unit, assignments, k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three tight orthogonal blobs of unit vectors.
    fn blobs(per: usize) -> (Vec<SparseVector>, Vec<usize>) {
        let mut vs = Vec::new();
        let mut gold = Vec::new();
        for c in 0..3u32 {
            for i in 0..per as u32 {
                // Dominant dimension per blob + small member-specific dim.
                let v = SparseVector::from_pairs([(c * 100, 10.0), (c * 100 + 1 + i, 1.0)]);
                vs.push(v.normalized());
                gold.push(c as usize);
            }
        }
        (vs, gold)
    }

    /// Fraction of pairs on which two labelings agree (Rand index).
    fn rand_index(a: &[usize], b: &[usize]) -> f64 {
        let n = a.len();
        let mut agree = 0usize;
        let mut total = 0usize;
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
    fn recovers_orthogonal_blobs() {
        let (vs, gold) = blobs(8);
        let sol = spherical_kmeans(&vs, 3, 1);
        assert_eq!(sol.k(), 3);
        assert!(rand_index(sol.assignments(), &gold) > 0.99);
    }

    #[test]
    fn deterministic_per_seed() {
        let (vs, _) = blobs(6);
        let a = spherical_kmeans(&vs, 3, 5);
        let b = spherical_kmeans(&vs, 3, 5);
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn k_equals_one_and_n() {
        let (vs, _) = blobs(2);
        let one = spherical_kmeans(&vs, 1, 0);
        assert_eq!(one.sizes(), vec![6]);
        let all = spherical_kmeans(&vs, 6, 0);
        assert_eq!(all.sizes(), vec![1; 6]);
    }

    #[test]
    fn no_empty_clusters_ever() {
        let (vs, _) = blobs(4);
        for k in 1..=vs.len() {
            let sol = spherical_kmeans(&vs, k, 3);
            assert!(sol.sizes().iter().all(|&s| s > 0), "k = {k}");
        }
    }

    #[test]
    fn identical_vectors_still_partition() {
        let vs: Vec<SparseVector> = (0..5)
            .map(|_| SparseVector::from_pairs([(0, 1.0)]))
            .collect();
        let sol = spherical_kmeans(&vs, 3, 7);
        assert_eq!(sol.k(), 3);
        assert!(sol.sizes().iter().all(|&s| s > 0));
    }
}
