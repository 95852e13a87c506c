//! Repeated bisection (`rb`) and its refined variant (`rbr`).
//!
//! CLUTO's `rb` grows a k-way solution by repeatedly 2-way splitting the
//! cluster whose split most improves the I2 criterion (we split the
//! cluster with the largest size × (1 − tightness) payoff, then keep the
//! split only if it helps). `rbr` runs the same process and then refines
//! the k-way result with spherical k-means iterations seeded from it.

use crate::kmeans;
use crate::solution::{self, ClusterSolution};
use boe_corpus::SparseVector;
use boe_rng::StdRng;

/// Repeated bisection into `k` clusters over unit vectors. With
/// `refine = true` this is `rbr`.
pub fn repeated_bisection(
    unit: &[SparseVector],
    k: usize,
    seed: u64,
    refine: bool,
) -> ClusterSolution {
    let n = unit.len();
    assert!(k >= 1 && k <= n);
    let mut assignments = vec![0usize; n];
    let mut current_k = 1usize;
    let mut rng = StdRng::seed_from_u64(seed);
    while current_k < k {
        // Pick the cluster to split: largest aggregate "looseness"
        // n_c × (1 − avg pairwise similarity); only clusters with ≥ 2
        // objects are splittable.
        let comps = solution::composites(unit, &assignments, current_k);
        let sizes = solution::sizes(&assignments, current_k);
        let mut target = None;
        let mut best_score = f64::NEG_INFINITY;
        for c in 0..current_k {
            if sizes[c] < 2 {
                continue;
            }
            let tightness = crate::similarity::avg_pairwise_from_composite(&comps[c], sizes[c]);
            let score = sizes[c] as f64 * (1.0 - tightness) + 1e-9 * sizes[c] as f64;
            if score > best_score {
                best_score = score;
                target = Some(c);
            }
        }
        let target = target.expect("k <= n guarantees a splittable cluster");
        // 2-means on the members of `target`.
        let members: Vec<usize> = (0..n).filter(|&i| assignments[i] == target).collect();
        let sub: Vec<SparseVector> = members.iter().map(|&i| unit[i].clone()).collect();
        let split = kmeans::spherical_kmeans(&sub, 2, rng.gen());
        let new_label = current_k;
        for (pos, &i) in members.iter().enumerate() {
            if split.assignment(pos) == 1 {
                assignments[i] = new_label;
            }
        }
        current_k += 1;
    }
    let rb = ClusterSolution::new(assignments, k);
    if refine {
        refine_kway(unit, rb)
    } else {
        rb
    }
}

/// k-way refinement: spherical k-means iterations seeded from `start`,
/// stopping at a fixed point or before a step that would empty a
/// cluster (rbr must keep k).
fn refine_kway(unit: &[SparseVector], start: ClusterSolution) -> ClusterSolution {
    let k = start.k();
    let mut assignments = start.assignments().to_vec();
    for _ in 0..50 {
        let next = kmeans::assign(unit, &solution::centroids(unit, &assignments, k));
        if next == assignments || solution::sizes(&next, k).contains(&0) {
            break;
        }
        assignments = next;
    }
    ClusterSolution::new(assignments, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(per: usize, k: usize) -> (Vec<SparseVector>, Vec<usize>) {
        let mut vs = Vec::new();
        let mut gold = Vec::new();
        for c in 0..k as u32 {
            for i in 0..per as u32 {
                let v = SparseVector::from_pairs([(c * 100, 10.0), (c * 100 + 1 + i, 1.0)]);
                vs.push(v.normalized());
                gold.push(c as usize);
            }
        }
        (vs, gold)
    }

    fn rand_index(a: &[usize], b: &[usize]) -> f64 {
        let n = a.len();
        let mut agree = 0;
        let mut total = 0;
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
    fn rb_recovers_blobs() {
        let (vs, gold) = blobs(7, 4);
        let sol = repeated_bisection(&vs, 4, 1, false);
        assert_eq!(sol.k(), 4);
        assert!(rand_index(sol.assignments(), &gold) > 0.95);
    }

    #[test]
    fn rbr_is_at_least_as_good_on_i2() {
        let (vs, _) = blobs(6, 3);
        let rb = repeated_bisection(&vs, 3, 2, false);
        let rbr = repeated_bisection(&vs, 3, 2, true);
        // CLUTO's I2 criterion, Σ ||composite||, which rb and rbr maximize.
        let i2 = |s: &ClusterSolution| {
            s.composites(&vs)
                .iter()
                .map(SparseVector::norm)
                .sum::<f64>()
        };
        assert!(i2(&rbr) >= i2(&rb) - 1e-9);
    }

    #[test]
    fn k_one_is_trivial() {
        let (vs, _) = blobs(3, 2);
        let sol = repeated_bisection(&vs, 1, 0, false);
        assert_eq!(sol.sizes(), vec![6]);
    }

    #[test]
    fn k_equals_n_singletons() {
        let (vs, _) = blobs(2, 2);
        let sol = repeated_bisection(&vs, 4, 0, true);
        assert_eq!(sol.sizes(), vec![1; 4]);
    }

    #[test]
    fn deterministic() {
        let (vs, _) = blobs(5, 3);
        let a = repeated_bisection(&vs, 3, 9, true);
        let b = repeated_bisection(&vs, 3, 9, true);
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn no_empty_clusters() {
        let (vs, _) = blobs(4, 3);
        for k in 1..=8 {
            let sol = repeated_bisection(&vs, k, 3, true);
            assert!(sol.sizes().iter().all(|&s| s > 0), "k = {k}");
        }
    }
}
