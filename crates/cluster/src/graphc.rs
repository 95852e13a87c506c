//! kNN-graph partitioning — the `graph` method.
//!
//! CLUTO's graph method clusters the kNN similarity graph of the objects
//! rather than the objects directly. We build the mutual-kNN graph with
//! cosine edge weights, read from the set's shared similarity matrix
//! (built once per [`UnitVectors`], not once per k), and agglomeratively
//! merge the cluster pair with the highest *average connecting edge
//! weight* until `k` clusters remain; disconnected leftovers merge last
//! by composite similarity.
//! Inter-cluster edge totals are maintained incrementally, so the whole
//! merge phase is O(n³) worst case (n ≤ a few hundred in Step III).

use crate::similarity::UnitVectors;
use crate::solution::ClusterSolution;
use boe_corpus::SparseVector;

/// Cluster unit vectors into `k` clusters via the kNN graph
/// (`neighbours` = list size per object).
pub fn knn_graph_partition(unit: &UnitVectors, k: usize, neighbours: usize) -> ClusterSolution {
    let n = unit.len();
    assert!(k >= 1 && k <= n);
    if k == n {
        return ClusterSolution::new((0..n).collect(), n);
    }
    let m = neighbours.min(n.saturating_sub(1)).max(1);
    // Per-object kNN lists in parallel over the shared matrix.
    let sim = unit.similarities();
    let knn: Vec<Vec<(usize, f64)>> = boe_par::par_map_indexed_min(n, 32, |i| {
        let mut sims: Vec<(usize, f64)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| (j, sim.get(i, j)))
            .collect();
        sims.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        sims.truncate(m);
        sims
    });
    // kNN edges (directed), symmetrized by union, as dense matrices of
    // inter-cluster edge weight totals and edge counts.
    let mut weight = vec![vec![0.0f64; n]; n];
    let mut count = vec![vec![0u32; n]; n];
    for (i, sims) in knn.iter().enumerate() {
        for &(j, s) in sims {
            if s > 0.0 && count[i][j] == 0 {
                weight[i][j] = s;
                weight[j][i] = s;
                count[i][j] = 1;
                count[j][i] = 1;
            }
        }
    }
    // Cluster state: representative index per object, composites for the
    // disconnected fallback.
    let mut active = vec![true; n];
    let mut label: Vec<usize> = (0..n).collect();
    let mut composites: Vec<SparseVector> = unit.vectors().to_vec();
    let mut clusters = n;
    while clusters > k {
        // Best connected pair by average edge weight.
        let mut best: Option<(usize, usize, f64)> = None;
        for a in 0..n {
            if !active[a] {
                continue;
            }
            for b in (a + 1)..n {
                if !active[b] || count[a][b] == 0 {
                    continue;
                }
                let score = weight[a][b] / f64::from(count[a][b]);
                if best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((a, b, score));
                }
            }
        }
        let (a, b) = match best {
            Some((a, b, _)) => (a, b),
            None => fallback_pair(&composites, &active),
        };
        // Merge b into a.
        for c in 0..n {
            if c == a || c == b || !active[c] {
                continue;
            }
            weight[a][c] += weight[b][c];
            weight[c][a] = weight[a][c];
            count[a][c] += count[b][c];
            count[c][a] = count[a][c];
        }
        let moved = std::mem::take(&mut composites[b]);
        composites[a].add_assign(&moved);
        active[b] = false;
        for l in label.iter_mut() {
            if *l == b {
                *l = a;
            }
        }
        clusters -= 1;
    }
    ClusterSolution::densified(&label)
}

/// When the kNN graph leaves clusters disconnected, merge the pair with
/// the most similar composites.
fn fallback_pair(composites: &[SparseVector], active: &[bool]) -> (usize, usize) {
    let reps: Vec<usize> = (0..active.len()).filter(|&i| active[i]).collect();
    let mut best = (reps[0], reps[1]);
    let mut best_s = f64::NEG_INFINITY;
    for (i, &a) in reps.iter().enumerate() {
        for &b in reps.iter().skip(i + 1) {
            let s = composites[a].cosine(&composites[b]);
            if s > best_s {
                best_s = s;
                best = (a, b);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn recovers_blobs() {
        let (vs, gold) = blobs(6, 3);
        let sol = knn_graph_partition(&vs, 3, 5);
        assert!(rand_index(sol.assignments(), &gold) > 0.95);
    }

    #[test]
    fn handles_disconnected_graph() {
        // Orthogonal singleton-ish blobs with tiny kNN lists still merge
        // down to k via the fallback.
        let (vs, _) = blobs(2, 4);
        let sol = knn_graph_partition(&vs, 2, 1);
        assert_eq!(sol.k(), 2);
        assert!(sol.sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn k_extremes() {
        let (vs, _) = blobs(3, 2);
        assert_eq!(knn_graph_partition(&vs, 1, 3).sizes(), vec![6]);
        assert_eq!(knn_graph_partition(&vs, 6, 3).sizes(), vec![1; 6]);
    }

    #[test]
    fn deterministic() {
        let (vs, _) = blobs(4, 3);
        let a = knn_graph_partition(&vs, 3, 4);
        let b = knn_graph_partition(&vs, 3, 4);
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn merge_bookkeeping_matches_bruteforce_on_mixed_data() {
        // Three loose topical groups with shared dimensions: the
        // incremental inter-cluster totals must keep producing valid
        // partitions (exact recovery not required, invariants are).
        let mut vs = Vec::new();
        for c in 0..3u32 {
            for i in 0..7u32 {
                vs.push(SparseVector::from_pairs([
                    (c * 10, 3.0),
                    (c * 10 + 1 + (i % 3), 1.0),
                    (99, 0.5), // shared background dimension
                ]));
            }
        }
        let vs = UnitVectors::new(&vs);
        for k in 1..=6 {
            let sol = knn_graph_partition(&vs, k, 6);
            assert_eq!(sol.k(), k);
            assert_eq!(sol.sizes().iter().sum::<usize>(), 21);
            assert!(sol.sizes().iter().all(|&s| s > 0));
        }
    }
}
