//! Weighted PageRank.

use crate::graph::Graph;

/// Damping factor.
const DAMPING: f64 = 0.85;
/// Convergence threshold on the L1 change per iteration.
const TOLERANCE: f64 = 1e-9;
/// Iteration cap.
const MAX_ITERATIONS: usize = 200;

/// Compute weighted PageRank scores (sum to 1 over nodes), damping 0.85,
/// until the L1 change per iteration falls below 1e-9 or after 200
/// iterations. The empty graph yields an empty vector. Isolated nodes
/// receive the teleport mass only.
pub fn pagerank(g: &Graph) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let nf = n as f64;
    let mut rank = vec![1.0 / nf; n];
    let mut next = vec![0.0; n];
    let wdeg: Vec<f64> = g.nodes().map(|v| g.weighted_degree(v)).collect();
    for _ in 0..MAX_ITERATIONS {
        let teleport = (1.0 - DAMPING) / nf;
        // Mass of dangling (isolated) nodes is redistributed uniformly.
        let dangling: f64 = (0..n).filter(|&i| wdeg[i] == 0.0).map(|i| rank[i]).sum();
        for x in next.iter_mut() {
            *x = teleport + DAMPING * dangling / nf;
        }
        for v in g.nodes() {
            if wdeg[v.index()] == 0.0 {
                continue;
            }
            let share = DAMPING * rank[v.index()] / wdeg[v.index()];
            for &(u, w) in g.neighbours(v) {
                next[u.index()] += share * w;
            }
        }
        let delta: f64 = rank
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < TOLERANCE {
            break;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::fixture;

    #[test]
    fn sums_to_one() {
        let g = fixture(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let r = pagerank(&g);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    fn hub_ranks_highest() {
        // Star: center 0 must dominate.
        let edges: Vec<_> = (1..6).map(|i| (0, i, 1.0)).collect();
        let r = pagerank(&fixture(6, &edges));
        for i in 1..6 {
            assert!(r[0] > r[i], "center {} leaf {}", r[0], r[i]);
        }
    }

    #[test]
    fn symmetric_graph_has_uniform_ranks() {
        // Cycle: all equal by symmetry.
        let edges: Vec<_> = (0..5u32).map(|i| (i, (i + 1) % 5, 1.0)).collect();
        let r = pagerank(&fixture(5, &edges));
        for w in r.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9);
        }
    }

    #[test]
    fn weights_bias_rank() {
        // Path 0-1, 1-2 where edge 1-2 is much heavier: 2 outranks 0.
        let g = fixture(3, &[(0, 1, 1.0), (1, 2, 10.0)]);
        let r = pagerank(&g);
        assert!(r[2] > r[0]);
    }

    #[test]
    fn empty_and_isolated() {
        assert!(pagerank(&fixture(0, &[])).is_empty());
        let g = fixture(3, &[]);
        let r = pagerank(&g);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!((r[0] - r[1]).abs() < 1e-12);
    }
}
