//! Local and global graph metrics.
//!
//! These are raw material for the 12 graph-based polysemy features: a
//! polysemic term's neighbourhood splits into weakly-connected regions, so
//! its local clustering coefficient is low and its degree high relative to
//! its community structure.

use crate::graph::{Graph, NodeId};

/// Edge density: `2m / (n(n-1))`; 0 for graphs with fewer than 2 nodes.
pub fn density(g: &Graph) -> f64 {
    let n = g.node_count() as f64;
    if n < 2.0 {
        return 0.0;
    }
    2.0 * g.edge_count() as f64 / (n * (n - 1.0))
}

/// Average local clustering coefficient over all nodes (0 for the empty
/// graph). Node `v`'s coefficient, the fraction of its neighbour pairs
/// that are themselves connected, is `2 t(v) / (d (d - 1))` for the
/// `t(v)` triangles through it (0 for degree `d < 2`); the coefficients
/// are summed in node order.
pub fn average_clustering(g: &Graph) -> f64 {
    if g.node_count() == 0 {
        return 0.0;
    }
    let triangles = triangle_counts(g);
    g.nodes()
        .map(|v| {
            let d = g.degree(v);
            if d < 2 {
                0.0
            } else {
                2.0 * triangles[v.index()] as f64 / (d * (d - 1)) as f64
            }
        })
        .sum::<f64>()
        / g.node_count() as f64
}

/// The number of triangles through each node. Each triangle `u < w < x`
/// is found once, from `u`: mark `u`'s higher neighbours, then scan the
/// higher part of each marked `w`'s row for marked `x`.
fn triangle_counts(g: &Graph) -> Vec<usize> {
    // Where each (sorted) row's higher neighbours start.
    let higher_from: Vec<usize> = g
        .nodes()
        .map(|a| g.neighbours(a).partition_point(|&(b, _)| b < a))
        .collect();
    let higher = |a: NodeId| &g.neighbours(a)[higher_from[a.index()]..];
    let mut triangles = vec![0usize; g.node_count()];
    let mut mark = vec![false; g.node_count()];
    for u in g.nodes() {
        for &(w, _) in higher(u) {
            mark[w.index()] = true;
        }
        for &(w, _) in higher(u) {
            for &(x, _) in higher(w) {
                if mark[x.index()] {
                    triangles[u.index()] += 1;
                    triangles[w.index()] += 1;
                    triangles[x.index()] += 1;
                }
            }
        }
        for &(w, _) in higher(u) {
            mark[w.index()] = false;
        }
    }
    triangles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::fixture;

    fn triangle_plus_tail() -> Graph {
        // 0-1-2 triangle, 3 hanging off 0.
        fixture(4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    }

    /// The local clustering coefficient of `v`: the density of its ego
    /// network.
    fn local_clustering(g: &Graph, v: NodeId) -> f64 {
        let ego: Vec<NodeId> = g.neighbours(v).iter().map(|&(u, _)| u).collect();
        density(&g.induced_subgraph(&ego).0)
    }

    #[test]
    fn density_triangle() {
        let g = fixture(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        assert!((density(&g) - 1.0).abs() < 1e-12);
        assert_eq!(density(&fixture(1, &[])), 0.0);
        assert_eq!(density(&fixture(0, &[])), 0.0);
    }

    #[test]
    fn local_clustering_values() {
        let g = triangle_plus_tail();
        // Node 0 has neighbours {1,2,3}; only pair (1,2) is closed: 1/3.
        assert!((local_clustering(&g, NodeId(0)) - 1.0 / 3.0).abs() < 1e-12);
        // Node 1 has neighbours {0,2}, closed: 1.
        assert!((local_clustering(&g, NodeId(1)) - 1.0).abs() < 1e-12);
        // Leaf node: 0.
        assert_eq!(local_clustering(&g, NodeId(3)), 0.0);
    }

    #[test]
    fn triangles_through_each_node() {
        let g = triangle_plus_tail();
        assert_eq!(triangle_counts(&g), vec![1, 1, 1, 0]);
        let k4 = fixture(
            4,
            &[
                (0, 1, 1.0),
                (0, 2, 1.0),
                (0, 3, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
            ],
        );
        assert_eq!(triangle_counts(&k4), vec![3; 4]);
    }

    #[test]
    fn average_clustering_mixes() {
        let g = triangle_plus_tail();
        let avg = average_clustering(&g);
        let expected = (1.0 / 3.0 + 1.0 + 1.0 + 0.0) / 4.0;
        assert!((avg - expected).abs() < 1e-12);
        assert_eq!(average_clustering(&fixture(0, &[])), 0.0);
    }

    #[test]
    fn star_has_zero_clustering() {
        let g = fixture(5, &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)]);
        assert_eq!(local_clustering(&g, NodeId(0)), 0.0);
        assert_eq!(average_clustering(&g), 0.0);
    }
}
