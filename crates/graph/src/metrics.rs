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

/// Local clustering coefficient of one node: the fraction of its
/// neighbour pairs that are themselves connected. 0 for degree < 2.
///
/// Bit-identical to [`density`] of the node's ego network (the subgraph
/// induced by its neighbours): both put the same closed-pair count
/// through the same formula.
pub fn local_clustering(g: &Graph, v: NodeId) -> f64 {
    let mut mark = vec![false; g.node_count()];
    clustering_with(g, v, &mut mark)
}

/// Average local clustering coefficient over all nodes (0 for the empty
/// graph).
pub fn average_clustering(g: &Graph) -> f64 {
    if g.node_count() == 0 {
        return 0.0;
    }
    let mut mark = vec![false; g.node_count()];
    g.nodes()
        .map(|v| clustering_with(g, v, &mut mark))
        .sum::<f64>()
        / g.node_count() as f64
}

/// [`local_clustering`] with a caller-owned all-`false` mark array,
/// returned all-`false`. Counts each closed neighbour pair `{u, w}`
/// once, from `u < w`, in O(Σ deg(u)) over the neighbours `u` of `v`.
fn clustering_with(g: &Graph, v: NodeId, mark: &mut [bool]) -> f64 {
    let nbs = g.neighbours(v);
    let d = nbs.len();
    if d < 2 {
        return 0.0;
    }
    for &(u, _) in nbs {
        mark[u.index()] = true;
    }
    let mut closed = 0usize;
    for &(u, _) in nbs {
        closed += g
            .neighbours(u)
            .iter()
            .filter(|&&(w, _)| u < w && mark[w.index()])
            .count();
    }
    for &(u, _) in nbs {
        mark[u.index()] = false;
    }
    2.0 * closed as f64 / (d * (d - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1-2 triangle, 3 hanging off 0.
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        g.add_edge(NodeId(0), NodeId(3), 1.0);
        g
    }

    #[test]
    fn density_triangle() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0);
        g.add_edge(NodeId(1), NodeId(2), 1.0);
        g.add_edge(NodeId(0), NodeId(2), 1.0);
        assert!((density(&g) - 1.0).abs() < 1e-12);
        assert_eq!(density(&Graph::with_nodes(1)), 0.0);
        assert_eq!(density(&Graph::new()), 0.0);
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
    fn average_clustering_mixes() {
        let g = triangle_plus_tail();
        let avg = average_clustering(&g);
        let expected = (1.0 / 3.0 + 1.0 + 1.0 + 0.0) / 4.0;
        assert!((avg - expected).abs() < 1e-12);
        assert_eq!(average_clustering(&Graph::new()), 0.0);
    }

    #[test]
    fn star_has_zero_clustering() {
        let mut g = Graph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(NodeId(0), NodeId(i), 1.0);
        }
        assert_eq!(local_clustering(&g, NodeId(0)), 0.0);
        assert_eq!(average_clustering(&g), 0.0);
    }
}
