//! The core undirected weighted graph.

use std::fmt;

/// Dense node identifier within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An immutable undirected weighted graph in compressed sparse row
/// form: node `a`'s neighbours are `adj[offsets[a]..offsets[a + 1]]`.
///
/// Invariants:
/// * no self-loops and at most one edge per node pair;
/// * every edge is stored once in each endpoint's row, with the same
///   weight;
/// * each row is sorted by neighbour id.
#[derive(Debug, Clone)]
pub struct Graph {
    offsets: Vec<usize>,
    adj: Vec<(NodeId, f64)>,
}

impl Graph {
    /// The graph on `node_count` nodes with the undirected edges
    /// `(a, b, w)`, given once each, in any order and orientation.
    ///
    /// Rows are filled in edge order, so edges sorted by
    /// `(min(a, b), max(a, b))` leave every row sorted; any other row is
    /// sorted once here.
    ///
    /// # Panics
    /// Panics on more than `u32::MAX` nodes, a self-loop, an
    /// out-of-range node, a non-positive weight or a node pair given
    /// twice.
    pub fn from_edges(node_count: usize, edges: &[(NodeId, NodeId, f64)]) -> Graph {
        assert!(
            u32::try_from(node_count).is_ok(),
            "more than u32::MAX nodes"
        );
        let mut offsets = vec![0usize; node_count + 1];
        for &(a, b, w) in edges {
            assert!(a != b, "self-loop {a}");
            assert!(w > 0.0, "edge weight must be positive, got {w}");
            assert!(
                a.index() < node_count && b.index() < node_count,
                "edge {a}—{b} out of range for {node_count} nodes"
            );
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for i in 0..node_count {
            offsets[i + 1] += offsets[i];
        }
        let mut adj = vec![(NodeId(0), 0.0); offsets[node_count]];
        let mut next = offsets.clone();
        for &(a, b, w) in edges {
            adj[next[a.index()]] = (b, w);
            next[a.index()] += 1;
            adj[next[b.index()]] = (a, w);
            next[b.index()] += 1;
        }
        for r in offsets.windows(2) {
            let row = &mut adj[r[0]..r[1]];
            if !row.windows(2).all(|p| p[0].0 < p[1].0) {
                row.sort_unstable_by_key(|&(n, _)| n);
                assert!(
                    row.windows(2).all(|p| p[0].0 != p[1].0),
                    "node pair given twice"
                );
            }
        }
        Graph { offsets, adj }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// Iterate node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Neighbours of `a` with edge weights, sorted by neighbour id.
    pub fn neighbours(&self, a: NodeId) -> &[(NodeId, f64)] {
        &self.adj[self.offsets[a.index()]..self.offsets[a.index() + 1]]
    }

    /// Degree (number of incident edges).
    pub fn degree(&self, a: NodeId) -> usize {
        self.offsets[a.index() + 1] - self.offsets[a.index()]
    }

    /// Sum of incident edge weights.
    pub fn weighted_degree(&self, a: NodeId) -> f64 {
        self.neighbours(a).iter().map(|(_, w)| w).sum()
    }

    /// Weight of edge `a—b`, or `None` if absent.
    pub fn edge_weight(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let list = self.neighbours(a);
        list.binary_search_by_key(&b, |(n, _)| *n)
            .ok()
            .map(|i| list[i].1)
    }

    /// Whether edge `a—b` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.edge_weight(a, b).is_some()
    }

    /// Total edge weight (each edge counted once).
    pub fn total_weight(&self) -> f64 {
        self.adj.iter().map(|(_, w)| w).sum::<f64>() / 2.0
    }

    /// Iterate edges `(a, b, w)` once each with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes().flat_map(move |a| {
            self.neighbours(a)
                .iter()
                .filter(move |(b, _)| a < *b)
                .map(move |&(b, w)| (a, b, w))
        })
    }

    /// The subgraph induced by `nodes`; returns the subgraph and the
    /// mapping from new ids to old ids (new ids are dense, in the order
    /// given).
    ///
    /// # Panics
    /// Panics if `nodes` contains duplicates or out-of-range ids.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        const OUT: u32 = u32::MAX;
        let mut map = vec![OUT; self.node_count()];
        for (new, &old) in nodes.iter().enumerate() {
            assert!(
                map[old.index()] == OUT,
                "duplicate node {old} in induced_subgraph"
            );
            map[old.index()] = new as u32;
        }
        let mut edges = Vec::new();
        for (a, &old) in nodes.iter().enumerate() {
            let a = a as u32;
            for &(nb, w) in self.neighbours(old) {
                let b = map[nb.index()];
                if b != OUT && a < b {
                    edges.push((NodeId(a), NodeId(b), w));
                }
            }
        }
        (Graph::from_edges(nodes.len(), &edges), nodes.to_vec())
    }
}

/// Fixture shorthand for the crate's unit tests: [`Graph::from_edges`]
/// over plain `u32` ids.
#[cfg(test)]
pub(crate) fn fixture(node_count: usize, edges: &[(u32, u32, f64)]) -> Graph {
    let edges: Vec<_> = edges
        .iter()
        .map(|&(a, b, w)| (NodeId(a), NodeId(b), w))
        .collect();
    Graph::from_edges(node_count, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        fixture(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert!((g.weighted_degree(NodeId(0)) - 4.0).abs() < 1e-12);
        assert!((g.total_weight() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn edge_weight_and_symmetry() {
        let g = triangle();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(2)), Some(3.0));
        assert_eq!(g.edge_weight(NodeId(2), NodeId(0)), Some(3.0));
        assert!(!g.has_edge(NodeId(0), NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "given twice")]
    fn repeated_pair_panics() {
        fixture(2, &[(0, 1, 1.0), (1, 0, 2.5)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        fixture(1, &[(0, 0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_weight_panics() {
        fixture(2, &[(0, 1, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        fixture(2, &[(0, 2, 1.0)]);
    }

    #[test]
    fn edges_iterator_visits_each_once() {
        let g = triangle();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), 3);
        assert!(es.iter().all(|(a, b, _)| a < b));
    }

    #[test]
    fn adjacency_is_sorted() {
        let g = fixture(4, &[(0, 3, 1.0), (0, 1, 1.0), (0, 2, 1.0)]);
        let nbs: Vec<u32> = g.neighbours(NodeId(0)).iter().map(|(n, _)| n.0).collect();
        assert_eq!(nbs, vec![1, 2, 3]);
    }

    #[test]
    fn isolated_nodes_and_the_empty_graph() {
        let g = fixture(2, &[]);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert!(g.neighbours(NodeId(1)).is_empty());
        assert_eq!(fixture(0, &[]).node_count(), 0);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = triangle();
        let (sub, order) = g.induced_subgraph(&[NodeId(0), NodeId(2)]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(sub.edge_weight(NodeId(0), NodeId(1)), Some(3.0));
        assert_eq!(order, vec![NodeId(0), NodeId(2)]);
    }
}
