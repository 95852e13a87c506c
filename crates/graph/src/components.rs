//! Connected components.

use crate::graph::Graph;

/// Component label per node (labels are dense, assigned in discovery
/// order) plus the number of components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Component label per node.
    pub labels: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

/// Compute connected components by iterative DFS.
pub fn connected_components(g: &Graph) -> Components {
    let n = g.node_count();
    let mut labels = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut stack = Vec::new();
    for start in g.nodes() {
        if labels[start.index()] != u32::MAX {
            continue;
        }
        labels[start.index()] = count;
        stack.push(start);
        while let Some(v) = stack.pop() {
            for &(u, _) in g.neighbours(v) {
                if labels[u.index()] == u32::MAX {
                    labels[u.index()] = count;
                    stack.push(u);
                }
            }
        }
        count += 1;
    }
    Components {
        labels,
        count: count as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::fixture;

    #[test]
    fn two_components() {
        let g = fixture(5, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
        let c = connected_components(&g);
        assert_eq!(c.count, 2);
        assert_eq!(c.labels[0], c.labels[2]);
        assert_ne!(c.labels[0], c.labels[3]);
        assert_eq!(c.labels, vec![0, 0, 0, 1, 1]);
    }

    #[test]
    fn isolated_nodes_are_singletons() {
        let g = fixture(3, &[]);
        let c = connected_components(&g);
        assert_eq!(c.count, 3);
        assert_eq!(c.labels, vec![0, 1, 2]);
    }

    #[test]
    fn empty_graph() {
        let c = connected_components(&fixture(0, &[]));
        assert_eq!(c.count, 0);
        assert!(c.labels.is_empty());
    }

    #[test]
    fn single_component_labels_are_zero() {
        let g = fixture(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let c = connected_components(&g);
        assert_eq!(c.count, 1);
        assert!(c.labels.iter().all(|&l| l == 0));
    }
}
