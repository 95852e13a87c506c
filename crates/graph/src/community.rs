//! Community detection: weighted label propagation, plus Newman
//! modularity for scoring partitions.
//!
//! The polysemy features include "number of communities in the term's
//! neighbourhood graph" — a polysemic term's ego network fragments into
//! one community per sense.

use crate::graph::Graph;

/// Weighted label propagation with deterministic tie-breaking (lowest
/// label wins; nodes scanned in id order). Returns dense community labels.
pub fn label_propagation(g: &Graph, max_rounds: usize) -> Vec<u32> {
    let n = g.node_count();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    // Labels are node ids, so a dense weight per label works; `touched`
    // lists the labels seen around the current node. Edge weights are
    // positive, so a weight of 0.0 means "not touched yet".
    let mut weight_by_label = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();
    for _ in 0..max_rounds {
        let mut changed = false;
        for v in g.nodes() {
            if g.degree(v) == 0 {
                continue;
            }
            for &(u, w) in g.neighbours(v) {
                let l = labels[u.index()];
                let acc = &mut weight_by_label[l as usize];
                if *acc == 0.0 {
                    touched.push(l);
                }
                *acc += w;
            }
            // Deterministic argmax: heaviest label, lowest id on ties
            // (the weights are finite, so the order of `touched` does not
            // matter).
            let mut best = labels[v.index()];
            let mut best_w = f64::NEG_INFINITY;
            for &l in &touched {
                let w = std::mem::take(&mut weight_by_label[l as usize]);
                if w > best_w || (w == best_w && l < best) {
                    best_w = w;
                    best = l;
                }
            }
            touched.clear();
            if best != labels[v.index()] {
                labels[v.index()] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    relabel_dense(&labels)
}

/// Renumber labels to a dense 0..k range preserving first-occurrence
/// order. Every label is below `labels.len()`.
fn relabel_dense(labels: &[u32]) -> Vec<u32> {
    let mut map = vec![u32::MAX; labels.len()];
    let mut next = 0u32;
    labels
        .iter()
        .map(|&l| {
            let slot = &mut map[l as usize];
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
            *slot
        })
        .collect()
}

/// Number of distinct communities in a labelling.
pub fn community_count(labels: &[u32]) -> usize {
    let mut set: Vec<u32> = labels.to_vec();
    set.sort_unstable();
    set.dedup();
    set.len()
}

/// Newman modularity of a partition on a weighted graph.
pub fn modularity(g: &Graph, labels: &[u32]) -> f64 {
    assert_eq!(labels.len(), g.node_count(), "label/node count mismatch");
    let m2 = 2.0 * g.total_weight();
    if m2 == 0.0 {
        return 0.0;
    }
    let mut q = 0.0;
    // Within-community weight term.
    for (a, b, w) in g.edges() {
        if labels[a.index()] == labels[b.index()] {
            q += 2.0 * w; // each undirected edge contributes twice in the sum over ordered pairs
        }
    }
    // Degree-product term per community.
    let k = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut deg_sum = vec![0.0; k];
    for v in g.nodes() {
        deg_sum[labels[v.index()] as usize] += g.weighted_degree(v);
    }
    let penalty: f64 = deg_sum.iter().map(|d| d * d).sum();
    (q - penalty / m2) / m2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::fixture;

    /// Two triangles joined by a single weak bridge.
    fn two_cliques() -> Graph {
        fixture(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
                (2, 3, 0.1),
            ],
        )
    }

    #[test]
    fn label_propagation_finds_two_communities() {
        let g = two_cliques();
        let labels = label_propagation(&g, 50);
        assert_eq!(community_count(&labels), 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn modularity_prefers_true_partition() {
        let g = two_cliques();
        let good = vec![0, 0, 0, 1, 1, 1];
        let bad = vec![0, 1, 0, 1, 0, 1];
        let all_one = vec![0, 0, 0, 0, 0, 0];
        assert!(modularity(&g, &good) > modularity(&g, &all_one));
        assert!(modularity(&g, &good) > modularity(&g, &bad));
        assert!(modularity(&g, &good) > 0.3);
    }

    #[test]
    fn modularity_of_single_community_is_near_zero() {
        let g = fixture(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let q = modularity(&g, &[0, 0, 0]);
        assert!(q.abs() < 1e-9, "q = {q}");
    }

    #[test]
    fn isolated_nodes_keep_own_labels() {
        let g = fixture(3, &[]);
        let labels = label_propagation(&g, 10);
        assert_eq!(community_count(&labels), 3);
    }

    #[test]
    fn empty_graph_modularity() {
        assert_eq!(modularity(&fixture(0, &[]), &[]), 0.0);
    }

    #[test]
    fn deterministic() {
        let g = two_cliques();
        assert_eq!(label_propagation(&g, 50), label_propagation(&g, 50));
    }
}
