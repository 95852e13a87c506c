//! Reference implementations the graph kernels must reproduce bit for
//! bit: per-pair weight accumulation, the straightforward pair-probing
//! clustering coefficient and the `HashMap`-accumulating label
//! propagation. Shared by the graph property tests and the root
//! `graph_features_oracle` suite.

#![allow(dead_code)]

use boe_graph::{Graph, NodeId};

/// Accumulate-by-pair reference: drawn `(a, b, w)` edges merged per
/// unordered node pair, each weight summed in draw order (`w1 + w2 +
/// ...`); self-loops are dropped. Returns one `(min, max, weight)` edge
/// per pair, in order of the pair's first draw.
pub fn accumulate_by_pair(draws: &[(u32, u32, f64)]) -> Vec<(NodeId, NodeId, f64)> {
    let mut slot: std::collections::HashMap<(u32, u32), usize> = std::collections::HashMap::new();
    let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for &(a, b, w) in draws {
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        match slot.get(&key) {
            Some(&i) => edges[i].2 += w,
            None => {
                slot.insert(key, edges.len());
                edges.push((NodeId(key.0), NodeId(key.1), w));
            }
        }
    }
    edges
}

/// Local clustering coefficient by probing every neighbour pair.
pub fn local_clustering(g: &Graph, v: NodeId) -> f64 {
    let nbs = g.neighbours(v);
    let d = nbs.len();
    if d < 2 {
        return 0.0;
    }
    let mut closed = 0usize;
    for i in 0..d {
        for j in (i + 1)..d {
            if g.has_edge(nbs[i].0, nbs[j].0) {
                closed += 1;
            }
        }
    }
    2.0 * closed as f64 / (d * (d - 1)) as f64
}

/// Average of [`local_clustering`] over all nodes, in id order.
pub fn average_clustering(g: &Graph) -> f64 {
    if g.node_count() == 0 {
        return 0.0;
    }
    g.nodes().map(|v| local_clustering(g, v)).sum::<f64>() / g.node_count() as f64
}

/// Weighted label propagation accumulating label weights in a `HashMap`
/// (lowest label wins ties; nodes scanned in id order).
pub fn label_propagation(g: &Graph, max_rounds: usize) -> Vec<u32> {
    let n = g.node_count();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut weight_by_label: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    for _ in 0..max_rounds {
        let mut changed = false;
        for v in g.nodes() {
            if g.degree(v) == 0 {
                continue;
            }
            weight_by_label.clear();
            for &(u, w) in g.neighbours(v) {
                *weight_by_label.entry(labels[u.index()]).or_insert(0.0) += w;
            }
            let mut best = labels[v.index()];
            let mut best_w = f64::NEG_INFINITY;
            let mut keys: Vec<u32> = weight_by_label.keys().copied().collect();
            keys.sort_unstable();
            for l in keys {
                let w = weight_by_label[&l];
                if w > best_w {
                    best_w = w;
                    best = l;
                }
            }
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

fn relabel_dense(labels: &[u32]) -> Vec<u32> {
    let mut map = std::collections::HashMap::new();
    let mut next = 0u32;
    labels
        .iter()
        .map(|&l| {
            *map.entry(l).or_insert_with(|| {
                let v = next;
                next += 1;
                v
            })
        })
        .collect()
}
