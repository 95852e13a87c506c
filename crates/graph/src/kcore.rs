//! k-core decomposition.
//!
//! The core number of a candidate term's node is one of the graph-based
//! polysemy features: hub terms that survive deep cores connect several
//! topical regions.

use crate::graph::Graph;

/// Core number per node (Batagelj–Zaveršnik peeling, O(m)).
pub fn core_numbers(g: &Graph) -> Vec<u32> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);
    // Bucket sort nodes by degree.
    let mut bins = vec![0usize; max_deg + 2];
    for &d in &degree {
        bins[d] += 1;
    }
    let mut start = 0usize;
    for b in bins.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut pos = vec![0usize; n];
    let mut order = vec![0usize; n];
    {
        let mut next = bins.clone();
        for v in 0..n {
            let d = degree[v];
            pos[v] = next[d];
            order[pos[v]] = v;
            next[d] += 1;
        }
    }
    let mut core = vec![0u32; n];
    for i in 0..n {
        let v = order[i];
        core[v] = degree[v] as u32;
        for &(u, _) in g.neighbours(crate::graph::NodeId(v as u32)) {
            let u = u.index();
            if degree[u] > degree[v] {
                // Move u one bucket down: swap it with the first node of
                // its current bucket.
                let du = degree[u];
                let pu = pos[u];
                let pw = bins[du];
                let w = order[pw];
                if u != w {
                    order[pu] = w;
                    order[pw] = u;
                    pos[u] = pw;
                    pos[w] = pu;
                }
                bins[du] += 1;
                degree[u] -= 1;
            }
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::fixture;

    #[test]
    fn triangle_with_tail() {
        // Triangle 0-1-2 (core 2), tail 3 (core 1), isolated 4 (core 0).
        let g = fixture(5, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)]);
        let core = core_numbers(&g);
        assert_eq!(core, vec![2, 2, 2, 1, 0]);
    }

    #[test]
    fn clique_core_equals_size_minus_one() {
        let k = 5;
        let mut edges = Vec::new();
        for i in 0..k as u32 {
            for j in (i + 1)..k as u32 {
                edges.push((i, j, 1.0));
            }
        }
        let core = core_numbers(&fixture(k, &edges));
        assert!(core.iter().all(|&c| c == (k as u32 - 1)));
    }

    #[test]
    fn path_has_core_one() {
        let g = fixture(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        assert!(core_numbers(&g).iter().all(|&c| c == 1));
    }

    #[test]
    fn empty_graph() {
        assert!(core_numbers(&fixture(0, &[])).is_empty());
    }
}
