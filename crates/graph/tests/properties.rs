//! Property tests for the graph substrate.
//!
//! Driven by the workspace's own deterministic PRNG (no external
//! dependencies); each test sweeps seeded random graphs.

use boe_graph::community::{community_count, label_propagation, modularity};
use boe_graph::components::connected_components;
use boe_graph::kcore::core_numbers;
use boe_graph::metrics::{average_clustering, density, local_clustering};
use boe_graph::pagerank::pagerank;
use boe_graph::{Graph, NodeId};
use boe_rng::StdRng;

mod oracle;

const CASES: usize = 80;

fn rand_graph(rng: &mut StdRng) -> Graph {
    let n = rng.gen_range(2usize..14);
    let mut g = Graph::with_nodes(n);
    let edges = rng.gen_range(0usize..40);
    for _ in 0..edges {
        let a = rng.gen_range(0u32..14) % n as u32;
        let b = rng.gen_range(0u32..14) % n as u32;
        let w = 0.1 + rng.gen::<f64>() * 2.9;
        if a != b {
            g.add_edge(NodeId(a), NodeId(b), w);
        }
    }
    g
}

#[test]
fn pagerank_is_a_distribution() {
    let mut rng = StdRng::seed_from_u64(20);
    for _ in 0..CASES {
        let g = rand_graph(&mut rng);
        let r = pagerank(&g);
        assert_eq!(r.len(), g.node_count());
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        assert!(r.iter().all(|&x| x >= 0.0));
    }
}

/// Nodes reachable from `v` (breadth-first), as a membership vector.
fn reachable(g: &Graph, v: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.node_count()];
    seen[v.index()] = true;
    let mut queue = std::collections::VecDeque::from([v]);
    while let Some(x) = queue.pop_front() {
        for &(u, _) in g.neighbours(x) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                queue.push_back(u);
            }
        }
    }
    seen
}

#[test]
fn components_agree_with_bfs() {
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..CASES {
        let g = rand_graph(&mut rng);
        let comps = connected_components(&g);
        for v in g.nodes() {
            let reach = reachable(&g, v);
            for u in g.nodes() {
                let same_component = comps.labels[v.index()] == comps.labels[u.index()];
                assert_eq!(reach[u.index()], same_component);
            }
        }
        assert_eq!(comps.sizes().iter().sum::<usize>(), g.node_count());
    }
}

#[test]
fn core_numbers_bounded_by_degree() {
    let mut rng = StdRng::seed_from_u64(22);
    for _ in 0..CASES {
        let g = rand_graph(&mut rng);
        let cores = core_numbers(&g);
        for v in g.nodes() {
            assert!(cores[v.index()] as usize <= g.degree(v));
        }
    }
}

#[test]
fn clustering_and_density_in_unit_interval() {
    let mut rng = StdRng::seed_from_u64(24);
    for _ in 0..CASES {
        let g = rand_graph(&mut rng);
        assert!((0.0..=1.0).contains(&density(&g)));
        for v in g.nodes() {
            let c = local_clustering(&g, v);
            assert!((0.0..=1.0 + 1e-12).contains(&c));
        }
    }
}

#[test]
fn label_propagation_yields_valid_partition() {
    let mut rng = StdRng::seed_from_u64(25);
    for _ in 0..CASES {
        let g = rand_graph(&mut rng);
        let labels = label_propagation(&g, 30);
        assert_eq!(labels.len(), g.node_count());
        let k = community_count(&labels);
        assert!(k >= 1 && k <= g.node_count());
        // Modularity is bounded in [-1, 1].
        let q = modularity(&g, &labels);
        assert!((-1.0..=1.0).contains(&q), "q = {q}");
    }
}

#[test]
fn induced_subgraph_preserves_edge_weights() {
    let mut rng = StdRng::seed_from_u64(26);
    for _ in 0..CASES {
        let g = rand_graph(&mut rng);
        let keep: Vec<NodeId> = g.nodes().filter(|n| n.0 % 2 == 0).collect();
        let (sub, order) = g.induced_subgraph(&keep);
        assert_eq!(sub.node_count(), keep.len());
        for (new_a, &old_a) in order.iter().enumerate() {
            for (new_b, &old_b) in order.iter().enumerate().skip(new_a + 1) {
                assert_eq!(
                    sub.edge_weight(NodeId(new_a as u32), NodeId(new_b as u32)),
                    g.edge_weight(old_a, old_b)
                );
            }
        }
    }
}

/// A larger random graph whose weights come from a few values, so label
/// propagation meets weight ties and multi-round relabelling.
fn rand_tied_graph(rng: &mut StdRng) -> Graph {
    let n = rng.gen_range(1usize..60);
    let mut g = Graph::with_nodes(n);
    let edges = rng.gen_range(0usize..(4 * n));
    for _ in 0..edges {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        let w = [0.5, 1.0, 1.0, 2.0, 0.1 + rng.gen::<f64>()][rng.gen_range(0usize..5)];
        if a != b {
            g.add_edge(NodeId(a), NodeId(b), w);
        }
    }
    g
}

#[test]
fn clustering_matches_the_pair_probing_oracle_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(27);
    for case in 0..2 * CASES {
        let g = if case % 2 == 0 {
            rand_graph(&mut rng)
        } else {
            rand_tied_graph(&mut rng)
        };
        assert_eq!(
            average_clustering(&g).to_bits(),
            oracle::average_clustering(&g).to_bits()
        );
        for v in g.nodes() {
            assert_eq!(
                local_clustering(&g, v).to_bits(),
                oracle::local_clustering(&g, v).to_bits()
            );
            // The clustering coefficient is the density of the ego network.
            let ego: Vec<NodeId> = g.neighbours(v).iter().map(|&(u, _)| u).collect();
            let (sub, _) = g.induced_subgraph(&ego);
            assert_eq!(local_clustering(&g, v).to_bits(), density(&sub).to_bits());
        }
    }
}

#[test]
fn label_propagation_matches_the_hashmap_oracle() {
    let mut rng = StdRng::seed_from_u64(28);
    for case in 0..2 * CASES {
        let g = if case % 2 == 0 {
            rand_graph(&mut rng)
        } else {
            rand_tied_graph(&mut rng)
        };
        for rounds in [0, 1, 3, 20] {
            assert_eq!(
                label_propagation(&g, rounds),
                oracle::label_propagation(&g, rounds)
            );
        }
    }
}
