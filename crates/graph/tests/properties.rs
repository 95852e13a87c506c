//! Property tests for the graph substrate.
//!
//! Driven by the workspace's own deterministic PRNG (no external
//! dependencies); each test sweeps seeded random graphs.

use boe_graph::community::{community_count, label_propagation, modularity};
use boe_graph::components::connected_components;
use boe_graph::kcore::core_numbers;
use boe_graph::metrics::{average_clustering, density};
use boe_graph::pagerank::pagerank;
use boe_graph::{Graph, NodeId};
use boe_rng::StdRng;

mod oracle;

const CASES: usize = 80;

/// Random `(a, b, w)` draws on `n` nodes; repeated pairs and self-loops
/// included.
fn rand_draws(rng: &mut StdRng) -> (usize, Vec<(u32, u32, f64)>) {
    let n = rng.gen_range(2usize..14);
    let edges = rng.gen_range(0usize..40);
    let draws = (0..edges)
        .map(|_| {
            let a = rng.gen_range(0u32..14) % n as u32;
            let b = rng.gen_range(0u32..14) % n as u32;
            (a, b, 0.1 + rng.gen::<f64>() * 2.9)
        })
        .collect();
    (n, draws)
}

/// A random graph: the draws merged per pair by the oracle.
fn rand_graph(rng: &mut StdRng) -> Graph {
    let (n, draws) = rand_draws(rng);
    Graph::from_edges(n, &oracle::accumulate_by_pair(&draws))
}

/// `items` in a random order (Fisher–Yates).
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Every row as `(neighbour, weight bits)`.
fn rows(g: &Graph) -> Vec<Vec<(u32, u64)>> {
    g.nodes()
        .map(|v| {
            g.neighbours(v)
                .iter()
                .map(|&(u, w)| (u.0, w.to_bits()))
                .collect()
        })
        .collect()
}

#[test]
fn constructor_builds_sorted_symmetric_rows_from_any_edge_order() {
    let mut rng = StdRng::seed_from_u64(19);
    for _ in 0..CASES {
        let (n, draws) = rand_draws(&mut rng);
        let edges = oracle::accumulate_by_pair(&draws);
        let g = Graph::from_edges(n, &edges);
        assert_eq!(g.node_count(), n);
        assert_eq!(g.edge_count(), edges.len());
        for v in g.nodes() {
            let row = g.neighbours(v);
            assert!(row.windows(2).all(|p| p[0].0 < p[1].0), "row {v} unsorted");
            for &(u, w) in row {
                assert_eq!(g.edge_weight(u, v).map(f64::to_bits), Some(w.to_bits()));
            }
        }
        for &(a, b, w) in &edges {
            assert_eq!(g.edge_weight(a, b).map(f64::to_bits), Some(w.to_bits()));
            assert_eq!(g.edge_weight(b, a).map(f64::to_bits), Some(w.to_bits()));
        }
        // Order and orientation of the input do not matter.
        let mut scrambled = edges.clone();
        shuffle(&mut rng, &mut scrambled);
        for e in &mut scrambled {
            if rng.gen_bool(0.5) {
                *e = (e.1, e.0, e.2);
            }
        }
        assert_eq!(rows(&Graph::from_edges(n, &scrambled)), rows(&g));
    }
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
        // Labels are dense, in discovery order: node order.
        assert_eq!(comps.labels.len(), g.node_count());
        let mut first_seen = Vec::new();
        for &l in &comps.labels {
            if !first_seen.contains(&l) {
                first_seen.push(l);
            }
        }
        assert_eq!(first_seen, (0..comps.count as u32).collect::<Vec<_>>());
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
            let c = oracle::local_clustering(&g, v);
            assert!((0.0..=1.0 + 1e-12).contains(&c));
        }
        assert!((0.0..=1.0 + 1e-12).contains(&average_clustering(&g)));
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
    for case in 0..2 * CASES {
        let g = rand_graph(&mut rng);
        let mut keep: Vec<NodeId> = g.nodes().filter(|n| n.0 % 2 == 0).collect();
        if case % 2 == 1 {
            // New ids then follow a random order of the old ones.
            keep = g.nodes().filter(|_| rng.gen_bool(0.6)).collect();
            shuffle(&mut rng, &mut keep);
        }
        let (sub, order) = g.induced_subgraph(&keep);
        assert_eq!(sub.node_count(), keep.len());
        assert_eq!(order, keep);
        let mut pairs = 0;
        for (new_a, &old_a) in order.iter().enumerate() {
            for (new_b, &old_b) in order.iter().enumerate() {
                let (a, b) = (NodeId(new_a as u32), NodeId(new_b as u32));
                // Pair probing in the parent graph is the reference.
                let want = if new_a == new_b {
                    None
                } else {
                    g.edge_weight(old_a, old_b)
                };
                assert_eq!(
                    sub.edge_weight(a, b).map(f64::to_bits),
                    want.map(f64::to_bits)
                );
                pairs += usize::from(want.is_some() && new_a < new_b);
            }
            let row = sub.neighbours(NodeId(new_a as u32));
            assert!(row.windows(2).all(|p| p[0].0 < p[1].0));
        }
        assert_eq!(sub.edge_count(), pairs);
    }
}

/// A larger random graph whose weights come from a few values, so label
/// propagation meets weight ties and multi-round relabelling.
fn rand_tied_graph(rng: &mut StdRng) -> Graph {
    let n = rng.gen_range(1usize..60);
    let edges = rng.gen_range(0usize..(4 * n));
    let draws: Vec<_> = (0..edges)
        .map(|_| {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            let w = [0.5, 1.0, 1.0, 2.0, 0.1 + rng.gen::<f64>()][rng.gen_range(0usize..5)];
            (a, b, w)
        })
        .collect();
    Graph::from_edges(n, &oracle::accumulate_by_pair(&draws))
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
            // The clustering coefficient is the density of the ego
            // network: Step II reads it from there.
            let ego: Vec<NodeId> = g.neighbours(v).iter().map(|&(u, _)| u).collect();
            let (sub, _) = g.induced_subgraph(&ego);
            assert_eq!(
                density(&sub).to_bits(),
                oracle::local_clustering(&g, v).to_bits()
            );
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
