//! The 12 graph-based polysemy features.
//!
//! Computed from the word co-occurrence graph *induced from the corpus*
//! (paper §2(II): "extracted ... from a graph itself induced from the
//! text corpus"). The signal: a polysemic term's **ego network** splits
//! into one weakly-interconnected region per sense, so ego density and
//! clustering are low while the number of components/communities of the
//! ego graph (minus the term itself) is high.

use boe_corpus::stats::CoocCounts;
use boe_corpus::Corpus;
use boe_graph::builder::GraphBuilder;
use boe_graph::community::{community_count, label_propagation, modularity};
use boe_graph::components::connected_components;
use boe_graph::kcore::core_numbers;
use boe_graph::metrics::{average_clustering, density};
use boe_graph::pagerank::pagerank;
use boe_graph::{Graph, NodeId};
use boe_textkit::TokenId;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Names of the 12 graph features, index-aligned with [`graph_features`].
pub const GRAPH_FEATURE_NAMES: [&str; 12] = [
    "degree",
    "weighted_degree",
    "local_clustering",
    "ego_density",
    "ego_components",
    "ego_communities",
    "ego_modularity",
    "ego_average_clustering",
    "pagerank",
    "core_number",
    "mean_neighbour_degree",
    "two_hop_expansion",
];

/// The corpus-wide induced word graph plus cached global analyses,
/// shared across all terms being classified.
///
/// The 12 features are a property of a *word* (the head node), not of
/// the term: they are computed at most once per node and memoized. The
/// memo is `Sync`, so detector training and the per-term classification
/// fan-out share it; every entry is a pure function of the graph, so
/// which thread fills it does not matter.
#[derive(Debug)]
pub struct TermGraphContext {
    graph: Graph,
    node_of: HashMap<TokenId, NodeId>,
    pagerank: Vec<f64>,
    cores: Vec<u32>,
    memo: Vec<OnceLock<[f64; 12]>>,
}

impl TermGraphContext {
    /// Build the induced graph from windowed co-occurrence counts,
    /// keeping pairs with count ≥ `min_cooc`.
    pub fn build(corpus: &Corpus, cooc: &CoocCounts, min_cooc: u32) -> Self {
        let _ = corpus; // the corpus fixes the vocabulary the counts use
        let mut b = GraphBuilder::new();
        for ((a, bb), c) in cooc.iter_pairs() {
            if c >= min_cooc {
                b.add_edge(u64::from(a.0), u64::from(bb.0), f64::from(c));
            }
        }
        let (graph, keys) = b.build();
        let node_of = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (TokenId(k as u32), NodeId(i as u32)))
            .collect();
        let pr = pagerank(&graph);
        let cores = core_numbers(&graph);
        let memo = (0..graph.node_count()).map(|_| OnceLock::new()).collect();
        TermGraphContext {
            graph,
            node_of,
            pagerank: pr,
            cores,
            memo,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Node of a token, if it survived the co-occurrence threshold.
    pub fn node(&self, t: TokenId) -> Option<NodeId> {
        self.node_of.get(&t).copied()
    }

    /// The 12 features of node `v`, computed on first use.
    fn node_features(&self, v: NodeId) -> [f64; 12] {
        *self.memo[v.index()].get_or_init(|| self.compute(v))
    }

    /// The 12 features of node `v`, from its ego network.
    fn compute(&self, v: NodeId) -> [f64; 12] {
        let g = &self.graph;
        let degree = g.degree(v) as f64;
        let wdegree = g.weighted_degree(v);

        // Ego network minus the center: the sense-split signal. Its
        // density is v's local clustering coefficient (same closed-pair
        // count, same formula), so that feature costs nothing extra.
        let ego_nodes: Vec<NodeId> = g.neighbours(v).iter().map(|&(u, _)| u).collect();
        let (ego, _) = g.induced_subgraph(&ego_nodes);
        let ego_density = density(&ego);
        let lcc = ego_density;
        let comps = connected_components(&ego);
        let labels = label_propagation(&ego, 20);
        let n_comm = community_count(&labels) as f64;
        let q = modularity(&ego, &labels);
        let ego_avg_cc = average_clustering(&ego);

        let pr = self.pagerank[v.index()];
        let core = f64::from(self.cores[v.index()]);
        let (mean_nb_deg, two_hop) = if ego_nodes.is_empty() {
            (0.0, 0.0)
        } else {
            let n1 = ego_nodes.len() as f64;
            let mean = ego_nodes.iter().map(|&u| g.degree(u) as f64).sum::<f64>() / n1;
            // Two-hop expansion: |N2(v)| / |N1(v)| — polysemic hubs
            // reach more. `reached` marks v, its neighbours, and every
            // second-hop node once counted.
            let mut reached = vec![false; g.node_count()];
            reached[v.index()] = true;
            for &u in &ego_nodes {
                reached[u.index()] = true;
            }
            let mut n2 = 0usize;
            for &u in &ego_nodes {
                for &(w, _) in g.neighbours(u) {
                    if !reached[w.index()] {
                        reached[w.index()] = true;
                        n2 += 1;
                    }
                }
            }
            (mean, n2 as f64 / n1)
        };

        [
            degree,
            wdegree,
            lcc,
            ego_density,
            comps.count as f64,
            n_comm,
            q,
            ego_avg_cc,
            pr,
            core,
            mean_nb_deg,
            two_hop,
        ]
    }
}

/// Compute the 12 graph features of `phrase` (multi-word terms use the
/// component word with the highest degree — the lexical head dominates
/// the co-occurrence signal). Terms absent from the graph get all-zero
/// features. Features are memoized per head node in `ctx`.
pub fn graph_features(ctx: &TermGraphContext, phrase: &[TokenId]) -> [f64; 12] {
    // Representative node: component word with the highest degree.
    phrase
        .iter()
        .filter_map(|&t| ctx.node(t))
        .max_by_key(|&n| ctx.graph.degree(n))
        .map_or([0.0; 12], |v| ctx.node_features(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::corpus::CorpusBuilder;
    use boe_textkit::Language;

    fn setup(texts: &[&str]) -> (Corpus, TermGraphContext) {
        let mut b = CorpusBuilder::new(Language::English);
        for t in texts {
            b.add_text(t);
        }
        let c = b.build();
        let cc = CoocCounts::from_corpus(&c, 5);
        let ctx = TermGraphContext::build(&c, &cc, 1);
        (c, ctx)
    }

    #[test]
    fn polysemic_ego_network_fragments() {
        // "polyx" bridges two families that never co-occur directly;
        // "monox" sits in one triangle.
        let (c, ctx) = setup(&[
            "monox alpha beta.",
            "monox alpha beta.",
            "polyx gamma delta.",
            "polyx omega sigma.",
        ]);
        let polyx = c.vocab().get("polyx").expect("id");
        let monox = c.vocab().get("monox").expect("id");
        let f_poly = graph_features(&ctx, &[polyx]);
        let f_mono = graph_features(&ctx, &[monox]);
        // Ego components: polyx's ego (gamma-delta, omega-sigma) has 2;
        // monox's (alpha-beta) has 1.
        assert_eq!(f_poly[4], 2.0, "{f_poly:?}");
        assert_eq!(f_mono[4], 1.0, "{f_mono:?}");
        assert!(f_poly[5] >= f_mono[5], "communities");
        assert!(f_poly[0] > f_mono[0], "degree");
    }

    #[test]
    fn clustering_detects_tight_neighbourhood() {
        let (c, ctx) = setup(&[
            "monox alpha beta.",
            "monox alpha beta.",
            "alpha beta gamma.",
        ]);
        let monox = c.vocab().get("monox").expect("id");
        let f = graph_features(&ctx, &[monox]);
        // alpha and beta are connected ⇒ local clustering 1.0.
        assert!((f[2] - 1.0).abs() < 1e-12, "{f:?}");
    }

    #[test]
    fn absent_term_gets_zero_features() {
        let (c, ctx) = setup(&["alpha beta gamma."]);
        // A token that was filtered (stopword) or unseen has no node.
        let unseen = TokenId(9999);
        let f = graph_features(&ctx, &[unseen]);
        assert_eq!(f, [0.0; 12]);
        let _ = c;
    }

    #[test]
    fn multiword_uses_highest_degree_component() {
        let (c, ctx) = setup(&[
            "corneal injuries epithelium damage.",
            "corneal injuries membrane repair.",
            "corneal scarring tissue healing.",
        ]);
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        let f = graph_features(&ctx, &phrase);
        let corneal = c.vocab().get("corneal").expect("id");
        let f_head = graph_features(&ctx, &[corneal]);
        // "corneal" has the larger neighbourhood; the phrase should
        // inherit its features.
        assert_eq!(f[0], f_head[0]);
    }

    #[test]
    fn all_features_finite() {
        let (c, ctx) = setup(&[
            "corneal injuries epithelium damage.",
            "corneal injuries membrane repair.",
        ]);
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        let f = graph_features(&ctx, &phrase);
        assert!(f.iter().all(|v| v.is_finite()), "{f:?}");
    }
}
