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
use boe_graph::community::{community_count, label_propagation, modularity};
use boe_graph::components::connected_components;
use boe_graph::kcore::core_numbers;
use boe_graph::metrics::{average_clustering, density};
use boe_graph::pagerank::pagerank;
use boe_graph::{Graph, NodeId};
use boe_textkit::TokenId;
use std::cmp::Reverse;
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

/// `node_of` entry of a token without a node.
const NO_NODE: u32 = u32::MAX;

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
    /// Node of each token id; [`NO_NODE`] for a token without one.
    node_of: Vec<u32>,
    pagerank: Vec<f64>,
    cores: Vec<u32>,
    memo: Vec<OnceLock<[f64; 12]>>,
}

impl TermGraphContext {
    /// Build the induced graph from `corpus`'s windowed co-occurrence
    /// counts, keeping pairs with count ≥ `min_cooc`. Nodes are numbered
    /// in order of first appearance in the sorted pair list.
    pub fn build(corpus: &Corpus, cooc: &CoocCounts, min_cooc: u32) -> Self {
        let mut node_of = vec![NO_NODE; corpus.vocab().len()];
        let mut nodes = 0u32;
        let mut node = |t: TokenId| {
            let slot = &mut node_of[t.index()];
            if *slot == NO_NODE {
                *slot = nodes;
                nodes += 1;
            }
            NodeId(*slot)
        };
        let edges: Vec<_> = cooc
            .iter_pairs()
            .into_iter()
            .filter(|&(_, c)| c >= min_cooc)
            .map(|((a, b), c)| (node(a), node(b), f64::from(c)))
            .collect();
        let graph = Graph::from_edges(nodes as usize, &edges);
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
        match self.node_of.get(t.index()) {
            Some(&n) if n != NO_NODE => Some(NodeId(n)),
            _ => None,
        }
    }

    /// The node [`graph_features`] analyses for `phrase`: its word of
    /// highest degree (the last of equals), if any word has a node.
    fn head(&self, phrase: &[TokenId]) -> Option<NodeId> {
        phrase
            .iter()
            .filter_map(|&t| self.node(t))
            .max_by_key(|&n| self.graph.degree(n))
    }

    /// The distinct heads of `phrases`, costliest first: by degree
    /// descending, then by id.
    pub(crate) fn heads<'p>(&self, phrases: impl Iterator<Item = &'p [TokenId]>) -> Vec<NodeId> {
        let mut heads: Vec<NodeId> = phrases.filter_map(|p| self.head(p)).collect();
        heads.sort_unstable_by_key(|&v| (Reverse(self.graph.degree(v)), v));
        heads.dedup();
        heads
    }

    /// The 12 features of node `v`, computed on first use.
    pub(crate) fn node_features(&self, v: NodeId) -> [f64; 12] {
        *self.memo[v.index()].get_or_init(|| self.compute(v))
    }

    /// The 12 features of node `v`, from its ego network.
    fn compute(&self, v: NodeId) -> [f64; 12] {
        /// `local` entry of a node not reached yet.
        const UNSEEN: u32 = u32::MAX;
        /// `local` entry of `v` and of each second-hop node once counted.
        const REACHED: u32 = u32::MAX - 1;
        let g = &self.graph;
        let nbs = g.neighbours(v);
        let degree = nbs.len() as f64;
        let wdegree = g.weighted_degree(v);

        // One walk over the neighbours' rows. Ego ids follow neighbour
        // order, so the ego edges (ego network minus the center: the
        // sense-split signal) come out sorted, and `from_edges` lays
        // them out without sorting a row. The same walk counts the
        // two-hop expansion |N2(v)| / |N1(v)| (polysemic hubs reach more)
        // and sums the neighbour degrees in neighbour order.
        let mut local = vec![UNSEEN; g.node_count()];
        local[v.index()] = REACHED;
        for (i, &(u, _)) in nbs.iter().enumerate() {
            local[u.index()] = i as u32;
        }
        let mut ego_edges = Vec::new();
        let mut n2 = 0usize;
        let mut degree_sum = 0.0;
        for (i, &(u, _)) in nbs.iter().enumerate() {
            let row = g.neighbours(u);
            degree_sum += row.len() as f64;
            for &(w, weight) in row {
                match local[w.index()] {
                    UNSEEN => {
                        local[w.index()] = REACHED;
                        n2 += 1;
                    }
                    REACHED => {}
                    j if j > i as u32 => ego_edges.push((NodeId(i as u32), NodeId(j), weight)),
                    _ => {}
                }
            }
        }
        let ego = Graph::from_edges(nbs.len(), &ego_edges);

        // The ego density is v's local clustering coefficient (same
        // closed-pair count, same formula), so that feature costs nothing
        // extra.
        let ego_density = density(&ego);
        let lcc = ego_density;
        let comps = connected_components(&ego);
        let labels = label_propagation(&ego, 20);
        let n_comm = community_count(&labels) as f64;
        let q = modularity(&ego, &labels);
        let ego_avg_cc = average_clustering(&ego);

        let pr = self.pagerank[v.index()];
        let core = f64::from(self.cores[v.index()]);
        let (mean_nb_deg, two_hop) = if nbs.is_empty() {
            (0.0, 0.0)
        } else {
            let n1 = nbs.len() as f64;
            (degree_sum / n1, n2 as f64 / n1)
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
    ctx.head(phrase).map_or([0.0; 12], |v| ctx.node_features(v))
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
