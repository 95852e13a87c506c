//! Step II graph features against the pair-probing reference: the
//! memoized per-head-node kernels must reproduce the straightforward
//! implementation (pair-probing clustering, `HashMap` label propagation,
//! `HashSet` two-hop count) bit for bit, on EN/FR/ES worlds.
//!
//! * all 12 graph features of every vocabulary token, with the memo cold
//!   (first lookup of each node) and warm (every node already cached);
//! * the full 23-feature row of every ontology term found in the corpus
//!   (resolved as the pipeline resolves it, accented surfaces included),
//!   built on `boe-par` at 1 and 8 threads so the memo is filled
//!   concurrently;
//! * the word graph itself against the keyed-builder route it replaced
//!   (`HashMap` interning, sorted-insert adjacency): same node per token,
//!   same rows. The feature checks above read both sides off the same
//!   graph, so a node renumbering would pass them while moving the
//!   label-propagation and modularity bits.
//!
//! The thread-count override is process-global, so only one test here
//! changes it; the other never runs parallel code.

use bio_onto_enrich::corpus::stats::CoocCounts;
use bio_onto_enrich::corpus::{Corpus, OccurrenceIndex};
use bio_onto_enrich::eval::world::{World, WorldConfig};
use bio_onto_enrich::graph::community::{community_count, modularity};
use bio_onto_enrich::graph::components::connected_components;
use bio_onto_enrich::graph::kcore::core_numbers;
use bio_onto_enrich::graph::metrics::density;
use bio_onto_enrich::graph::pagerank::pagerank;
use bio_onto_enrich::graph::NodeId;
use bio_onto_enrich::par as boe_par;
use bio_onto_enrich::textkit::{Language, TokenId};
use bio_onto_enrich::workflow::linkage::terms_in_corpus;
use bio_onto_enrich::workflow::polysemy::detector::FeatureContext;
use bio_onto_enrich::workflow::polysemy::{direct_features, graph_features, TermGraphContext};
use std::collections::HashMap;

#[path = "../crates/graph/tests/oracle/mod.rs"]
mod oracle;

/// The graph features as first written: every feature recomputed per
/// call, clustering by probing neighbour pairs, the two-hop set built
/// with `HashSet` plus `Vec::contains`.
fn oracle_graph_features(
    ctx: &TermGraphContext,
    pr_all: &[f64],
    cores: &[u32],
    phrase: &[TokenId],
) -> [f64; 12] {
    let g = ctx.graph();
    let node = phrase
        .iter()
        .filter_map(|&t| ctx.node(t))
        .max_by_key(|&n| g.degree(n));
    let Some(v) = node else {
        return [0.0; 12];
    };
    let degree = g.degree(v) as f64;
    let wdegree = g.weighted_degree(v);
    let lcc = oracle::local_clustering(g, v);

    let ego_nodes: Vec<NodeId> = g.neighbours(v).iter().map(|&(u, _)| u).collect();
    let (ego, _) = g.induced_subgraph(&ego_nodes);
    let ego_density = density(&ego);
    let comps = connected_components(&ego);
    let labels = oracle::label_propagation(&ego, 20);
    let n_comm = community_count(&labels) as f64;
    let q = modularity(&ego, &labels);
    let ego_avg_cc = oracle::average_clustering(&ego);

    let pr = pr_all[v.index()];
    let core = f64::from(cores[v.index()]);
    let mean_nb_deg = if ego_nodes.is_empty() {
        0.0
    } else {
        ego_nodes.iter().map(|&u| g.degree(u) as f64).sum::<f64>() / ego_nodes.len() as f64
    };
    let two_hop = {
        let mut seen: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
        for &u in &ego_nodes {
            for &(w, _) in g.neighbours(u) {
                if w != v && !ego_nodes.contains(&w) {
                    seen.insert(w);
                }
            }
        }
        if ego_nodes.is_empty() {
            0.0
        } else {
            seen.len() as f64 / ego_nodes.len() as f64
        }
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

/// One adjacency list per node, sorted by neighbour id.
type Adjacency = Vec<Vec<(NodeId, f64)>>;

/// The word graph as the keyed builder made it: tokens interned through
/// a `HashMap` on first appearance over `iter_pairs`, each kept pair
/// sorted-inserted into both endpoints' adjacency lists.
fn builder_route(cooc: &CoocCounts, min_cooc: u32) -> (HashMap<TokenId, NodeId>, Adjacency) {
    let mut node_of: HashMap<TokenId, NodeId> = HashMap::new();
    let mut adj: Adjacency = Vec::new();
    for ((a, b), c) in cooc.iter_pairs() {
        if c < min_cooc || a == b {
            continue;
        }
        let [na, nb] = [a, b].map(|t| {
            let fresh = NodeId(adj.len() as u32);
            let n = *node_of.entry(t).or_insert(fresh);
            if n == fresh {
                adj.push(Vec::new());
            }
            n
        });
        let w = f64::from(c);
        for (from, to) in [(na, nb), (nb, na)] {
            let list = &mut adj[from.index()];
            match list.binary_search_by_key(&to, |&(n, _)| n) {
                Ok(i) => list[i].1 += w,
                Err(i) => list.insert(i, (to, w)),
            }
        }
    }
    (node_of, adj)
}

fn world(lang: Language) -> World {
    World::generate(&WorldConfig {
        lang,
        n_concepts: 40,
        n_holdout: 6,
        abstracts_per_concept: 3,
        n_shared_synonyms: 4,
        n_ambiguous_new: 3,
        seed: 0x0AC1E,
        ..Default::default()
    })
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn every_vocabulary_token_matches_the_oracle_cold_and_warm() {
    for lang in [Language::English, Language::French, Language::Spanish] {
        let w = world(lang);
        let cooc = CoocCounts::from_corpus(&w.corpus, 5);
        let ctx = TermGraphContext::build(&w.corpus, &cooc, 1);
        let pr = pagerank(ctx.graph());
        let cores = core_numbers(ctx.graph());
        let tokens: Vec<TokenId> = w.corpus.vocab().iter().map(|(t, _)| t).collect();
        let expected: Vec<Vec<u64>> = tokens
            .iter()
            .map(|&t| bits(&oracle_graph_features(&ctx, &pr, &cores, &[t])))
            .collect();
        assert!(
            expected.iter().filter(|f| f[0] > 0).count() > 100,
            "{lang:?}: too few graph nodes for a meaningful check"
        );
        for pass in ["cold", "warm"] {
            for (&t, want) in tokens.iter().zip(&expected) {
                let got = bits(&graph_features(&ctx, &[t]));
                assert_eq!(&got, want, "{lang:?} {pass}: token {t:?}");
            }
        }
    }
}

#[test]
fn ontology_term_rows_match_the_oracle_at_1_and_8_threads() {
    for lang in [Language::English, Language::French, Language::Spanish] {
        let w = world(lang);
        let corpus: &Corpus = &w.corpus;
        let occ = OccurrenceIndex::build(corpus);
        let terms: Vec<(String, Vec<TokenId>)> =
            terms_in_corpus(corpus, &w.reduced_ontology, &[], &occ)
                .into_iter()
                .map(|t| (t.key, t.tokens))
                .collect();
        assert!(terms.len() > 20, "{lang:?}: {} usable terms", terms.len());

        let cooc = CoocCounts::from_corpus(corpus, 5);
        let ctx = TermGraphContext::build(corpus, &cooc, 1);
        let pr = pagerank(ctx.graph());
        let cores = core_numbers(ctx.graph());
        let expected: Vec<Vec<u64>> = terms
            .iter()
            .map(|(s, ids)| {
                let mut row = direct_features(corpus, &occ, &cooc, ids, s).to_vec();
                row.extend(oracle_graph_features(&ctx, &pr, &cores, ids));
                bits(&row)
            })
            .collect();

        for threads in [1, 8] {
            boe_par::set_threads(Some(threads));
            // A fresh context per thread count: the memo starts cold and
            // is filled by whichever worker reaches a head node first.
            let features = FeatureContext::build(corpus);
            let rows = boe_par::par_map(&terms, |(s, ids)| features.features(ids, s));
            for ((s, _), (row, want)) in terms.iter().zip(rows.iter().zip(&expected)) {
                assert_eq!(row.len(), 23);
                assert_eq!(&bits(row), want, "{lang:?} at {threads} thread(s): {s}");
            }
        }
        boe_par::set_threads(None);
    }
}

#[test]
fn the_word_graph_matches_the_builder_route() {
    for lang in [Language::English, Language::French, Language::Spanish] {
        let w = world(lang);
        let cooc = CoocCounts::from_corpus(&w.corpus, 5);
        for min_cooc in [1, 2] {
            let ctx = TermGraphContext::build(&w.corpus, &cooc, min_cooc);
            let (node_of, adj) = builder_route(&cooc, min_cooc);
            for (t, _) in w.corpus.vocab().iter() {
                assert_eq!(
                    ctx.node(t),
                    node_of.get(&t).copied(),
                    "{lang:?} min_cooc {min_cooc}: token {t:?}"
                );
            }
            let g = ctx.graph();
            assert_eq!(g.node_count(), adj.len(), "{lang:?} min_cooc {min_cooc}");
            assert!(g.node_count() > 100, "{lang:?}: too few graph nodes");
            for (v, want) in g.nodes().zip(&adj) {
                let row = |r: &[(NodeId, f64)]| -> Vec<(NodeId, u64)> {
                    r.iter().map(|&(n, w)| (n, w.to_bits())).collect()
                };
                assert_eq!(
                    row(g.neighbours(v)),
                    row(want),
                    "{lang:?} min_cooc {min_cooc}: row of {v}"
                );
            }
        }
    }
}
