//! TeRGraph — graph-based term re-ranking (IRJ 2016, §5).
//!
//! BIOTEX's TeRGraph scores a term by the *specificity of its
//! neighbourhood* in the term co-occurrence graph: a genuine domain term
//! co-occurs with other specific terms (low-degree neighbours), while a
//! general word sits next to hubs. We implement the published formula
//!
//! `TeRGraph(t) = log2( 1.5 + Σ_{n ∈ N(t)} (1 / |N(n)|) / |N(t)| )`
//!
//! over the candidate co-occurrence graph (candidates co-occurring in the
//! same sentence are linked).

use crate::termex::candidates::CandidateSet;
use boe_corpus::Corpus;
use boe_graph::{Graph, NodeId};
use std::collections::HashMap;

/// Per-sentence candidate scan: the (sorted, deduped) co-occurrence pair
/// counts of one document, as a canonically ordered list.
fn doc_pair_counts(
    doc: &boe_corpus::doc::Document,
    set: &CandidateSet,
    by_first: &HashMap<boe_textkit::TokenId, Vec<usize>>,
) -> Vec<((usize, usize), u32)> {
    let mut counts: HashMap<(usize, usize), u32> = HashMap::new();
    let mut present: Vec<usize> = Vec::new();
    for s in &doc.sentences {
        present.clear();
        for start in 0..s.tokens.len() {
            if let Some(cands) = by_first.get(&s.tokens[start]) {
                for &ci in cands {
                    let t = &set.terms[ci];
                    if start + t.tokens.len() <= s.tokens.len()
                        && s.tokens[start..start + t.tokens.len()] == t.tokens[..]
                    {
                        present.push(ci);
                    }
                }
            }
        }
        present.sort_unstable();
        present.dedup();
        for i in 0..present.len() {
            for j in (i + 1)..present.len() {
                *counts.entry((present[i], present[j])).or_insert(0) += 1;
            }
        }
    }
    let mut pairs: Vec<((usize, usize), u32)> = counts.into_iter().collect();
    pairs.sort_unstable();
    pairs
}

/// The term co-occurrence graph over a candidate set: node = candidate
/// index, edge weight = number of sentences where both candidates occur.
///
/// Per-document edge multisets are built in parallel (`boe_par`) and
/// reduced serially in document order; edge weights are integer counts,
/// so the result is bit-identical to the serial loop at any thread
/// count (equality-tested against a reference build in
/// `tests/step1_parallel_equality.rs`).
pub fn term_cooccurrence_graph(corpus: &Corpus, set: &CandidateSet) -> Graph {
    let mut g = Graph::with_nodes(set.len());
    // Map from first token to candidate indices, for fast sentence scans.
    let mut by_first: HashMap<boe_textkit::TokenId, Vec<usize>> = HashMap::new();
    for (i, t) in set.terms.iter().enumerate() {
        by_first.entry(t.tokens[0]).or_default().push(i);
    }
    let per_doc: Vec<Vec<((usize, usize), u32)>> =
        boe_par::par_map(corpus.docs(), |doc| doc_pair_counts(doc, set, &by_first));
    // Serial in-order reduction; sorting the pairs fixes the edge
    // insertion order independently of hash-map iteration order.
    let mut pair_counts: HashMap<(usize, usize), u32> = HashMap::new();
    for doc_pairs in per_doc {
        for (pair, w) in doc_pairs {
            *pair_counts.entry(pair).or_insert(0) += w;
        }
    }
    let mut pairs: Vec<((usize, usize), u32)> = pair_counts.into_iter().collect();
    pairs.sort_unstable();
    for ((a, b), w) in pairs {
        g.add_edge(NodeId(a as u32), NodeId(b as u32), f64::from(w));
    }
    g
}

/// TeRGraph scores for every candidate (index-aligned with the set).
/// Isolated candidates score `log2(1.5)` (empty neighbourhood sum).
///
/// Each node's score is independent and its neighbourhood sum follows
/// adjacency order, so the parallel map is bit-identical to the serial
/// loop at any thread count.
pub fn tergraph_scores(graph: &Graph) -> Vec<f64> {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    boe_par::par_map_min(&nodes, 64, |&v| node_score(graph, v))
}

/// The TeRGraph formula for one node.
fn node_score(graph: &Graph, v: NodeId) -> f64 {
    let nbs = graph.neighbours(v);
    if nbs.is_empty() {
        return 1.5f64.log2();
    }
    let sum: f64 = nbs
        .iter()
        .map(|&(u, _)| 1.0 / graph.degree(u).max(1) as f64)
        .sum();
    (1.5 + sum / nbs.len() as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::termex::candidates::{extract_candidates, CandidateOptions};
    use boe_corpus::corpus::CorpusBuilder;
    use boe_textkit::Language;

    fn setup(texts: &[&str]) -> (Corpus, CandidateSet) {
        let mut b = CorpusBuilder::new(Language::English);
        for t in texts {
            b.add_text(t);
        }
        let c = b.build();
        let set = extract_candidates(&c, CandidateOptions::default());
        (c, set)
    }

    #[test]
    fn cooccurring_candidates_are_linked() {
        let (c, set) = setup(&[
            "corneal injuries damage epithelium badly.",
            "corneal injuries damage epithelium severely.",
        ]);
        let g = term_cooccurrence_graph(&c, &set);
        let ci = set
            .terms
            .iter()
            .position(|t| t.surface == "corneal injuries")
            .expect("kept");
        let ep = set
            .terms
            .iter()
            .position(|t| t.surface == "epithelium")
            .expect("kept");
        let w = g.edge_weight(NodeId(ci as u32), NodeId(ep as u32));
        assert_eq!(w, Some(2.0));
    }

    #[test]
    fn different_sentences_do_not_link() {
        let (c, set) = setup(&[
            "cornea heals. epithelium grows.",
            "cornea scars. epithelium thins.",
        ]);
        let g = term_cooccurrence_graph(&c, &set);
        let a = set
            .terms
            .iter()
            .position(|t| t.surface == "cornea")
            .expect("kept");
        let b = set
            .terms
            .iter()
            .position(|t| t.surface == "epithelium")
            .expect("kept");
        assert!(!g.has_edge(NodeId(a as u32), NodeId(b as u32)));
    }

    #[test]
    fn specific_neighbourhood_scores_higher() {
        // Star: "hub" co-occurs with many; leaves co-occur only with hub.
        // A leaf's neighbourhood (just the hub, high degree) is less
        // specific than the hub's (all low-degree leaves): the hub scores
        // higher — and both beat nothing. Verify ordering holds.
        let mut g = Graph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(NodeId(0), NodeId(i), 1.0);
        }
        let scores = tergraph_scores(&g);
        // Hub: avg(1/1 ×4)/4 = 1 → log2(2.5). Leaf: (1/4)/1 → log2(1.75).
        assert!((scores[0] - 2.5f64.log2()).abs() < 1e-12);
        assert!((scores[1] - 1.75f64.log2()).abs() < 1e-12);
        assert!(scores[0] > scores[1]);
    }

    #[test]
    fn isolated_candidate_gets_floor_score() {
        let g = Graph::with_nodes(1);
        let scores = tergraph_scores(&g);
        assert!((scores[0] - 1.5f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn parallel_graph_and_scores_match_serial() {
        let (c, set) = setup(&[
            "corneal injuries damage epithelium badly. cornea heals.",
            "corneal injuries damage epithelium severely. cornea scars.",
            "acute corneal injuries worsen. epithelium thins.",
            "acute corneal injuries persist. cornea heals again.",
        ]);
        // At one thread `boe_par` runs the plain serial loop.
        boe_par::set_threads(Some(1));
        let gs = term_cooccurrence_graph(&c, &set);
        let ss = tergraph_scores(&gs);
        for threads in [1usize, 8] {
            boe_par::set_threads(Some(threads));
            let gp = term_cooccurrence_graph(&c, &set);
            let sp = tergraph_scores(&gp);
            boe_par::set_threads(None);
            assert_eq!(gp.node_count(), gs.node_count(), "at {threads} thread(s)");
            let es: Vec<_> = gs.edges().collect();
            let ep: Vec<_> = gp.edges().collect();
            assert_eq!(ep, es, "edges diverge at {threads} thread(s)");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&sp),
                bits(&ss),
                "scores diverge at {threads} thread(s)"
            );
        }
    }

    #[test]
    fn nested_candidates_both_detected_in_sentence() {
        let (c, set) = setup(&[
            "acute corneal injuries worsen.",
            "acute corneal injuries persist.",
        ]);
        let g = term_cooccurrence_graph(&c, &set);
        let inner = set
            .terms
            .iter()
            .position(|t| t.surface == "corneal injuries")
            .expect("kept");
        let outer = set
            .terms
            .iter()
            .position(|t| t.surface == "acute corneal injuries")
            .expect("kept");
        // Both present in the same sentences → linked with weight 2.
        assert_eq!(
            g.edge_weight(NodeId(inner as u32), NodeId(outer as u32)),
            Some(2.0)
        );
    }
}
