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
use boe_corpus::{Corpus, OccurrenceIndex};
use boe_graph::{Graph, NodeId};

/// The term co-occurrence graph over a candidate set: node = candidate
/// index, edge weight = number of sentences where both candidates occur.
///
/// Each candidate's occurrences come from `index` (built over `corpus`),
/// one `boe_par` task per candidate. Their `(doc, sentence, candidate)`
/// triples, sorted and deduplicated, group into one run per sentence;
/// every pair within a run counts that sentence once, and the sorted
/// pair list gives the graph's edges. Edge weights are integer counts,
/// so the result is bit-identical at any thread count (equality-tested
/// against a sentence-scan reference in
/// `tests/step1_parallel_equality.rs`).
pub fn term_cooccurrence_graph(
    corpus: &Corpus,
    index: &OccurrenceIndex,
    set: &CandidateSet,
) -> Graph {
    let per_candidate = boe_par::par_map(&set.terms, |t| index.find_occurrences(corpus, &t.tokens));
    let mut triples: Vec<(u32, u32, u32)> = per_candidate
        .into_iter()
        .enumerate()
        .flat_map(|(ci, occs)| {
            occs.into_iter()
                .map(move |o| (o.doc.0, o.sentence as u32, ci as u32))
        })
        .collect();
    // A candidate occurring twice in one sentence counts it once.
    triples.sort_unstable();
    triples.dedup();
    // One entry per (pair, sentence); sorting groups each pair's
    // sentences into one run and orders the edges.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for run in triples.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        for (i, &(_, _, a)) in run.iter().enumerate() {
            pairs.extend(run[i + 1..].iter().map(|&(_, _, b)| (a, b)));
        }
    }
    pairs.sort_unstable();
    let edges: Vec<_> = pairs
        .chunk_by(|x, y| x == y)
        .map(|same| (NodeId(same[0].0), NodeId(same[0].1), same.len() as f64))
        .collect();
    Graph::from_edges(set.len(), &edges)
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

    fn setup(texts: &[&str]) -> (Corpus, OccurrenceIndex, CandidateSet) {
        let mut b = CorpusBuilder::new(Language::English);
        for t in texts {
            b.add_text(t);
        }
        let c = b.build();
        let ix = OccurrenceIndex::build(&c);
        let set = extract_candidates(&c, CandidateOptions::default());
        (c, ix, set)
    }

    #[test]
    fn cooccurring_candidates_are_linked() {
        let (c, ix, set) = setup(&[
            "corneal injuries damage epithelium badly.",
            "corneal injuries damage epithelium severely.",
        ]);
        let g = term_cooccurrence_graph(&c, &ix, &set);
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
        let (c, ix, set) = setup(&[
            "cornea heals. epithelium grows.",
            "cornea scars. epithelium thins.",
        ]);
        let g = term_cooccurrence_graph(&c, &ix, &set);
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
    fn repeated_candidate_counts_its_sentence_once() {
        // "cornea" occurs twice in the first sentence: the edge still
        // counts two sentences, not three occurrence pairs.
        let (c, ix, set) = setup(&[
            "cornea scars reach cornea epithelium.",
            "cornea heals near epithelium.",
        ]);
        let g = term_cooccurrence_graph(&c, &ix, &set);
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
        assert_eq!(set.terms[a].freq, 3);
        assert_eq!(g.edge_weight(NodeId(a as u32), NodeId(b as u32)), Some(2.0));
    }

    #[test]
    fn specific_neighbourhood_scores_higher() {
        // Star: "hub" co-occurs with many; leaves co-occur only with hub.
        // A leaf's neighbourhood (just the hub, high degree) is less
        // specific than the hub's (all low-degree leaves): the hub scores
        // higher — and both beat nothing. Verify ordering holds.
        let edges: Vec<_> = (1..5).map(|i| (NodeId(0), NodeId(i), 1.0)).collect();
        let g = Graph::from_edges(5, &edges);
        let scores = tergraph_scores(&g);
        // Hub: avg(1/1 ×4)/4 = 1 → log2(2.5). Leaf: (1/4)/1 → log2(1.75).
        assert!((scores[0] - 2.5f64.log2()).abs() < 1e-12);
        assert!((scores[1] - 1.75f64.log2()).abs() < 1e-12);
        assert!(scores[0] > scores[1]);
    }

    #[test]
    fn isolated_candidate_gets_floor_score() {
        let g = Graph::from_edges(1, &[]);
        let scores = tergraph_scores(&g);
        assert!((scores[0] - 1.5f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn parallel_graph_and_scores_match_serial() {
        let (c, ix, set) = setup(&[
            "corneal injuries damage epithelium badly. cornea heals.",
            "corneal injuries damage epithelium severely. cornea scars.",
            "acute corneal injuries worsen. epithelium thins.",
            "acute corneal injuries persist. cornea heals again.",
        ]);
        // At one thread `boe_par` runs the plain serial loop.
        boe_par::set_threads(Some(1));
        let gs = term_cooccurrence_graph(&c, &ix, &set);
        let ss = tergraph_scores(&gs);
        for threads in [1usize, 8] {
            boe_par::set_threads(Some(threads));
            let gp = term_cooccurrence_graph(&c, &ix, &set);
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
        let (c, ix, set) = setup(&[
            "acute corneal injuries worsen.",
            "acute corneal injuries persist.",
        ]);
        let g = term_cooccurrence_graph(&c, &ix, &set);
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
