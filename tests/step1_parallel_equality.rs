//! Randomized serial-vs-parallel Step I equality: for synthetic raw
//! corpora in all three supported languages, the batch ingestion path
//! ([`CorpusBuilder::add_texts`]) and the parallel co-occurrence graph
//! and TeRGraph kernels must reproduce the serial references kept in
//! this file **byte for byte** — same interned vocabulary (ids and
//! order), same documents, same co-occurrence graph, same TeRGraph score
//! bits — at 1 and 8 threads; candidate extraction must give the same
//! set at 1 and 8 threads.
//!
//! One `#[test]` because [`boe_par::set_threads`] is process-global and
//! the harness runs `#[test]`s of one binary concurrently.

use bio_onto_enrich::corpus::corpus::{Corpus, CorpusBuilder};
use bio_onto_enrich::graph::{Graph, NodeId};
use bio_onto_enrich::par as boe_par;
use bio_onto_enrich::textkit::Language;
use bio_onto_enrich::workflow::termex::candidates::{CandidateOptions, CandidateSet};
use bio_onto_enrich::workflow::termex::{
    extract_candidates, tergraph_scores, term_cooccurrence_graph,
};
use boe_rng::StdRng;
use std::collections::BTreeMap;

/// Word pools with the orthography that stresses the tokenizer: accents,
/// elisions, hyphens, digits. Repetition is deliberate — candidates need
/// `min_freq >= 2` to survive, so a small pool yields a dense inventory.
fn pool(lang: Language) -> &'static [&'static str] {
    match lang {
        Language::English => &[
            "corneal",
            "injury",
            "retinal",
            "degeneration",
            "gene-expression",
            "covid-19",
            "epithelium",
            "chronic",
            "disease",
            "biopsy",
            "the",
            "of",
            "in",
            "severe",
            "lesion",
        ],
        Language::French => &[
            "l'épithélium",
            "cornée",
            "maladie",
            "dégénérescence",
            "l'œil",
            "anti-inflammatoire",
            "chronique",
            "lésion",
            "sévère",
            "d'une",
            "la",
            "de",
            "et",
            "greffe",
            "rétine",
        ],
        Language::Spanish => &[
            "córnea",
            "enfermedad",
            "inflamación",
            "señal",
            "crónica",
            "lesión",
            "degeneración",
            "epitelio",
            "niño",
            "año",
            "la",
            "de",
            "en",
            "grave",
            "biopsia",
        ],
    }
}

/// A synthetic raw document: 1–5 sentences of 3–12 pooled words with
/// commas sprinkled in and varied terminators.
fn synth_doc(rng: &mut StdRng, words: &[&str]) -> String {
    let n_sentences = rng.gen_range(1..=5usize);
    let mut doc = String::new();
    for s in 0..n_sentences {
        if s > 0 {
            doc.push(' ');
        }
        let n_words = rng.gen_range(3..=12usize);
        for w in 0..n_words {
            if w > 0 {
                doc.push(if rng.gen_bool(0.1) { ',' } else { ' ' });
                if doc.ends_with(',') {
                    doc.push(' ');
                }
            }
            doc.push_str(words[rng.gen_range(0..words.len())]);
        }
        doc.push(match rng.gen_range(0..4u32) {
            0 => '?',
            1 => '!',
            _ => '.',
        });
    }
    doc
}

fn ingest_serial(lang: Language, texts: &[String]) -> Corpus {
    let mut b = CorpusBuilder::new(lang);
    for t in texts {
        b.add_text(t);
    }
    b.build()
}

fn ingest_batch(lang: Language, texts: &[String]) -> Corpus {
    let mut b = CorpusBuilder::new(lang);
    b.add_texts(texts);
    b.build()
}

/// Reference co-occurrence graph: one serial pass over every sentence,
/// testing every candidate at every start position; edge weight = number
/// of sentences where both candidates occur, edges added in sorted pair
/// order.
fn cooccurrence_graph_reference(corpus: &Corpus, set: &CandidateSet) -> Graph {
    let mut pair_counts: BTreeMap<(usize, usize), u32> = BTreeMap::new();
    for doc in corpus.docs() {
        for s in &doc.sentences {
            let present: Vec<usize> = (0..set.len())
                .filter(|&ci| {
                    let t = &set.terms[ci].tokens;
                    s.tokens.windows(t.len()).any(|w| w == &t[..])
                })
                .collect();
            for (i, &a) in present.iter().enumerate() {
                for &b in &present[i + 1..] {
                    *pair_counts.entry((a, b)).or_insert(0) += 1;
                }
            }
        }
    }
    let mut g = Graph::with_nodes(set.len());
    for ((a, b), w) in pair_counts {
        g.add_edge(NodeId(a as u32), NodeId(b as u32), f64::from(w));
    }
    g
}

/// Reference TeRGraph scores, straight from the published formula
/// `log2(1.5 + Σ_{n ∈ N(t)} (1 / |N(n)|) / |N(t)|)`, summed in adjacency
/// order.
fn tergraph_scores_reference(g: &Graph) -> Vec<f64> {
    g.nodes()
        .map(|v| {
            let nbs = g.neighbours(v);
            if nbs.is_empty() {
                return 1.5f64.log2();
            }
            let mut sum = 0.0;
            for &(u, _) in nbs {
                sum += 1.0 / g.degree(u).max(1) as f64;
            }
            (1.5 + sum / nbs.len() as f64).log2()
        })
        .collect()
}

/// Byte-level corpus equality: vocabulary (same ids in the same order,
/// same surfaces, same stop flags) and documents (sentence token ids).
fn assert_corpora_identical(a: &Corpus, b: &Corpus, ctx: &str) {
    let va: Vec<_> = a.vocab().iter().collect();
    let vb: Vec<_> = b.vocab().iter().collect();
    assert_eq!(va, vb, "{ctx}: vocabulary diverged");
    for (id, _) in va {
        assert_eq!(a.is_stopword(id), b.is_stopword(id), "{ctx}: stop flag");
    }
    assert_eq!(a.docs(), b.docs(), "{ctx}: documents diverged");
}

#[test]
fn randomized_step1_is_bit_identical_across_paths_and_threads() {
    let mut rng = StdRng::seed_from_u64(0x57E9_1EAF);
    for lang in [Language::English, Language::French, Language::Spanish] {
        let words = pool(lang);
        let texts: Vec<String> = (0..40).map(|_| synth_doc(&mut rng, words)).collect();

        // Ingestion: serial add_text loop is the reference.
        boe_par::set_threads(Some(1));
        let reference = ingest_serial(lang, &texts);
        let batch_1t = ingest_batch(lang, &texts);
        boe_par::set_threads(Some(8));
        let batch_8t = ingest_batch(lang, &texts);
        assert_corpora_identical(&reference, &batch_1t, &format!("{lang:?} 1t"));
        assert_corpora_identical(&reference, &batch_8t, &format!("{lang:?} 8t"));

        // Extraction: the same candidate set, byte for byte, at both
        // thread counts.
        let opts = CandidateOptions::default();
        boe_par::set_threads(Some(1));
        let set_ref = extract_candidates(&reference, opts);
        boe_par::set_threads(Some(8));
        let set_8t = extract_candidates(&reference, opts);
        assert_eq!(set_ref.terms, set_8t.terms, "{lang:?}: candidates 8t");
        assert!(
            !set_ref.terms.is_empty(),
            "{lang:?}: vacuous corpus — no candidates extracted"
        );

        // Graph + TeRGraph scores against the references above.
        let g_ref = cooccurrence_graph_reference(&reference, &set_ref);
        let s_ref: Vec<u64> = tergraph_scores_reference(&g_ref)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert!(
            g_ref.edge_count() > 0,
            "{lang:?}: vacuous corpus — no co-occurring candidates"
        );
        for threads in [1usize, 8] {
            boe_par::set_threads(Some(threads));
            let g = term_cooccurrence_graph(&reference, &set_ref);
            assert_eq!(g.node_count(), g_ref.node_count(), "{lang:?} {threads}t");
            let ea: Vec<_> = g_ref.edges().collect();
            let eb: Vec<_> = g.edges().collect();
            assert_eq!(ea, eb, "{lang:?}: graph edges {threads}t");
            let s: Vec<u64> = tergraph_scores(&g).iter().map(|v| v.to_bits()).collect();
            assert_eq!(s_ref, s, "{lang:?}: tergraph score bits {threads}t");
        }
    }
    boe_par::set_threads(None);
}
