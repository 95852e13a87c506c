//! Randomized serial-vs-parallel Step I equality: for synthetic raw
//! corpora in all three supported languages, the batch ingestion path
//! ([`CorpusBuilder::add_texts`]) and the parallel co-occurrence graph
//! and TeRGraph kernels must reproduce the serial references kept in
//! this file **byte for byte** — same interned vocabulary (ids and
//! order), same documents, same co-occurrence graph, same TeRGraph score
//! bits — at 1 and 8 threads; candidate extraction must give, at 1, 2,
//! 3 and 8 threads and `min_freq` 1, 2 and 3, the set of the reference
//! extractor kept in this file (which has its own brute-force pattern
//! matcher), equal term for term (order, tokens, surface, pattern,
//! `freq`, `nested_freq`, `containers`). Each corpus also holds a
//! sentence longer than 255 tokens and runs of one repeated noun.
//!
//! A second test interrupts extraction after a fixed number of stop
//! polls. Both tests hold [`THREADS`], because
//! [`boe_par::set_threads`] is process-global and the harness runs the
//! `#[test]`s of one binary concurrently.

use bio_onto_enrich::corpus::corpus::{Corpus, CorpusBuilder};
use bio_onto_enrich::corpus::OccurrenceIndex;
use bio_onto_enrich::graph::{Graph, NodeId};
use bio_onto_enrich::par as boe_par;
use bio_onto_enrich::textkit::pattern::PatternSet;
use bio_onto_enrich::textkit::pos::PosTag;
use bio_onto_enrich::textkit::{Language, TokenId};
use bio_onto_enrich::workflow::termex::candidates::{CandidateOptions, CandidateSet};
use bio_onto_enrich::workflow::termex::{
    extract_candidates, tergraph_scores, term_cooccurrence_graph, try_extract_candidates,
    CandidateTerm,
};
use boe_rng::StdRng;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Held by each test while it sets the thread count.
static THREADS: Mutex<()> = Mutex::new(());

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

/// The raw texts of one language's corpus: 40 synthetic documents, one
/// sentence of 300 pooled words (its matches start past any 8-bit
/// offset), and twice a document with runs of one repeated noun (the
/// same sequences nested in each other, many times per sentence).
fn corpus_texts(rng: &mut StdRng, lang: Language) -> Vec<String> {
    let words = pool(lang);
    let mut texts: Vec<String> = (0..40).map(|_| synth_doc(rng, words)).collect();
    let long: Vec<&str> = (0..300)
        .map(|_| words[rng.gen_range(0..words.len())])
        .collect();
    texts.push(format!("{}.", long.join(" ")));
    let noun = match lang {
        Language::English => "biopsy",
        Language::French => "greffe",
        Language::Spanish => "biopsia",
    };
    let run = |n: usize| vec![noun; n].join(" ");
    let repeated = format!("{} {}. {}.", run(7), words[0], run(3));
    texts.push(repeated.clone());
    texts.push(repeated);
    texts
}

/// Every `(start, len, pattern)` match of `set` over `tags`, trying
/// every pattern at every start: by start, then pattern index.
fn brute_force_matches(set: &PatternSet, tags: &[PosTag]) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for start in 0..tags.len() {
        for (pi, p) in set.patterns().iter().enumerate() {
            if tags[start..].starts_with(&p.tags) {
                out.push((start, p.len(), pi));
            }
        }
    }
    out
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

/// The pattern matches of one token sequence in the reference
/// extractor: the pattern of its first match and every
/// (doc, sentence, start, len), in reading order.
struct RawCandidate {
    pattern: usize,
    occs: Vec<(u32, u32, u32, u32)>,
}

/// (start, len, candidate index) of every kept occurrence in a sentence.
type SentenceOccs = Vec<(u32, u32, usize)>;

/// Reference candidate extraction: one owned occurrence list per token
/// sequence, kept sequences sorted by tokens, and nesting counted by
/// looking each occurrence up in a per-sentence table of every kept
/// occurrence.
fn extract_candidates_reference(corpus: &Corpus, opts: CandidateOptions) -> Vec<CandidateTerm> {
    let patterns = PatternSet::for_language(corpus.language());
    let mut raw: HashMap<Vec<TokenId>, RawCandidate> = HashMap::new();
    for doc in corpus.docs() {
        for (si, s) in doc.sentences.iter().enumerate() {
            for (start, len, pattern) in brute_force_matches(&patterns, &s.tags) {
                let tokens = &s.tokens[start..start + len];
                if corpus.is_stopword(tokens[0]) || corpus.is_stopword(tokens[len - 1]) {
                    continue;
                }
                raw.entry(tokens.to_vec())
                    .or_insert_with(|| RawCandidate {
                        pattern,
                        occs: Vec::new(),
                    })
                    .occs
                    .push((doc.id.0, si as u32, start as u32, len as u32));
            }
        }
    }
    let mut kept: Vec<(Vec<TokenId>, RawCandidate)> = raw
        .into_iter()
        .filter(|(_, r)| r.occs.len() >= opts.min_freq as usize)
        .collect();
    kept.sort_by(|a, b| a.0.cmp(&b.0));
    let mut by_sentence: HashMap<(u32, u32), SentenceOccs> = HashMap::new();
    for (idx, (_, r)) in kept.iter().enumerate() {
        for &(d, s, st, ln) in &r.occs {
            by_sentence.entry((d, s)).or_default().push((st, ln, idx));
        }
    }
    kept.into_iter()
        .map(|(tokens, RawCandidate { pattern, occs })| {
            let mut nested_freq = 0u32;
            let mut containers: Vec<usize> = Vec::new();
            for &(d, s, st, ln) in &occs {
                let before = containers.len();
                containers.extend(
                    by_sentence[&(d, s)]
                        .iter()
                        .filter(|&&(ost, oln, _)| oln > ln && ost <= st && ost + oln >= st + ln)
                        .map(|&(_, _, oidx)| oidx),
                );
                if containers.len() > before {
                    nested_freq += 1;
                }
            }
            containers.sort_unstable();
            containers.dedup();
            let surface = tokens
                .iter()
                .map(|&t| corpus.text(t))
                .collect::<Vec<_>>()
                .join(" ");
            CandidateTerm {
                tokens,
                surface,
                pattern,
                freq: occs.len() as u32,
                nested_freq,
                containers: containers.len() as u32,
            }
        })
        .collect()
}

/// Reference co-occurrence graph: one serial pass over every sentence,
/// testing every candidate at every start position; edge weight = number
/// of sentences where both candidates occur, edges listed in sorted pair
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
    let edges: Vec<_> = pair_counts
        .into_iter()
        .map(|((a, b), w)| (NodeId(a as u32), NodeId(b as u32), f64::from(w)))
        .collect();
    Graph::from_edges(set.len(), &edges)
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
    let _threads = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(0x57E9_1EAF);
    for lang in [Language::English, Language::French, Language::Spanish] {
        let texts = corpus_texts(&mut rng, lang);

        // Ingestion: serial add_text loop is the reference.
        boe_par::set_threads(Some(1));
        let reference = ingest_serial(lang, &texts);
        let batch_1t = ingest_batch(lang, &texts);
        boe_par::set_threads(Some(8));
        let batch_8t = ingest_batch(lang, &texts);
        assert_corpora_identical(&reference, &batch_1t, &format!("{lang:?} 1t"));
        assert_corpora_identical(&reference, &batch_8t, &format!("{lang:?} 8t"));
        assert!(
            reference
                .docs()
                .iter()
                .any(|d| d.sentences.iter().any(|s| s.len() > 255)),
            "{lang:?}: no sentence longer than 255 tokens"
        );

        // Extraction: the reference extractor's set, byte for byte, at
        // every thread count (3 splits chunks and shards unevenly) and
        // every threshold (each drops different containers).
        for min_freq in [1, 2, 3] {
            let opts = CandidateOptions { min_freq };
            let expected = extract_candidates_reference(&reference, opts);
            assert!(
                !expected.is_empty(),
                "{lang:?}: vacuous corpus — no candidates extracted"
            );
            assert!(
                expected.iter().any(|t| t.containers > 0),
                "{lang:?}: vacuous corpus — no nested candidates"
            );
            for threads in [1, 2, 3, 8] {
                boe_par::set_threads(Some(threads));
                assert_eq!(
                    extract_candidates(&reference, opts).terms,
                    expected,
                    "{lang:?}: candidates vs the reference extractor, \
                     min_freq {min_freq}, {threads}t"
                );
            }
        }
        boe_par::set_threads(Some(1));
        let set_ref = extract_candidates(&reference, CandidateOptions::default());
        let repeated = |t: &&CandidateTerm| t.tokens.iter().all(|&x| x == t.tokens[0]);
        assert!(
            set_ref.terms.iter().filter(repeated).any(|t| t.len() >= 2)
                && set_ref
                    .terms
                    .iter()
                    .filter(repeated)
                    .any(|t| t.nested_freq > 0),
            "{lang:?}: no nested run of one repeated noun"
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
        let index = OccurrenceIndex::build(&reference);
        for threads in [1usize, 8] {
            boe_par::set_threads(Some(threads));
            let g = term_cooccurrence_graph(&reference, &index, &set_ref);
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

/// Interrupted extraction returns no set, wherever the stop predicate
/// fires: before any document, mid-scan, at the last document, or at
/// any kept candidate of the assembly. The predicate is polled exactly
/// once per document and once per kept candidate, at every thread count.
#[test]
fn extraction_interrupted_after_k_polls_yields_none() {
    let _threads = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(0x5709);
    let corpus = ingest_serial(
        Language::English,
        &corpus_texts(&mut rng, Language::English),
    );
    let opts = CandidateOptions::default();
    let docs = corpus.len();
    for threads in [1, 8] {
        boe_par::set_threads(Some(threads));
        let full = extract_candidates(&corpus, opts);
        let never = try_extract_candidates(&corpus, opts, &|| false).expect("never stops");
        assert_eq!(never.terms, full.terms, "{threads}t");
        let kept = full.len();
        assert!(kept > 1, "vacuous corpus");
        let polls = docs + kept;
        for k in [0, 1, docs / 2, docs - 1, docs, docs + kept / 2, polls - 1] {
            let seen = AtomicUsize::new(0);
            let stop = || seen.fetch_add(1, Ordering::SeqCst) >= k;
            assert!(
                try_extract_candidates(&corpus, opts, &stop).is_none(),
                "fired at poll {k} of {polls}, {threads}t"
            );
        }
        let seen = AtomicUsize::new(0);
        let stop = || seen.fetch_add(1, Ordering::SeqCst) >= polls;
        let set = try_extract_candidates(&corpus, opts, &stop).expect("fires after the last poll");
        assert_eq!(set.terms, full.terms, "{threads}t");
        assert_eq!(
            seen.load(Ordering::SeqCst),
            polls,
            "one poll per document and candidate"
        );
    }
    boe_par::set_threads(None);
}
