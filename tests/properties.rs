//! Property-based tests on the core data structures and invariants,
//! spanning the workspace crates.
//!
//! Driven by the workspace's own deterministic PRNG (no external
//! dependencies); each test sweeps seeded random cases.

use bio_onto_enrich::cluster::{Algorithm, UnitVectors};
use bio_onto_enrich::corpus::corpus::CorpusBuilder;
use bio_onto_enrich::corpus::SparseVector;
use bio_onto_enrich::graph::Graph;
use bio_onto_enrich::textkit::normalize::match_key;
use bio_onto_enrich::textkit::stem;
use bio_onto_enrich::textkit::{Language, Tokenizer};
use boe_rng::StdRng;

#[path = "../crates/graph/tests/oracle/mod.rs"]
mod oracle;

const CASES: usize = 120;

fn rand_sparse_vec(rng: &mut StdRng) -> SparseVector {
    let nnz = rng.gen_range(0usize..12);
    let pairs: Vec<(u32, f64)> = (0..nnz)
        .map(|_| (rng.gen_range(0u32..64), rng.gen::<f64>() * 10.0 - 5.0))
        .collect();
    SparseVector::from_pairs(pairs)
}

fn rand_string(rng: &mut StdRng, charset: &str, max_len: usize) -> String {
    let chars: Vec<char> = charset.chars().collect();
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| chars[rng.gen_range(0..chars.len())])
        .collect()
}

fn rand_word(rng: &mut StdRng, min_len: usize, max_len: usize) -> String {
    let len = rng.gen_range(min_len..=max_len);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0u32..26) as u8))
        .collect()
}

// --- sparse vector algebra -------------------------------------

#[test]
fn cosine_is_symmetric_and_bounded() {
    let mut rng = StdRng::seed_from_u64(50);
    for _ in 0..CASES {
        let a = rand_sparse_vec(&mut rng);
        let b = rand_sparse_vec(&mut rng);
        let ab = a.cosine(&b);
        let ba = b.cosine(&a);
        assert!((ab - ba).abs() < 1e-12);
        assert!((-1.0..=1.0).contains(&ab));
    }
}

#[test]
fn dot_distributes_over_addition() {
    let mut rng = StdRng::seed_from_u64(51);
    for _ in 0..CASES {
        let a = rand_sparse_vec(&mut rng);
        let b = rand_sparse_vec(&mut rng);
        let c = rand_sparse_vec(&mut rng);
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = a.dot(&bc);
        let rhs = a.dot(&b) + a.dot(&c);
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }
}

#[test]
fn normalized_is_unit_or_zero() {
    let mut rng = StdRng::seed_from_u64(52);
    for _ in 0..CASES {
        let a = rand_sparse_vec(&mut rng);
        let n = a.normalized().norm();
        assert!(n.abs() < 1e-12 || (n - 1.0).abs() < 1e-9);
    }
}

#[test]
fn entries_stay_sorted_and_unique() {
    let mut rng = StdRng::seed_from_u64(53);
    for _ in 0..CASES {
        let a = rand_sparse_vec(&mut rng);
        let b = rand_sparse_vec(&mut rng);
        let mut s = a.clone();
        s.add_assign(&b);
        let dims: Vec<u32> = s.entries().iter().map(|(d, _)| *d).collect();
        assert!(dims.windows(2).all(|w| w[0] < w[1]));
        assert!(s.entries().iter().all(|(_, v)| *v != 0.0));
    }
}

// --- tokenizer --------------------------------------------------

#[test]
fn token_spans_index_into_source() {
    let mut rng = StdRng::seed_from_u64(54);
    let printable: String = (' '..='~').collect::<String>() + "éàñçü";
    for _ in 0..CASES {
        let s = rand_string(&mut rng, &printable, 60);
        let toks = Tokenizer::new(Language::English).tokenize(&s);
        for t in &toks {
            assert!(t.span.end <= s.len());
            assert_eq!(s[t.span.clone()].to_lowercase(), t.text.clone());
        }
    }
}

#[test]
fn tokens_never_contain_whitespace() {
    let mut rng = StdRng::seed_from_u64(55);
    for _ in 0..CASES {
        let s = rand_string(
            &mut rng,
            "abcdefghijklmnopqrstuvwxyzABCDEF0123456789 .,;()-",
            80,
        );
        let toks = Tokenizer::new(Language::English).tokenize(&s);
        for t in toks {
            assert!(!t.text.chars().any(char::is_whitespace), "{:?}", t.text);
        }
    }
}

// --- normalization & stemming ------------------------------------

#[test]
fn match_key_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(56);
    let printable: String = (' '..='~').collect::<String>() + "éàñçÉœ";
    for _ in 0..CASES {
        let s = rand_string(&mut rng, &printable, 40);
        let once = match_key(&s);
        assert_eq!(match_key(&once), once);
    }
}

// Note: Porter is NOT idempotent by design ("ease" → "eas" → "ea"),
// so the properties checked are output sanity, not fixpoints.
#[test]
fn porter_stem_output_is_sane() {
    let mut rng = StdRng::seed_from_u64(57);
    for _ in 0..CASES {
        let w = rand_word(&mut rng, 1, 15);
        let s = stem::porter::stem(&w);
        assert!(!s.is_empty());
        assert!(s.len() <= w.len() + 1, "{w} -> {s}");
        assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
    }
}

#[test]
fn stemming_never_lengthens_ascii_words() {
    let mut rng = StdRng::seed_from_u64(58);
    for _ in 0..CASES {
        let w = rand_word(&mut rng, 3, 15);
        for lang in Language::ALL {
            assert!(stem::stem(lang, &w).len() <= w.len() + 1, "{lang} {w}");
        }
    }
}

// --- clustering invariants ----------------------------------------

#[test]
fn cluster_solutions_partition_objects() {
    let mut rng = StdRng::seed_from_u64(59);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..24);
        let k = rng.gen_range(1usize..5).min(n);
        let seed = rng.gen_range(0u64..50);
        let raw: Vec<SparseVector> = (0..n)
            .map(|i| SparseVector::from_pairs([((i % 6) as u32, 1.0), ((i / 6) as u32 + 10, 0.5)]))
            .collect();
        let vs = UnitVectors::new(&raw);
        for alg in Algorithm::ALL {
            let sol = alg.cluster(&vs, k, seed);
            assert_eq!(sol.k(), k, "{alg}");
            assert_eq!(sol.len(), n);
            let sizes = sol.sizes();
            assert_eq!(sizes.iter().sum::<usize>(), n);
            assert!(sizes.iter().all(|&s| s > 0), "{alg} empty cluster");
        }
    }
}

// --- graph invariants ----------------------------------------------

#[test]
fn graph_edges_are_symmetric() {
    let mut rng = StdRng::seed_from_u64(60);
    for _ in 0..CASES {
        let draws: Vec<_> = (0..rng.gen_range(0usize..30))
            .map(|_| {
                let a = rng.gen_range(0u32..12);
                let b = rng.gen_range(0u32..12);
                (a, b, 0.1 + rng.gen::<f64>() * 4.9)
            })
            .collect();
        let g = Graph::from_edges(12, &oracle::accumulate_by_pair(&draws));
        for v in g.nodes() {
            for &(u, w) in g.neighbours(v) {
                assert_eq!(g.edge_weight(u, v), Some(w));
            }
        }
        let sum_deg: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(sum_deg, 2 * g.edge_count());
    }
}

// --- corpus invariants ----------------------------------------------

#[test]
fn corpus_interning_is_consistent() {
    let mut rng = StdRng::seed_from_u64(61);
    for _ in 0..CASES {
        let mut b = CorpusBuilder::new(Language::English);
        for _ in 0..rng.gen_range(1usize..6) {
            let words = rng.gen_range(1usize..=7);
            let mut text = String::new();
            for w in 0..words {
                if w > 0 {
                    text.push(' ');
                }
                text.push_str(&rand_word(&mut rng, 1, 8));
            }
            text.push('.');
            b.add_text(&text);
        }
        let c = b.build();
        for doc in c.docs() {
            for s in &doc.sentences {
                assert_eq!(s.tokens.len(), s.tags.len());
                for &t in &s.tokens {
                    assert!(c.vocab().try_text(t).is_some());
                }
            }
        }
    }
}
