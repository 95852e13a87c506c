//! Property tests for the corpus/IR substrate.
//!
//! Driven by the workspace's own deterministic PRNG (no external
//! dependencies); each test sweeps seeded random corpora.

use boe_corpus::context::{ContextOptions, ContextScope};
use boe_corpus::corpus::CorpusBuilder;
use boe_corpus::stats::CoocCounts;
use boe_corpus::{Corpus, DocId, OccurrenceIndex};
use boe_rng::StdRng;
use boe_textkit::{Language, TokenId};

const CASES: usize = 60;

fn rand_word(rng: &mut StdRng) -> String {
    let len = rng.gen_range(2usize..=8);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0u32..26) as u8))
        .collect()
}

/// 1–5 documents of 1–2 sentences with 1–9 lowercase words each.
fn rand_corpus(rng: &mut StdRng) -> Corpus {
    let mut b = CorpusBuilder::new(Language::English);
    let docs = rng.gen_range(1usize..6);
    for _ in 0..docs {
        let mut text = String::new();
        for _ in 0..rng.gen_range(1usize..=2) {
            let words = rng.gen_range(1usize..=9);
            for w in 0..words {
                if w > 0 {
                    text.push(' ');
                }
                text.push_str(&rand_word(rng));
            }
            text.push_str(". ");
        }
        b.add_text(&text);
    }
    b.build()
}

/// Every vocabulary id of `c`: each one occurs in the corpus it was
/// interned from.
fn vocab_ids(c: &Corpus) -> impl Iterator<Item = TokenId> {
    (0..c.vocab().len() as u32).map(TokenId)
}

#[test]
fn index_frequencies_are_consistent() {
    let mut rng = StdRng::seed_from_u64(10);
    for _ in 0..CASES {
        let c = rand_corpus(&mut rng);
        let ix = OccurrenceIndex::build(&c);
        // Sum of per-token corpus frequencies equals total token count.
        let total: u64 = vocab_ids(&c).map(|t| ix.term_freq(t)).sum();
        assert_eq!(total as usize, c.token_count());
        for t in vocab_ids(&c) {
            // The single-token phrase's per-document counts: each
            // document at most once, in document order, summing to
            // term_freq.
            let per_doc = ix.phrase_matches(&[t]);
            assert!(!per_doc.is_empty());
            assert!(per_doc.len() <= c.len());
            assert!(per_doc.windows(2).all(|w| w[0].0 < w[1].0));
            let tf_sum: u64 = per_doc.iter().map(|&(_, n)| u64::from(n)).sum();
            assert_eq!(tf_sum, ix.term_freq(t));
        }
    }
}

#[test]
fn single_token_phrase_matches_agree_with_occurrences() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..CASES {
        let c = rand_corpus(&mut rng);
        let ox = OccurrenceIndex::build(&c);
        for t in vocab_ids(&c).take(10) {
            let phrase = [t];
            let total_phrase: u32 = ox.phrase_matches(&phrase).iter().map(|&(_, n)| n).sum();
            let occs = ox.find_occurrences(&c, &phrase);
            assert_eq!(total_phrase as usize, occs.len());
        }
    }
}

/// Words of the phrase-matching corpora: four common ones and `rarex`,
/// which is rare but favours sentence starts.
const PHRASE_WORDS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "rarex"];

/// 1–6 documents of 1–4 sentences, each 1–8 words of [`PHRASE_WORDS`].
fn rand_phrase_corpus(rng: &mut StdRng) -> Corpus {
    let mut b = CorpusBuilder::new(Language::English);
    for _ in 0..rng.gen_range(1usize..=6) {
        let mut text = String::new();
        for _ in 0..rng.gen_range(1usize..=4) {
            for w in 0..rng.gen_range(1usize..=8) {
                let rare = rng.gen_bool(if w == 0 { 0.4 } else { 0.08 });
                let word = if rare {
                    PHRASE_WORDS[4]
                } else {
                    PHRASE_WORDS[rng.gen_range(0usize..4)]
                };
                if w > 0 {
                    text.push(' ');
                }
                text.push_str(word);
            }
            text.push_str(". ");
        }
        b.add_text(&text);
    }
    b.build()
}

/// Exact phrase matches by brute force: per document, in document
/// order, the number of sentence windows equal to `phrase`.
fn scan_phrase_matches(c: &Corpus, phrase: &[TokenId]) -> Vec<(DocId, u32)> {
    c.docs()
        .iter()
        .filter_map(|d| {
            let n: usize = d
                .sentences
                .iter()
                .map(|s| {
                    s.tokens
                        .windows(phrase.len())
                        .filter(|w| *w == phrase)
                        .count()
                })
                .sum();
            (n > 0).then_some((d.id, n as u32))
        })
        .collect()
}

#[test]
fn phrase_matches_agree_with_a_sentence_scan() {
    let mut rng = StdRng::seed_from_u64(16);
    let mut matched = [0usize; 3];
    for _ in 0..CASES * 4 {
        let c = rand_phrase_corpus(&mut rng);
        let ix = OccurrenceIndex::build(&c);
        let ids: Vec<TokenId> = PHRASE_WORDS
            .iter()
            .filter_map(|w| c.vocab().get(w))
            .collect();
        let mut phrases: Vec<Vec<TokenId>> = (0..20)
            .map(|_| {
                let len = rng.gen_range(1usize..=4);
                (0..len).map(|_| ids[rng.gen_range(0..ids.len())]).collect()
            })
            .collect();
        if let Some(rare) = c.vocab().get(PHRASE_WORDS[4]) {
            let common: Vec<TokenId> = ids.iter().copied().filter(|&t| t != rare).collect();
            // The rarest token repeated inside the phrase.
            phrases.push(vec![rare, rare]);
            for &t in &common {
                phrases.push(vec![rare, t, rare]);
                phrases.push(vec![t, rare, t, rare]);
            }
            // The rarest token at offset > 0: its sentence-initial
            // positions cannot start a match.
            for &t in &common {
                phrases.push(vec![t, rare]);
                for &u in &common {
                    phrases.push(vec![t, u, rare]);
                }
            }
        }
        // Phrases spelled across a sentence boundary never match.
        for d in c.docs() {
            for pair in d.sentences.windows(2) {
                let (a, b) = (&pair[0].tokens, &pair[1].tokens);
                for k in 1..=a.len().min(2) {
                    for m in 1..=b.len().min(2) {
                        let mut p = a[a.len() - k..].to_vec();
                        p.extend_from_slice(&b[..m]);
                        phrases.push(p);
                    }
                }
            }
        }
        for p in &phrases {
            let want = scan_phrase_matches(&c, p);
            assert_eq!(ix.phrase_matches(p), want, "phrase {p:?}");
            matched[p.len().min(3) - 1] += usize::from(!want.is_empty());
        }
    }
    assert!(
        matched.iter().all(|&n| n > 50),
        "too few matching phrases: {matched:?}"
    );
}

#[test]
fn cooccurrence_is_symmetric_and_bounded() {
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..CASES {
        let c = rand_corpus(&mut rng);
        let window = rng.gen_range(1usize..6);
        let cc = CoocCounts::from_corpus(&c, window);
        for ((a, b), n) in cc.iter_pairs().into_iter().take(50) {
            assert_eq!(cc.pair(a, b), n);
            assert_eq!(cc.pair(b, a), n);
            assert!(n >= 1);
            // A pair cannot co-occur more often than its rarer member
            // occurs (times window, loose bound: just occurrences × window).
            let ca = cc.occurrences(a);
            let cb = cc.occurrences(b);
            assert!(n <= ca.max(1) * window as u32 + cb.max(1) * window as u32);
        }
    }
}

#[test]
fn context_vectors_are_nonnegative_counts() {
    let mut rng = StdRng::seed_from_u64(14);
    for _ in 0..CASES {
        let c = rand_corpus(&mut rng);
        let ox = OccurrenceIndex::build(&c);
        for scope in [ContextScope::Sentence, ContextScope::Document] {
            let opts = ContextOptions {
                window: None,
                stemmed: false,
                scope,
            };
            for t in vocab_ids(&c).take(5) {
                for v in ox.contexts(&c, &[t], opts) {
                    for (_, x) in v.iter() {
                        assert!(x >= 1.0);
                        assert_eq!(x.fract(), 0.0, "counts are integral");
                    }
                    // The term itself is excluded from its own context at
                    // sentence scope only if it occurs once there; at any
                    // scope the vector must stay finite.
                    assert!(v.norm().is_finite());
                }
            }
        }
    }
}

#[test]
fn document_contexts_dominate_sentence_contexts() {
    let mut rng = StdRng::seed_from_u64(15);
    for _ in 0..CASES {
        let c = rand_corpus(&mut rng);
        let ox = OccurrenceIndex::build(&c);
        for t in vocab_ids(&c).take(5) {
            let s_opts = ContextOptions {
                window: None,
                stemmed: false,
                scope: ContextScope::Sentence,
            };
            let d_opts = ContextOptions {
                window: None,
                stemmed: false,
                scope: ContextScope::Document,
            };
            let s_ctx = ox.contexts(&c, &[t], s_opts);
            let d_ctx = ox.contexts(&c, &[t], d_opts);
            assert_eq!(s_ctx.len(), d_ctx.len());
            for (s, d) in s_ctx.iter().zip(&d_ctx) {
                assert!(d.sum() >= s.sum(), "document scope must not shrink context");
            }
        }
    }
}
