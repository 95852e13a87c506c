//! Property tests for the NLP substrate.
//!
//! Formerly written against `proptest`; now driven by the workspace's
//! own deterministic PRNG so the suite builds and runs with no external
//! dependencies (hermetic/offline builds). Each test sweeps a fixed
//! number of seeded random cases, so failures reproduce exactly.

use boe_rng::StdRng;
use boe_textkit::pattern::PatternSet;
use boe_textkit::pos::{PosTag, PosTagger};
use boe_textkit::sentence::split_sentences;
use boe_textkit::stem;
use boe_textkit::{Language, Tokenizer, Vocabulary};

const CASES: usize = 200;

fn rand_string(rng: &mut StdRng, charset: &str, max_len: usize) -> String {
    let chars: Vec<char> = charset.chars().collect();
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| chars[rng.gen_range(0..chars.len())])
        .collect()
}

fn rand_word(rng: &mut StdRng, charset: &str, min_len: usize, max_len: usize) -> String {
    let chars: Vec<char> = charset.chars().collect();
    let len = rng.gen_range(min_len..=max_len);
    (0..len)
        .map(|_| chars[rng.gen_range(0..chars.len())])
        .collect()
}

#[test]
fn tokenization_is_deterministic_and_span_consistent() {
    let mut rng = StdRng::seed_from_u64(1);
    let charset = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJàéèêëíñóúüç0123456789 .,;:()'-";
    for _ in 0..CASES {
        let s = rand_string(&mut rng, charset, 120);
        for lang in Language::ALL {
            let tk = Tokenizer::new(lang);
            let a = tk.tokenize(&s);
            let b = tk.tokenize(&s);
            assert_eq!(a, b, "{lang}: {s:?}");
            // Spans are in order and non-overlapping.
            for w in a.windows(2) {
                assert!(w[0].span.end <= w[1].span.start, "{lang}: {s:?}");
            }
            for t in &a {
                assert!(!t.is_empty(), "{lang}: {s:?}");
            }
        }
    }
}

#[test]
fn sentences_cover_only_source_material() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..CASES {
        let s = rand_string(&mut rng, "abcdefghijklmnopqrstuvwxyzABC .!?0123456789", 150);
        let sentences = split_sentences(&s);
        for sent in &sentences {
            assert!(s.contains(sent), "{sent:?} not in source {s:?}");
            assert!(!sent.trim().is_empty());
        }
    }
}

#[test]
fn tagger_output_is_total_and_aligned() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..CASES {
        let s = rand_string(&mut rng, "abcdefghijklmnopqrstuvwxyz .,;-", 100);
        for lang in Language::ALL {
            let toks = Tokenizer::new(lang).tokenize(&s);
            let tags = PosTagger::new(lang).tag(&toks);
            assert_eq!(tags.len(), toks.len(), "{lang}: {s:?}");
        }
    }
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

#[test]
fn pattern_matches_stay_in_bounds() {
    let mut rng = StdRng::seed_from_u64(4);
    // Uniform tags rarely spell a long pattern; half the cases draw from
    // the tags the patterns are made of.
    let term_tags = [
        PosTag::Noun,
        PosTag::Adjective,
        PosTag::Preposition,
        PosTag::Determiner,
    ];
    let mut ms = Vec::new();
    let mut long_matches = 0;
    for case in 0..CASES {
        let n = rng.gen_range(0usize..20);
        let tags: Vec<PosTag> = (0..n)
            .map(|_| {
                if case % 2 == 0 {
                    PosTag::ALL[rng.gen_range(0..11usize)]
                } else {
                    term_tags[rng.gen_range(0..term_tags.len())]
                }
            })
            .collect();
        for lang in Language::ALL {
            let set = PatternSet::for_language(lang);
            set.matches(&tags, &mut ms);
            for &m in &ms {
                assert!(m.start + m.len <= tags.len());
                assert!(m.pattern < set.patterns().len());
                assert_eq!(
                    &tags[m.start..m.start + m.len],
                    &set.patterns()[m.pattern].tags[..]
                );
            }
            let got: Vec<_> = ms.iter().map(|m| (m.start, m.len, m.pattern)).collect();
            assert_eq!(got, brute_force_matches(&set, &tags), "{lang}: {tags:?}");
            long_matches += ms.iter().filter(|m| m.len >= 3).count();
        }
    }
    assert!(long_matches > 0, "no case spelled a pattern of 3+ tags");
}

#[test]
fn stemmers_produce_nonempty_stems() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..CASES {
        let w = rand_word(&mut rng, "abcdefghijklmnopqrstuvwxyzàéñç", 1, 18);
        for lang in Language::ALL {
            let s = stem::stem(lang, &w);
            assert!(!s.is_empty(), "{lang}: {w:?}");
        }
    }
}

#[test]
fn vocabulary_intern_get_agree() {
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..CASES {
        let n = rng.gen_range(0usize..40);
        let words: Vec<String> = (0..n)
            .map(|_| rand_word(&mut rng, "abcdefghijklmnopqrstuvwxyz", 1, 10))
            .collect();
        let mut v = Vocabulary::new();
        let ids: Vec<_> = words.iter().map(|w| v.intern(w)).collect();
        for (w, id) in words.iter().zip(&ids) {
            assert_eq!(v.get(w), Some(*id));
            assert_eq!(v.text(*id), w.as_str());
        }
        // Distinct strings ⇔ distinct ids.
        let mut uniq: Vec<&String> = words.iter().collect();
        uniq.sort();
        uniq.dedup();
        assert_eq!(v.len(), uniq.len());
    }
}
