//! The corpus stem map against a reference kept in this file: stem every
//! vocabulary entry in id order and intern the stems in that order.
//! [`Corpus::stem_dim`] must give the reference dimension for every
//! token, and [`Corpus::stem_text`] the reference stem for every
//! dimension, on seeded random English, French and Spanish corpora
//! whose word pools mix inflectional variants.
//!
//! The map stems the vocabulary in parallel chunks, so every corpus is
//! checked at 1, 2, 3 and 8 threads, each time on a fresh copy whose
//! map is not built yet. One corpus per language has a vocabulary of
//! several thousand words, enough for several chunks.

use boe_corpus::corpus::CorpusBuilder;
use boe_corpus::Corpus;
use boe_rng::StdRng;
use boe_textkit::{stem, Language, TokenId, Vocabulary};

const CASES: usize = 12;
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Per language: word pools with several inflected forms per stem.
fn words(language: Language) -> &'static [&'static str] {
    match language {
        Language::English => &[
            "graft", "grafts", "grafted", "grafting", "heal", "heals", "healing", "cornea",
            "corneal", "corneas", "injury", "injuries", "scar", "scarring", "scars",
        ],
        Language::French => &[
            "greffe",
            "greffes",
            "greffé",
            "greffée",
            "kératite",
            "kératites",
            "cornée",
            "cornéen",
            "cornéenne",
            "lésion",
            "lésions",
            "sévère",
            "sévères",
        ],
        Language::Spanish => &[
            "úlcera",
            "úlceras",
            "córnea",
            "corneal",
            "corneales",
            "membrana",
            "membranas",
            "amniótica",
            "amnióticas",
            "lesión",
            "lesiones",
            "injerto",
            "injertos",
        ],
    }
}

fn rand_corpus(rng: &mut StdRng, language: Language) -> Corpus {
    let pool = words(language);
    let mut b = CorpusBuilder::new(language);
    for _ in 0..rng.gen_range(1usize..5) {
        let mut text = String::new();
        for _ in 0..rng.gen_range(1usize..=3) {
            for w in 0..rng.gen_range(1usize..=8) {
                if w > 0 {
                    text.push(' ');
                }
                text.push_str(pool[rng.gen_range(0..pool.len() as u32) as usize]);
            }
            text.push_str(". ");
        }
        b.add_text(&text);
    }
    b.build()
}

/// The reference: every vocabulary entry stemmed in id order, its stem
/// interned in that order.
fn reference(corpus: &Corpus) -> (Vec<u32>, Vocabulary) {
    let mut stems = Vocabulary::new();
    let dims = corpus
        .vocab()
        .iter()
        .map(|(_, text)| stems.intern(&stem::stem(corpus.language(), text)).0)
        .collect();
    (dims, stems)
}

/// A corpus of many distinct words: syllable stems, each written with
/// the language's inflectional endings.
fn large_corpus(rng: &mut StdRng, language: Language) -> Corpus {
    const SYLLABLES: [&str; 12] = [
        "ka", "lo", "mi", "ne", "ru", "sa", "te", "vo", "bi", "da", "fe", "go",
    ];
    let endings: &[&str] = match language {
        Language::English => &["", "s", "ed", "ing"],
        Language::French => &["", "s", "e", "es"],
        Language::Spanish => &["", "s", "es", "as"],
    };
    let mut b = CorpusBuilder::new(language);
    let mut text = String::new();
    for a in SYLLABLES {
        for m in SYLLABLES {
            for z in SYLLABLES {
                let ending = endings[rng.gen_range(0..endings.len() as u32) as usize];
                text.push_str(&format!("{a}{m}{z}r{ending} "));
            }
            text.push_str(". ");
        }
    }
    b.add_text(&text);
    b.build()
}

/// `c`'s stem map, built at the current thread count, against the
/// reference; returns how many tokens conflated with another.
fn check(c: &Corpus, what: &str) -> usize {
    let (dims, stems) = reference(c);
    for (id, text) in c.vocab().iter() {
        assert_eq!(c.stem_dim(id), dims[id.index()], "{what}: {text}");
    }
    for dim in 0..stems.len() as u32 {
        assert_eq!(
            c.stem_text(dim),
            Some(stems.text(TokenId(dim))),
            "{what}: dimension {dim}"
        );
    }
    assert_eq!(c.stem_text(stems.len() as u32), None);
    c.vocab().len() - stems.len()
}

#[test]
fn stem_map_matches_the_vocabulary_order_reference() {
    for threads in THREADS {
        boe_par::set_threads(Some(threads));
        // The same corpora at every thread count, each generated afresh
        // so its map is built at this one.
        let mut rng = StdRng::seed_from_u64(0x57E3);
        for language in [Language::English, Language::French, Language::Spanish] {
            let mut conflated = 0;
            for case in 0..CASES {
                let c = rand_corpus(&mut rng, language);
                conflated += check(&c, &format!("{language:?} case {case}, {threads}t"));
            }
            let large = large_corpus(&mut rng, language);
            assert!(large.vocab().len() > 1000, "{language:?}: small vocabulary");
            conflated += check(&large, &format!("{language:?} large, {threads}t"));
            assert!(
                conflated > 0,
                "{language:?}: no inflectional variant conflated"
            );
        }
    }
    boe_par::set_threads(None);
}
