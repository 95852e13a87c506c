//! Randomized equivalence: the positional [`OccurrenceIndex`] must
//! reproduce a naive full-corpus scan (kept in this file as the oracle)
//! bit for bit — same occurrences in the same order, same aggregate
//! context vectors — on seeded random corpora, including accented
//! French/Spanish surfaces and phrases that only ever span a sentence
//! boundary (which must match nowhere).
//!
//! Driven by the workspace's own deterministic PRNG (no external
//! dependencies).

use boe_corpus::context::{
    context_vector, ContextOptions, ContextScope, DocContextCache, Occurrence, StemMap,
};
use boe_corpus::corpus::CorpusBuilder;
use boe_corpus::occurrence::OccurrenceIndex;
use boe_corpus::{Corpus, SparseVector};
use boe_rng::StdRng;
use boe_textkit::{Language, TokenId};

const CASES: usize = 40;

/// The oracle: every occurrence of `phrase` (exact adjacent token-id
/// sequence), found by scanning every sentence of the corpus in reading
/// order.
fn find_occurrences_naive(corpus: &Corpus, phrase: &[TokenId]) -> Vec<Occurrence> {
    let mut out = Vec::new();
    if phrase.is_empty() {
        return out;
    }
    for doc in corpus.docs() {
        for (si, s) in doc.sentences.iter().enumerate() {
            for (start, window) in s.tokens.windows(phrase.len()).enumerate() {
                if window == phrase {
                    out.push(Occurrence {
                        doc: doc.id,
                        sentence: si,
                        start,
                    });
                }
            }
        }
    }
    out
}

/// The oracle's aggregate context: the naive scan's occurrences, one
/// [`context_vector`] each, summed in order.
fn aggregate_context(
    corpus: &Corpus,
    phrase: &[TokenId],
    opts: ContextOptions,
    stems: Option<&StemMap>,
) -> SparseVector {
    let vectors: Vec<SparseVector> = find_occurrences_naive(corpus, phrase)
        .into_iter()
        .map(|occ| context_vector(corpus, occ, phrase.len(), opts, stems))
        .collect();
    SparseVector::sum_of(&vectors)
}

/// Word pool mixing plain ASCII with accented French/Spanish surfaces —
/// the index must treat multi-byte lowercase words like any other token.
const WORDS: &[&str] = &[
    "cornea",
    "keratitis",
    "tissue",
    "graft",
    "membrane",
    "kératite",
    "cornée",
    "sévère",
    "greffé",
    "lésion",
    "úlcera",
    "córnea",
    "membrana",
    "amniótica",
    "señal",
    "año",
];

fn rand_corpus(rng: &mut StdRng, language: Language) -> Corpus {
    let mut b = CorpusBuilder::new(language);
    let docs = rng.gen_range(1usize..5);
    for _ in 0..docs {
        let mut text = String::new();
        for _ in 0..rng.gen_range(1usize..=3) {
            let words = rng.gen_range(1usize..=8);
            for w in 0..words {
                if w > 0 {
                    text.push(' ');
                }
                text.push_str(WORDS[rng.gen_range(0..WORDS.len() as u32) as usize]);
            }
            text.push_str(". ");
        }
        b.add_text(&text);
    }
    b.build()
}

/// Phrases worth checking against a corpus: every adjacent run of 1–3
/// tokens actually present (guaranteed hits), random token combinations
/// (mostly misses), and bigrams straddling each sentence boundary
/// (guaranteed non-matches unless they also occur inside a sentence).
fn probe_phrases(rng: &mut StdRng, c: &Corpus) -> Vec<Vec<TokenId>> {
    let mut phrases: Vec<Vec<TokenId>> = Vec::new();
    for doc in c.docs() {
        for (si, s) in doc.sentences.iter().enumerate() {
            for start in 0..s.tokens.len() {
                for len in 1..=3usize.min(s.tokens.len() - start) {
                    phrases.push(s.tokens[start..start + len].to_vec());
                }
            }
            // Cross-sentence bigram: last token here + first token of the
            // next sentence.
            if let Some(next) = doc.sentences.get(si + 1) {
                if let (Some(&a), Some(&b)) = (s.tokens.last(), next.tokens.first()) {
                    phrases.push(vec![a, b]);
                }
            }
        }
    }
    // Random pairs/triples over the corpus vocabulary.
    let all: Vec<TokenId> =
        c.docs()
            .iter()
            .flat_map(|d| &d.sentences)
            .fold(Vec::new(), |mut acc, s| {
                acc.extend_from_slice(&s.tokens);
                acc
            });
    for _ in 0..20 {
        let len = rng.gen_range(1usize..=3);
        let p: Vec<TokenId> = (0..len)
            .map(|_| all[rng.gen_range(0..all.len() as u32) as usize])
            .collect();
        phrases.push(p);
    }
    phrases.push(Vec::new()); // the empty phrase matches nothing in both
    phrases
}

fn assert_vectors_bit_identical(a: &SparseVector, b: &SparseVector, what: &str) {
    assert_eq!(a.nnz(), b.nnz(), "{what}: nnz");
    for ((da, xa), (db, xb)) in a.iter().zip(b.iter()) {
        assert_eq!(da, db, "{what}: dimension");
        assert_eq!(xa.to_bits(), xb.to_bits(), "{what}: value at dim {da}");
    }
}

#[test]
fn indexed_resolution_is_bit_identical_to_naive_scan() {
    let mut rng = StdRng::seed_from_u64(0x0CC1);
    let languages = [Language::English, Language::French, Language::Spanish];
    for case in 0..CASES {
        let language = languages[case % languages.len()];
        let c = rand_corpus(&mut rng, language);
        let stems = StemMap::build(&c);
        let indexed = OccurrenceIndex::build(&c);

        let phrases = probe_phrases(&mut rng, &c);
        let opts_grid = [
            ContextOptions {
                window: None,
                stemmed: false,
                scope: ContextScope::Sentence,
            },
            ContextOptions {
                window: Some(3),
                stemmed: true,
                scope: ContextScope::Sentence,
            },
            ContextOptions {
                window: None,
                stemmed: true,
                scope: ContextScope::Document,
            },
        ];

        for phrase in &phrases {
            let reference = find_occurrences_naive(&c, phrase);
            assert_eq!(
                indexed.find_occurrences(&c, phrase),
                reference,
                "case {case}: occurrences diverge"
            );
            assert_eq!(
                indexed.contains(&c, phrase),
                !reference.is_empty(),
                "case {case}: contains diverges"
            );
            for opts in opts_grid {
                let want = aggregate_context(&c, phrase, opts, Some(&stems));
                let got = indexed.aggregate_context(&c, phrase, opts, Some(&stems));
                assert_vectors_bit_identical(&got, &want, "aggregate context");
            }
        }

        // The document-scope context cache: per-occurrence vectors and
        // grouped aggregates must both match the direct construction.
        let doc_opts = opts_grid[2];
        let cache = DocContextCache::build(&c, doc_opts, Some(&stems));
        for phrase in &phrases {
            let occs = find_occurrences_naive(&c, phrase);
            for &o in &occs {
                let want = context_vector(&c, o, phrase.len(), doc_opts, Some(&stems));
                let got = cache.context_vector(o, phrase.len());
                assert_vectors_bit_identical(&got, &want, "cached context vector");
            }
            let want = aggregate_context(&c, phrase, doc_opts, Some(&stems));
            let got = cache.aggregate(&occs, phrase.len());
            assert_vectors_bit_identical(&got, &want, "cached aggregate");
        }

        // Batch harvesting: same results, input order preserved — at
        // document scope this also exercises the per-document
        // context-base cache.
        for opts in opts_grid {
            let batch = indexed.aggregate_contexts_for(&c, &phrases, opts, Some(&stems));
            assert_eq!(batch.len(), phrases.len());
            for (phrase, (occs, ctx)) in phrases.iter().zip(&batch) {
                assert_eq!(occs, &find_occurrences_naive(&c, phrase), "case {case}");
                let want = aggregate_context(&c, phrase, opts, Some(&stems));
                assert_vectors_bit_identical(ctx, &want, "batch context");
            }
        }
    }
}

#[test]
fn accented_surfaces_resolve_through_the_index() {
    let mut b = CorpusBuilder::new(Language::French);
    b.add_text("La kératite sévère abîme la cornée. Une greffe répare la cornée.");
    b.add_text("La kératite sévère persiste. Membrane amniotique sur la cornée.");
    let c = b.build();
    let ix = OccurrenceIndex::build(&c);
    let phrase = c
        .phrase_ids("kératite sévère")
        .expect("accented phrase interned");
    let occs = ix.find_occurrences(&c, &phrase);
    assert_eq!(occs, find_occurrences_naive(&c, &phrase));
    assert_eq!(occs.len(), 2, "one hit per document");

    // "cornée. Une greffe" spans a sentence boundary: the index must not
    // stitch positions across sentences.
    let cornee = c.phrase_ids("cornée").expect("known")[0];
    let greffe = c.phrase_ids("greffe").expect("known")[0];
    let cross = vec![cornee, greffe];
    assert!(ix.find_occurrences(&c, &cross).is_empty());
    assert!(find_occurrences_naive(&c, &cross).is_empty());

    let mut b = CorpusBuilder::new(Language::Spanish);
    b.add_text("La úlcera córnea empeora. La membrana amniótica cura la úlcera córnea.");
    let c = b.build();
    let ix = OccurrenceIndex::build(&c);
    let phrase = c
        .phrase_ids("úlcera córnea")
        .expect("accented phrase interned");
    let occs = ix.find_occurrences(&c, &phrase);
    assert_eq!(occs, find_occurrences_naive(&c, &phrase));
    assert_eq!(occs.len(), 2);
}
