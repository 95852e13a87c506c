//! Randomized oracles for the sparse-vector sums: every kernel must match
//! a plain reference kept in this file bit for bit.
//!
//! * [`SparseVector::from_pairs`] against a `BTreeMap` accumulator that
//!   adds each dimension's values in input order, on inputs with
//!   duplicates, negative values, sums that cancel to exactly `0.0`,
//!   `±0.0`, order-sensitive magnitudes and dimensions near `u32::MAX`.
//! * [`SparseVector::sum_of`] against folding
//!   [`SparseVector::add_assign`] over the slice, empty vectors and the
//!   empty slice included.
//! * The document-scope aggregate context
//!   ([`OccurrenceIndex::occurrences_and_context`] at
//!   [`ContextScope::Document`]) against the per-occurrence sum: each
//!   occurrence's context counted here from the document's tokens, then
//!   folded with `add_assign` in occurrence order.
//!
//! Driven by the workspace's own deterministic PRNG (no external
//! dependencies).

use boe_corpus::context::{ContextOptions, ContextScope, Occurrence};
use boe_corpus::corpus::CorpusBuilder;
use boe_corpus::occurrence::OccurrenceIndex;
use boe_corpus::{Corpus, SparseVector};
use boe_rng::StdRng;
use boe_textkit::{Language, TokenId};
use std::collections::BTreeMap;

const CASES: usize = 300;

fn assert_bit_identical(got: &SparseVector, want: &[(u32, f64)], what: &str) {
    let got = got.entries();
    assert_eq!(got.len(), want.len(), "{what}: nnz");
    for (&(dg, vg), &(dw, vw)) in got.iter().zip(want) {
        assert_eq!(dg, dw, "{what}: dimension");
        assert_eq!(vg.to_bits(), vw.to_bits(), "{what}: value at dim {dg}");
    }
}

/// The norm a vector with `entries` must cache: `+0.0` plus each square
/// in dimension order, so an empty vector's norm is `+0.0`.
fn norm_of(entries: &[(u32, f64)]) -> f64 {
    let mut sq = 0.0;
    for (_, v) in entries {
        sq += v * v;
    }
    sq.sqrt()
}

/// The reference: per dimension, `0.0` plus each value in input order;
/// zero sums dropped; dimensions ascending.
fn from_pairs_reference(pairs: &[(u32, f64)]) -> Vec<(u32, f64)> {
    let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
    for &(d, v) in pairs {
        *acc.entry(d).or_insert(0.0) += v;
    }
    acc.into_iter().filter(|&(_, v)| v != 0.0).collect()
}

/// A dimension: mostly from a small pool (so duplicates are common),
/// sometimes near `u32::MAX` or anywhere.
fn rand_dim(rng: &mut StdRng) -> u32 {
    match rng.gen_range(0u32..10) {
        0 => u32::MAX - rng.gen_range(0u32..3),
        1 => rng.gen::<u32>(),
        _ => rng.gen_range(0u32..12),
    }
}

/// A value whose sum depends on the order it is added in: counts,
/// fractions of both signs, `±0.0` and magnitudes that absorb small
/// addends (`1e16 + 1.0 − 1e16` is `0.0`, `1e16 − 1e16 + 1.0` is `1.0`).
fn rand_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..8) {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0e16,
        3 => -1.0e16,
        4 => f64::from(rng.gen_range(1u32..4)),
        5 => -f64::from(rng.gen_range(1u32..4)),
        _ => (rng.gen::<f64>() - 0.5) * 10.0,
    }
}

fn rand_pairs(rng: &mut StdRng) -> Vec<(u32, f64)> {
    let n = rng.gen_range(0usize..40);
    let mut pairs: Vec<(u32, f64)> = (0..n).map(|_| (rand_dim(rng), rand_value(rng))).collect();
    // Exact cancellations: a value and its negation on one dimension,
    // sometimes followed by another value there.
    for _ in 0..rng.gen_range(0usize..4) {
        let d = rand_dim(rng);
        let v = rand_value(rng);
        pairs.push((d, v));
        pairs.push((d, -v));
        if rng.gen_bool(0.5) {
            pairs.push((d, rand_value(rng)));
        }
    }
    // Shuffle so cancelling pairs are interleaved with the rest.
    for i in (1..pairs.len()).rev() {
        let j = rng.gen_range(0..=i as u32) as usize;
        pairs.swap(i, j);
    }
    pairs
}

#[test]
fn from_pairs_matches_an_in_order_accumulator() {
    let mut rng = StdRng::seed_from_u64(0x5EC7);
    for case in 0..CASES {
        let pairs = rand_pairs(&mut rng);
        let want = from_pairs_reference(&pairs);
        let got = SparseVector::from_pairs(pairs.iter().copied());
        let what = format!("case {case}: {pairs:?}");
        assert_bit_identical(&got, &want, &what);
        assert_eq!(
            got.norm().to_bits(),
            norm_of(&want).to_bits(),
            "{what}: norm"
        );
    }
}

#[test]
fn from_pairs_matches_the_accumulator_across_blocks() {
    // Inputs longer than one 4096-pair sort block, so sums carry from
    // block to block: few distinct dimensions (long runs split across
    // blocks), and more distinct dimensions than one block holds (the
    // blocks grow with the entries), each in an order-sensitive mix.
    let mut rng = StdRng::seed_from_u64(0x5ECA);
    for (case, (n, dims)) in [(9_000, 7u32), (20_000, 300), (30_000, 12_000), (4_097, 2)]
        .into_iter()
        .enumerate()
    {
        let pairs: Vec<(u32, f64)> = (0..n)
            .map(|_| {
                let d = match rng.gen_range(0u32..20) {
                    0 => u32::MAX - rng.gen_range(0u32..3),
                    _ => rng.gen_range(0..dims),
                };
                (d, rand_value(&mut rng))
            })
            .collect();
        let want = from_pairs_reference(&pairs);
        let got = SparseVector::from_pairs(pairs.iter().copied());
        let what = format!("case {case}: {n} pairs over {dims} dimensions");
        assert_bit_identical(&got, &want, &what);
        assert_eq!(got.norm().to_bits(), norm_of(&want).to_bits(), "{what}");
    }
}

/// A borrowed list of `(dim, value)` pairs.
type Pairs<'a> = &'a [(u32, f64)];

#[test]
fn from_pairs_fixed_cases() {
    let cases: [(Pairs, Pairs); 6] = [
        (&[], &[]),
        (&[(3, 0.0), (3, -0.0), (1, -0.0)], &[]),
        (&[(7, 1.0e16), (7, 1.0), (7, -1.0e16)], &[]),
        (&[(7, 1.0e16), (7, -1.0e16), (7, 1.0)], &[(7, 1.0)]),
        (
            &[
                (u32::MAX, 2.0),
                (0, 1.0),
                (u32::MAX, 0.5),
                (u32::MAX - 1, -3.0),
            ],
            &[(0, 1.0), (u32::MAX - 1, -3.0), (u32::MAX, 2.5)],
        ),
        (
            &[(5, 2.0), (5, -2.0), (5, 4.0), (2, -1.5)],
            &[(2, -1.5), (5, 4.0)],
        ),
    ];
    for (pairs, want) in cases {
        assert_eq!(from_pairs_reference(pairs), want, "reference {pairs:?}");
        let got = SparseVector::from_pairs(pairs.iter().copied());
        assert_bit_identical(&got, want, &format!("{pairs:?}"));
    }
}

/// Zero-free vectors (every `from_pairs` result is), some empty.
fn rand_vectors(rng: &mut StdRng) -> Vec<SparseVector> {
    let n = rng.gen_range(0usize..7);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.15) {
                SparseVector::new()
            } else {
                SparseVector::from_pairs(rand_pairs(rng))
            }
        })
        .collect()
}

#[test]
fn sum_of_matches_the_add_assign_fold() {
    let mut rng = StdRng::seed_from_u64(0x5EC8);
    for case in 0..CASES {
        let vectors = rand_vectors(&mut rng);
        let mut fold = SparseVector::new();
        for v in &vectors {
            fold.add_assign(v);
        }
        let got = SparseVector::sum_of(&vectors);
        let what = format!("case {case}");
        assert_bit_identical(&got, fold.entries(), &what);
        assert_eq!(got.norm().to_bits(), fold.norm().to_bits(), "{what}: norm");
    }
}

/// Words that repeat within and across documents, with stopwords and
/// punctuation that contexts must skip.
const WORDS: &[&str] = &[
    "cornea",
    "corneal",
    "keratitis",
    "tissue",
    "tissues",
    "graft",
    "grafts",
    "the",
    "of",
    "and",
    "membrane",
    "injury",
    "injuries",
    ",",
    "severe",
];

fn rand_corpus(rng: &mut StdRng) -> Corpus {
    let mut b = CorpusBuilder::new(Language::English);
    for _ in 0..rng.gen_range(1usize..6) {
        let mut text = String::new();
        for _ in 0..rng.gen_range(1usize..=4) {
            for w in 0..rng.gen_range(1usize..=12) {
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

/// The document-scope context of one occurrence, counted here: every
/// lexical, non-stopword token of the document outside the phrase, in
/// raw or stem dimensions.
fn doc_context(corpus: &Corpus, occ: Occurrence, len: usize, stemmed: bool) -> SparseVector {
    let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
    for (si, s) in corpus.doc(occ.doc).sentences.iter().enumerate() {
        for (i, (&t, tag)) in s.tokens.iter().zip(&s.tags).enumerate() {
            let own = si == occ.sentence && (occ.start..occ.start + len).contains(&i);
            if own || corpus.is_stopword(t) || !tag.is_term_internal() {
                continue;
            }
            let dim = if stemmed { corpus.stem_dim(t) } else { t.0 };
            *counts.entry(dim).or_insert(0) += 1;
        }
    }
    SparseVector::from_counts(counts)
}

#[test]
fn document_aggregate_matches_the_per_occurrence_sum() {
    let mut rng = StdRng::seed_from_u64(0x5EC9);
    for case in 0..CASES / 3 {
        let c = rand_corpus(&mut rng);
        let index = OccurrenceIndex::build(&c);
        // Every 1- and 2-token phrase of the first sentence, repeated
        // tokens and overlapping matches included.
        let first = &c.docs()[0].sentences[0].tokens;
        let phrases: Vec<Vec<TokenId>> = (0..first.len())
            .flat_map(|s| (1..=2.min(first.len() - s)).map(move |l| first[s..s + l].to_vec()))
            .collect();
        for stemmed in [false, true] {
            let opts = ContextOptions {
                window: None,
                stemmed,
                scope: ContextScope::Document,
            };
            for phrase in &phrases {
                let (occs, got) = index.occurrences_and_context(&c, phrase, opts);
                assert!(!occs.is_empty(), "case {case}: the phrase occurs");
                let mut want = SparseVector::new();
                for &o in &occs {
                    want.add_assign(&doc_context(&c, o, phrase.len(), stemmed));
                }
                let what = format!("case {case}, stemmed {stemmed}, {phrase:?}");
                assert_bit_identical(&got, want.entries(), &what);
                assert_eq!(got.norm().to_bits(), want.norm().to_bits(), "{what}: norm");
            }
        }
    }
}
