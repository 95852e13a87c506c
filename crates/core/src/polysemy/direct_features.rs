//! The 11 direct (text-level) polysemy features.
//!
//! All are computed from the corpus alone. The discriminative intuition:
//! a polysemic term occurs in *heterogeneous* contexts — high context
//! diversity and entropy, low self-similarity between its occurrence
//! contexts.

use boe_corpus::context::{context_vector, ContextOptions, ContextScope};
use boe_corpus::occurrence::OccurrenceIndex;
use boe_corpus::stats::CoocCounts;
use boe_corpus::{Corpus, SparseVector};
use boe_textkit::TokenId;

/// Names of the 11 direct features, index-aligned with
/// [`direct_features`]'s output.
pub const DIRECT_FEATURE_NAMES: [&str; 11] = [
    "char_length",
    "word_count",
    "term_frequency",
    "document_frequency",
    "idf",
    "neighbour_diversity",
    "context_entropy",
    "mean_context_self_similarity",
    "context_similarity_variance",
    "mean_sentence_length",
    "burstiness",
];

/// Compute the 11 direct features of `phrase` over `corpus`.
///
/// `cooc` must be windowed co-occurrence counts of the same corpus (they
/// are shared across terms, so the caller builds them once). All
/// occurrence-derived features (tf, df, contexts, sentence lengths) come
/// from a single resolution through `occ`.
pub fn direct_features(
    corpus: &Corpus,
    occ: &OccurrenceIndex,
    cooc: &CoocCounts,
    phrase: &[TokenId],
    surface: &str,
) -> [f64; 11] {
    let occs = occ.find_occurrences(corpus, phrase);
    let tf = occs.len() as u32;
    // Occurrences arrive grouped by document (ascending), so distinct
    // documents are counted at the group boundaries.
    let df = occs
        .iter()
        .zip(occs.iter().skip(1))
        .filter(|(a, b)| a.doc != b.doc)
        .count() as f64
        + if occs.is_empty() { 0.0 } else { 1.0 };
    let n_docs = corpus.len() as f64;
    let idf = ((n_docs + 1.0) / (df + 1.0)).ln() + 1.0;

    // Neighbour diversity & entropy from the head word's co-occurrences
    // (for multi-word terms the head noun carries the sense signal; we
    // pool over all component words, in phrase then list order — the
    // order fixes the entropy's float bits).
    let pooled = || phrase.iter().flat_map(|&t| cooc.neighbours(t));
    let diversity = pooled().count() as f64;
    let total: f64 = pooled().map(|&(_, c)| f64::from(c)).sum();
    let entropy = if total > 0.0 {
        pooled()
            .map(|&(_, c)| {
                let p = f64::from(c) / total;
                -p * p.ln()
            })
            .sum()
    } else {
        0.0
    };

    // Context self-similarity: mean and variance of cosine between each
    // occurrence context and the aggregate context. Polysemic terms have
    // a lower mean and a higher variance.
    let opts = ContextOptions {
        window: Some(6),
        stemmed: false,
        scope: ContextScope::Sentence,
    };
    let ctxs: Vec<SparseVector> = occs
        .iter()
        .map(|&o| context_vector(corpus, o, phrase.len(), opts))
        .collect();
    let (mean_sim, var_sim) = context_self_similarity(&ctxs);

    // Mean sentence length over occurrences.
    let mean_sent_len = if occs.is_empty() {
        0.0
    } else {
        occs.iter()
            .map(|o| corpus.doc(o.doc).sentences[o.sentence].len() as f64)
            .sum::<f64>()
            / occs.len() as f64
    };

    let burstiness = if df > 0.0 { f64::from(tf) / df } else { 0.0 };

    [
        surface.chars().count() as f64,
        phrase.len() as f64,
        f64::from(tf),
        df,
        idf,
        diversity,
        entropy,
        mean_sim,
        var_sim,
        mean_sent_len,
        burstiness,
    ]
}

/// Mean and variance of cosine(context_i, sum of the other contexts).
///
/// Precondition: every context holds integer counts, as the unstemmed
/// [`context_vector`] builds them. Every sum below is then an exact
/// integer in `f64`, whatever its order, so the leave-one-out cosine
/// comes from `c` and the total `T` alone, without building `T − c`:
/// `c·(T−c) = Σ c_i(T_i − c_i)` and `‖T−c‖² = ΣT² − Σ(2T_i c_i − c_i²)`,
/// both over `c`'s entries. The result is bit-identical to
/// `c.cosine(&(T − c))`.
fn context_self_similarity(ctxs: &[SparseVector]) -> (f64, f64) {
    if ctxs.len() < 2 {
        return (1.0, 0.0);
    }
    let total = SparseVector::sum_of(ctxs);
    let total_sq: f64 = total.iter().map(|(_, t)| t * t).sum();
    let sims: Vec<f64> = ctxs
        .iter()
        .map(|c| {
            let (mut dot, mut removed_sq) = (0.0, 0.0);
            for (d, ci) in c.iter() {
                let ti = total.get(d);
                dot += ci * (ti - ci);
                removed_sq += 2.0 * ti * ci - ci * ci;
            }
            // As `SparseVector::cosine`: 0 when either side is zero.
            let denom = c.norm() * (total_sq - removed_sq).sqrt();
            if denom == 0.0 {
                0.0
            } else {
                (dot / denom).clamp(-1.0, 1.0)
            }
        })
        .collect();
    let n = sims.len() as f64;
    let mean = sims.iter().sum::<f64>() / n;
    let var = sims.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    (mean, var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::corpus::CorpusBuilder;
    use boe_textkit::Language;

    fn setup(texts: &[&str]) -> (Corpus, OccurrenceIndex, CoocCounts) {
        let mut b = CorpusBuilder::new(Language::English);
        for t in texts {
            b.add_text(t);
        }
        let c = b.build();
        let ox = OccurrenceIndex::build(&c);
        let cc = CoocCounts::from_corpus(&c, 5);
        (c, ox, cc)
    }

    fn features_of(c: &Corpus, ox: &OccurrenceIndex, cc: &CoocCounts, phrase: &str) -> [f64; 11] {
        let ids = c.phrase_ids(phrase).expect("known phrase");
        direct_features(c, ox, cc, &ids, phrase)
    }

    #[test]
    fn basic_counts_are_right() {
        let (c, ix, cc) = setup(&[
            "corneal injuries heal.",
            "corneal injuries persist. corneal injuries recur.",
        ]);
        let f = features_of(&c, &ix, &cc, "corneal injuries");
        assert_eq!(f[0], "corneal injuries".chars().count() as f64);
        assert_eq!(f[1], 2.0, "word count");
        assert_eq!(f[2], 3.0, "tf");
        assert_eq!(f[3], 2.0, "df");
        assert!((f[10] - 1.5).abs() < 1e-12, "burstiness tf/df");
    }

    #[test]
    fn monosemous_term_has_higher_context_similarity() {
        // "monox" always appears with the same companions; "polyx" appears
        // in two disjoint context families.
        let (c, ix, cc) = setup(&[
            "monox alpha beta gamma.",
            "monox alpha beta delta.",
            "monox alpha gamma delta.",
            "polyx alpha beta gamma.",
            "polyx omega sigma theta.",
            "polyx omega sigma kappa.",
        ]);
        let f_mono = features_of(&c, &ix, &cc, "monox");
        let f_poly = features_of(&c, &ix, &cc, "polyx");
        assert!(
            f_mono[7] > f_poly[7],
            "mean self-sim: monox {} vs polyx {}",
            f_mono[7],
            f_poly[7]
        );
    }

    #[test]
    fn polysemic_term_has_more_diverse_neighbours() {
        let (c, ix, cc) = setup(&[
            "monox alpha beta.",
            "monox alpha beta.",
            "polyx alpha beta.",
            "polyx omega sigma.",
        ]);
        let f_mono = features_of(&c, &ix, &cc, "monox");
        let f_poly = features_of(&c, &ix, &cc, "polyx");
        assert!(f_poly[5] > f_mono[5], "diversity");
        assert!(f_poly[6] > f_mono[6], "entropy");
    }

    #[test]
    fn unseen_phrase_yields_zeroish_features() {
        let (c, ix, cc) = setup(&["alpha beta gamma."]);
        let alpha = c.vocab().get("alpha").expect("id");
        let gamma = c.vocab().get("gamma").expect("id");
        // "alpha gamma" never occurs adjacently.
        let f = direct_features(&c, &ix, &cc, &[alpha, gamma], "alpha gamma");
        assert_eq!(f[2], 0.0);
        assert_eq!(f[3], 0.0);
        assert_eq!(f[9], 0.0, "no occurrences, no sentence length");
    }

    /// The leave-one-out as first written: `T − c` built per context.
    fn clone_based(ctxs: &[SparseVector]) -> (f64, f64) {
        if ctxs.len() < 2 {
            return (1.0, 0.0);
        }
        let total = SparseVector::sum_of(ctxs);
        let sims: Vec<f64> = ctxs
            .iter()
            .map(|c| {
                let mut rest = total.clone();
                let mut neg = c.clone();
                neg.scale(-1.0);
                rest.add_assign(&neg);
                c.cosine(&rest)
            })
            .collect();
        let n = sims.len() as f64;
        let mean = sims.iter().sum::<f64>() / n;
        let var = sims.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        (mean, var)
    }

    fn counts(pairs: &[(u32, u32)]) -> SparseVector {
        SparseVector::from_counts(pairs.iter().copied())
    }

    /// `context_self_similarity` and the clone-based formula, as bits.
    fn both(ctxs: &[SparseVector]) -> ((u64, u64), (u64, u64)) {
        let bits = |(m, v): (f64, f64)| (m.to_bits(), v.to_bits());
        (bits(context_self_similarity(ctxs)), bits(clone_based(ctxs)))
    }

    #[test]
    fn single_occurrence_is_fully_self_similar() {
        let (got, want) = both(&[counts(&[(1, 2), (4, 1)])]);
        assert_eq!(got, want);
        assert_eq!(got, (1.0f64.to_bits(), 0.0f64.to_bits()));
        assert_eq!(both(&[]).0, got);
    }

    #[test]
    fn empty_context_has_zero_cosine() {
        // An all-stopword window yields an empty context vector.
        let ctxs = [
            SparseVector::new(),
            counts(&[(3, 1)]),
            counts(&[(3, 1), (7, 2)]),
        ];
        let (got, want) = both(&ctxs);
        assert_eq!(got, want);
        let alone = [SparseVector::new(), SparseVector::new()];
        let (got, want) = both(&alone);
        assert_eq!(got, want);
        assert_eq!(got, (0.0f64.to_bits(), 0.0f64.to_bits()));
    }

    #[test]
    fn context_with_empty_remainder_has_zero_cosine() {
        // The first context is the whole total, so `T − c` is empty.
        let ctxs = [counts(&[(2, 1), (5, 3)]), SparseVector::new()];
        let (got, want) = both(&ctxs);
        assert_eq!(got, want);
        assert_eq!(got, (0.0f64.to_bits(), 0.0f64.to_bits()));
    }

    #[test]
    fn duplicated_contexts_match_the_clone_based_formula() {
        let same = counts(&[(1, 1), (2, 3), (9, 1)]);
        let (got, want) = both(&[same.clone(), same.clone(), same.clone()]);
        assert_eq!(got, want);
        let mixed = [
            same.clone(),
            counts(&[(2, 1), (4, 2)]),
            same,
            counts(&[(4, 1), (9, 5), (11, 1)]),
        ];
        let (got, want) = both(&mixed);
        assert_eq!(got, want);
    }

    #[test]
    fn all_features_finite() {
        let (c, ix, cc) = setup(&["corneal injuries heal.", "corneal injuries persist."]);
        let f = features_of(&c, &ix, &cc, "corneal injuries");
        assert!(f.iter().all(|v| v.is_finite()), "{f:?}");
    }
}
