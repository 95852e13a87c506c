//! Step II direct features against a reference built on public API
//! only: windowed pair counts recounted from the corpus into a
//! `BTreeMap`, neighbour lists found by filtering that map, occurrences
//! found by scanning the sentences, and the leave-one-out
//! self-similarity computed by building `T − c` for every context.
//! `direct_features` must reproduce it bit for bit, on EN/FR/ES worlds
//! with planted polysemy:
//!
//! * every vocabulary token as a one-word phrase, the frequent single
//!   words with their long neighbour lists included;
//! * every ontology term found in the corpus, resolved as the pipeline
//!   resolves it (accented French and Spanish surfaces included);
//!
//! both computed on `boe-par` at 1 and 8 threads. The thread-count
//! override is process-global, so this file holds a single test.

use bio_onto_enrich::corpus::context::{context_vector, ContextOptions, ContextScope, Occurrence};
use bio_onto_enrich::corpus::stats::CoocCounts;
use bio_onto_enrich::corpus::{Corpus, OccurrenceIndex, SparseVector};
use bio_onto_enrich::eval::world::{World, WorldConfig};
use bio_onto_enrich::par as boe_par;
use bio_onto_enrich::textkit::{Language, TokenId};
use bio_onto_enrich::workflow::linkage::terms_in_corpus;
use bio_onto_enrich::workflow::polysemy::direct_features;
use std::collections::{BTreeMap, BTreeSet};

/// Window of the co-occurrence counts Step II builds.
const WINDOW: usize = 5;

/// Pair counts keyed by `(min, max)`, recounted from the corpus: two
/// counted tokens (term-internal tag, not a stopword) pair when at most
/// `WINDOW` positions apart within a sentence.
fn pair_counts(corpus: &Corpus) -> BTreeMap<(TokenId, TokenId), u32> {
    let mut pairs = BTreeMap::new();
    for doc in corpus.docs() {
        for s in &doc.sentences {
            let counted =
                |i: usize| s.tags[i].is_term_internal() && !corpus.is_stopword(s.tokens[i]);
            for i in 0..s.tokens.len() {
                for j in i + 1..s.tokens.len().min(i + WINDOW + 1) {
                    let (a, b) = (s.tokens[i], s.tokens[j]);
                    if counted(i) && counted(j) && a != b {
                        *pairs.entry((a.min(b), a.max(b))).or_insert(0) += 1;
                    }
                }
            }
        }
    }
    pairs
}

/// Neighbours of `t` by filtering the pair map, by decreasing count then
/// increasing id.
fn neighbours(pairs: &BTreeMap<(TokenId, TokenId), u32>, t: TokenId) -> Vec<(TokenId, u32)> {
    let mut v: Vec<(TokenId, u32)> = pairs
        .iter()
        .filter_map(|(&(a, b), &c)| match (a == t, b == t) {
            (true, _) => Some((b, c)),
            (_, true) => Some((a, c)),
            _ => None,
        })
        .collect();
    v.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    v
}

/// Every exact occurrence of `phrase`, by scanning the sentences.
fn occurrences(corpus: &Corpus, phrase: &[TokenId]) -> Vec<Occurrence> {
    let mut out = Vec::new();
    for doc in corpus.docs() {
        for (si, s) in doc.sentences.iter().enumerate() {
            for (start, w) in s.tokens.windows(phrase.len()).enumerate() {
                if w == phrase {
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

/// Mean and variance of cosine(context_i, total − context_i), with the
/// remainder built as a vector for every context.
fn leave_one_out(ctxs: &[SparseVector]) -> (f64, f64) {
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

/// The 11 direct features from the reference parts above.
fn oracle_direct_features(
    corpus: &Corpus,
    pairs: &BTreeMap<(TokenId, TokenId), u32>,
    phrase: &[TokenId],
    surface: &str,
) -> [f64; 11] {
    let occs = occurrences(corpus, phrase);
    let tf = occs.len() as f64;
    let df = occs.iter().map(|o| o.doc).collect::<BTreeSet<_>>().len() as f64;
    let idf = ((corpus.len() as f64 + 1.0) / (df + 1.0)).ln() + 1.0;

    let counts: Vec<f64> = phrase
        .iter()
        .flat_map(|&t| neighbours(pairs, t))
        .map(|(_, c)| f64::from(c))
        .collect();
    let total: f64 = counts.iter().sum();
    let entropy = if total > 0.0 {
        counts
            .iter()
            .map(|&c| -(c / total) * (c / total).ln())
            .sum()
    } else {
        0.0
    };

    let opts = ContextOptions {
        window: Some(6),
        stemmed: false,
        scope: ContextScope::Sentence,
    };
    let ctxs: Vec<SparseVector> = occs
        .iter()
        .map(|&o| context_vector(corpus, o, phrase.len(), opts))
        .collect();
    let (mean_sim, var_sim) = leave_one_out(&ctxs);

    let mean_sent_len = if occs.is_empty() {
        0.0
    } else {
        occs.iter()
            .map(|o| corpus.doc(o.doc).sentences[o.sentence].len() as f64)
            .sum::<f64>()
            / tf
    };
    let burstiness = if df > 0.0 { tf / df } else { 0.0 };

    [
        surface.chars().count() as f64,
        phrase.len() as f64,
        tf,
        df,
        idf,
        counts.len() as f64,
        entropy,
        mean_sim,
        var_sim,
        mean_sent_len,
        burstiness,
    ]
}

fn world(lang: Language) -> World {
    World::generate(&WorldConfig {
        lang,
        n_concepts: 40,
        n_holdout: 6,
        abstracts_per_concept: 3,
        n_shared_synonyms: 4,
        n_ambiguous_new: 3,
        seed: 0x0AC1E,
        ..Default::default()
    })
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn direct_features_match_the_oracle_at_1_and_8_threads() {
    for lang in [Language::English, Language::French, Language::Spanish] {
        let w = world(lang);
        let corpus: &Corpus = &w.corpus;
        let occ = OccurrenceIndex::build(corpus);
        let terms: Vec<(String, Vec<TokenId>)> =
            terms_in_corpus(corpus, &w.reduced_ontology, &[], &occ)
                .into_iter()
                .map(|t| (t.key, t.tokens))
                .collect();
        assert!(terms.len() > 20, "{lang:?}: {} usable terms", terms.len());
        let phrases: Vec<(String, Vec<TokenId>)> = corpus
            .vocab()
            .iter()
            .map(|(t, s)| (s.to_owned(), vec![t]))
            .chain(terms)
            .collect();

        let pairs = pair_counts(corpus);
        let expected: Vec<Vec<u64>> = phrases
            .iter()
            .map(|(s, ids)| bits(&oracle_direct_features(corpus, &pairs, ids, s)))
            .collect();
        let max_diversity = expected
            .iter()
            .map(|f| f64::from_bits(f[5]))
            .fold(0.0, f64::max);
        assert!(
            max_diversity > 100.0,
            "{lang:?}: no frequent word with a long neighbour list ({max_diversity})"
        );

        let cooc = CoocCounts::from_corpus(corpus, WINDOW);
        for threads in [1, 8] {
            boe_par::set_threads(Some(threads));
            let rows = boe_par::par_map(&phrases, |(s, ids)| {
                direct_features(corpus, &occ, &cooc, ids, s)
            });
            for ((s, _), (row, want)) in phrases.iter().zip(rows.iter().zip(&expected)) {
                assert_eq!(&bits(row), want, "{lang:?} at {threads} thread(s): {s:?}");
            }
        }
        boe_par::set_threads(None);
    }
}
