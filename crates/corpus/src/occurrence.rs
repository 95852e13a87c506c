//! Index-backed occurrence resolution and context harvesting.
//!
//! The enrichment workflow keeps asking one question — *where does this
//! phrase occur, and what surrounds it?* — for ontology terms (Step IV's
//! inventory), candidate terms (Steps II–IV), and term pairs (the
//! relation graph). A full corpus scan per phrase would cost
//! O(ontology terms × corpus tokens) for the inventory build alone.
//!
//! [`OccurrenceIndex`] answers the question through the positional
//! [`InvertedIndex`]: pick the phrase token with the smallest corpus
//! frequency (the *rarest* token), walk only its positions in the
//! index's flat token stream, and confirm each proposed start by
//! comparing the stream window there with the phrase. A sentinel ends
//! every sentence in the stream, so no confirmed window crosses a
//! sentence or document. Cost becomes proportional to the rarest token's
//! occurrences — for typical ontology terms, orders of magnitude below a
//! corpus scan.
//!
//! It is also the one place that decides how a phrase's contexts are
//! built. At [`ContextScope::Sentence`] every occurrence's vector comes
//! from [`context_vector`]. At [`ContextScope::Document`] a context is
//! the whole document minus the phrase, so the index keeps a
//! per-document cache, built on the first document-scope query (one per
//! `stemmed` value) and shared by every later phrase and stage.
//!
//! ## Determinism contract
//!
//! Every query is **bit-identical** to a full scan of every sentence,
//! including order: the stream is the corpus in reading order and each
//! token's positions ascend, so anchoring on a fixed phrase offset
//! enumerates matches in exactly the `(doc, sentence, start)` reading
//! order. Contexts are bit-identical to [`context_vector`] per
//! occurrence, summed in order: context values are exact integer counts,
//! so the cache's subtractions reproduce them exactly.
//! `crates/corpus/tests/occurrence_index_equality.rs` checks both
//! against a plain scan on randomized corpora.

use crate::context::{context_dim, context_vector, ContextOptions, ContextScope, Occurrence};
use crate::corpus::Corpus;
use crate::doc::DocId;
use crate::index::InvertedIndex;
use crate::vector::SparseVector;
use boe_textkit::TokenId;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Phrase-occurrence resolution and context harvesting shared across the
/// whole pipeline run.
///
/// Build once per `(corpus, run)` — with [`OccurrenceIndex::build`], or
/// from an [`InvertedIndex`] already built over the corpus — and share
/// by reference (or `Arc`). All query methods take the corpus the index
/// was built over; handing them a different corpus is a logic error
/// (caught by `debug_assert`).
#[derive(Debug)]
pub struct OccurrenceIndex {
    index: InvertedIndex,
    /// Document-scope context caches, raw (`[0]`) and stemmed (`[1]`),
    /// each built on the first document-scope query that needs it.
    doc_contexts: [OnceLock<DocContextCache>; 2],
}

impl From<InvertedIndex> for OccurrenceIndex {
    fn from(index: InvertedIndex) -> Self {
        OccurrenceIndex {
            index,
            doc_contexts: Default::default(),
        }
    }
}

impl OccurrenceIndex {
    /// Build the positional index over `corpus` (two linear passes).
    pub fn build(corpus: &Corpus) -> Self {
        InvertedIndex::build(corpus).into()
    }

    /// All occurrences of `phrase`, in `(doc, sentence, start)` order.
    pub fn find_occurrences(&self, corpus: &Corpus, phrase: &[TokenId]) -> Vec<Occurrence> {
        debug_assert_eq!(
            self.index.doc_count(),
            corpus.len(),
            "index/corpus mismatch"
        );
        let mut out = Vec::new();
        self.walk_phrase(phrase, |occ| {
            out.push(occ);
            true
        });
        out
    }

    /// Whether `phrase` occurs at least once — equivalent to
    /// `!find_occurrences(..).is_empty()` but stops at the first match.
    pub fn contains(&self, corpus: &Corpus, phrase: &[TokenId]) -> bool {
        debug_assert_eq!(
            self.index.doc_count(),
            corpus.len(),
            "index/corpus mismatch"
        );
        let mut found = false;
        self.walk_phrase(phrase, |_| {
            found = true;
            false
        });
        found
    }

    /// The context vector of every occurrence of `phrase`, in occurrence
    /// order — what Step III clusters.
    pub fn contexts(
        &self,
        corpus: &Corpus,
        phrase: &[TokenId],
        opts: ContextOptions,
    ) -> Vec<SparseVector> {
        let occs = self.find_occurrences(corpus, phrase);
        match self.doc_cache(corpus, opts) {
            Some(cache) => occs
                .iter()
                .map(|&o| cache.context_vector(o, phrase.len()))
                .collect(),
            None => occs
                .iter()
                .map(|&o| context_vector(corpus, o, phrase.len(), opts))
                .collect(),
        }
    }

    /// The occurrences of `phrase` and their summed context — what Step
    /// IV compares with cosine — from one positional resolution.
    pub fn occurrences_and_context(
        &self,
        corpus: &Corpus,
        phrase: &[TokenId],
        opts: ContextOptions,
    ) -> (Vec<Occurrence>, SparseVector) {
        let occs = self.find_occurrences(corpus, phrase);
        let context = match self.doc_cache(corpus, opts) {
            Some(cache) => cache.aggregate(&occs, phrase.len()),
            None => {
                let vectors: Vec<SparseVector> = occs
                    .iter()
                    .map(|&o| context_vector(corpus, o, phrase.len(), opts))
                    .collect();
                SparseVector::sum_of(&vectors)
            }
        };
        (occs, context)
    }

    /// The document-scope cache for `opts.stemmed`, built on first use;
    /// `None` at sentence scope, which builds every context directly.
    fn doc_cache(&self, corpus: &Corpus, opts: ContextOptions) -> Option<&DocContextCache> {
        (opts.scope == ContextScope::Document).then(|| {
            self.doc_contexts[usize::from(opts.stemmed)]
                .get_or_init(|| DocContextCache::build(corpus, opts.stemmed))
        })
    }

    /// Calls `emit` per occurrence in `(doc, sentence, start)` order
    /// (the index's rarest-token walk); `emit` returning `false` stops
    /// the walk.
    fn walk_phrase(&self, phrase: &[TokenId], mut emit: impl FnMut(Occurrence) -> bool) {
        self.index.walk_phrase(phrase, |doc, sentence, start| {
            emit(Occurrence {
                doc,
                sentence: sentence as usize,
                start: start as usize,
            })
        });
    }
}

/// Precomputed per-document context bases for [`ContextScope::Document`].
///
/// At document scope every occurrence's context is the whole document
/// minus the phrase's own tokens, so building it from scratch repeats
/// the stopword/tag filtering and stem lookups of the entire document
/// per occurrence. This cache does that work once per document; each
/// occurrence context is then the cached base minus the dimensions at
/// the occupied positions. Context values are exact integer counts, so
/// the subtraction reproduces [`context_vector`]'s output bit for bit.
#[derive(Debug)]
struct DocContextCache {
    /// Per doc: the full filtered context vector.
    base: Vec<SparseVector>,
    /// The dimension every corpus position contributes, documents and
    /// sentences laid end to end ([`Self::FILTERED`] for stopwords and
    /// non-lexical tokens).
    dims: Vec<u32>,
    /// Per corpus sentence (documents in order): offset of its first
    /// position in `dims`, plus a final entry for the end of `dims`.
    sentence_start: Vec<usize>,
    /// Per doc: index of its first sentence in `sentence_start`.
    doc_first_sentence: Vec<usize>,
}

impl DocContextCache {
    /// Marks a position that contributes no dimension.
    const FILTERED: u32 = u32::MAX;

    /// Precompute the base vector and position-dimension map of every
    /// document, in raw or stem dimensions.
    fn build(corpus: &Corpus, stemmed: bool) -> Self {
        let mut base = Vec::with_capacity(corpus.len());
        let mut dims = Vec::new();
        let mut sentence_start = Vec::new();
        let mut doc_first_sentence = Vec::with_capacity(corpus.len());
        for doc in corpus.docs() {
            doc_first_sentence.push(sentence_start.len());
            let mut pairs = Vec::new();
            for s in &doc.sentences {
                sentence_start.push(dims.len());
                for i in 0..s.tokens.len() {
                    let Some(dim) = context_dim(corpus, s, i, stemmed) else {
                        dims.push(Self::FILTERED);
                        continue;
                    };
                    debug_assert_ne!(dim, Self::FILTERED, "dimension collides with the sentinel");
                    dims.push(dim);
                    pairs.push((dim, 1.0));
                }
            }
            base.push(SparseVector::from_pairs(pairs));
        }
        sentence_start.push(dims.len());
        DocContextCache {
            base,
            dims,
            sentence_start,
            doc_first_sentence,
        }
    }

    /// The document-scope context vector of one occurrence.
    fn context_vector(&self, occ: Occurrence, phrase_len: usize) -> SparseVector {
        let base = self.base(occ.doc);
        let mut removed: Vec<u32> = self.removed_dims(occ, phrase_len).collect();
        if removed.is_empty() {
            return base.clone();
        }
        removed.sort_unstable();
        base.minus_counts(&removed)
    }

    /// The cached base vector of a document.
    fn base(&self, doc: DocId) -> &SparseVector {
        &self.base[doc.0 as usize]
    }

    /// The dimensions an occurrence's own tokens contribute to its
    /// document base (filtered positions yield nothing).
    fn removed_dims(&self, occ: Occurrence, phrase_len: usize) -> impl Iterator<Item = u32> + '_ {
        let s = self.doc_first_sentence[occ.doc.0 as usize] + occ.sentence;
        let (lo, hi) = (self.sentence_start[s], self.sentence_start[s + 1]);
        self.dims[lo + occ.start..(lo + occ.start + phrase_len).min(hi)]
            .iter()
            .copied()
            .filter(|&d| d != Self::FILTERED)
    }

    /// The summed context over `occs` (sorted by document, as occurrence
    /// resolution emits them). Occurrences sharing a document contribute
    /// `k × base` in one pass; every value stays an exact integer count,
    /// so the grouped arithmetic reproduces the per-occurrence sum bit
    /// for bit.
    fn aggregate(&self, occs: &[Occurrence], phrase_len: usize) -> SparseVector {
        let mut acc: HashMap<u32, f64> = HashMap::new();
        let mut i = 0;
        while i < occs.len() {
            let doc = occs[i].doc;
            let mut j = i;
            while j < occs.len() && occs[j].doc == doc {
                j += 1;
            }
            let k = (j - i) as f64;
            for (d, v) in self.base(doc).iter() {
                *acc.entry(d).or_insert(0.0) += k * v;
            }
            for &o in &occs[i..j] {
                for dim in self.removed_dims(o, phrase_len) {
                    *acc.entry(dim).or_insert(0.0) -= 1.0;
                }
            }
            i = j;
        }
        SparseVector::from_pairs(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;
    use boe_textkit::Language;

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new(Language::English);
        b.add_text("Corneal injuries heal. Corneal scarring follows corneal injuries.");
        b.add_text("Eye injuries are common. Corneal injuries are not.");
        b.add_text("The cornea is transparent.");
        b.build()
    }

    fn occ(doc: u32, sentence: usize, start: usize) -> Occurrence {
        Occurrence {
            doc: DocId(doc),
            sentence,
            start,
        }
    }

    #[test]
    fn resolves_known_phrases_in_reading_order() {
        let c = corpus();
        let ox = OccurrenceIndex::build(&c);
        let cases = [
            (
                "corneal injuries",
                vec![occ(0, 0, 0), occ(0, 1, 3), occ(1, 1, 0)],
            ),
            (
                "injuries",
                vec![occ(0, 0, 1), occ(0, 1, 4), occ(1, 0, 1), occ(1, 1, 1)],
            ),
            ("cornea", vec![occ(2, 0, 1)]),
            ("eye injuries are", vec![occ(1, 0, 0)]),
        ];
        for (phrase, want) in cases {
            let ids = c.phrase_ids(phrase).expect("known");
            assert_eq!(ox.find_occurrences(&c, &ids), want, "{phrase}");
            assert!(ox.contains(&c, &ids), "{phrase}");
        }
    }

    #[test]
    fn non_adjacent_and_cross_sentence_phrases_do_not_match() {
        let mut b = CorpusBuilder::new(Language::English);
        b.add_text("Damage was corneal. Injuries were treated.");
        let c = b.build();
        let ox = OccurrenceIndex::build(&c);
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        assert!(ox.find_occurrences(&c, &phrase).is_empty());
        assert!(!ox.contains(&c, &phrase));
    }

    #[test]
    fn empty_phrase_matches_nothing() {
        let c = corpus();
        let ox = OccurrenceIndex::build(&c);
        assert!(ox.find_occurrences(&c, &[]).is_empty());
        assert!(!ox.contains(&c, &[]));
    }

    #[test]
    fn repeated_token_phrases_count_each_start_once() {
        let mut b = CorpusBuilder::new(Language::English);
        b.add_text("buffalo buffalo buffalo graze.");
        let c = b.build();
        let ox = OccurrenceIndex::build(&c);
        let one = c.phrase_ids("buffalo").expect("known");
        let two = c.phrase_ids("buffalo buffalo").expect("known");
        assert_eq!(
            ox.find_occurrences(&c, &one),
            [occ(0, 0, 0), occ(0, 0, 1), occ(0, 0, 2)]
        );
        assert_eq!(ox.find_occurrences(&c, &two), [occ(0, 0, 0), occ(0, 0, 1)]);
    }

    #[test]
    fn from_inverted_index_answers_like_build() {
        let c = corpus();
        let built = OccurrenceIndex::build(&c);
        let handed = OccurrenceIndex::from(InvertedIndex::build(&c));
        for phrase in ["corneal injuries", "injuries", "cornea"] {
            let ids = c.phrase_ids(phrase).expect("known");
            assert_eq!(
                handed.find_occurrences(&c, &ids),
                built.find_occurrences(&c, &ids),
                "{phrase}"
            );
        }
    }

    #[test]
    fn contexts_and_aggregate_match_reference() {
        let c = corpus();
        let ox = OccurrenceIndex::build(&c);
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        for stemmed in [false, true] {
            for scope in [ContextScope::Sentence, ContextScope::Document] {
                for window in [None, Some(1)] {
                    let opts = ContextOptions {
                        window,
                        stemmed,
                        scope,
                    };
                    let occs = ox.find_occurrences(&c, &phrase);
                    let want: Vec<SparseVector> = occs
                        .iter()
                        .map(|&o| context_vector(&c, o, phrase.len(), opts))
                        .collect();
                    assert_eq!(ox.contexts(&c, &phrase, opts), want);
                    assert_eq!(
                        ox.occurrences_and_context(&c, &phrase, opts),
                        (occs, SparseVector::sum_of(&want))
                    );
                }
            }
        }
    }

    #[test]
    fn batch_harvest_preserves_order_and_content() {
        let c = corpus();
        let phrases: Vec<Vec<TokenId>> = ["corneal injuries", "injuries", "cornea"]
            .iter()
            .map(|p| c.phrase_ids(p).expect("known"))
            .collect();
        for scope in [ContextScope::Sentence, ContextScope::Document] {
            let opts = ContextOptions {
                scope,
                ..Default::default()
            };
            // A fresh index, so a document-scope cache is first built
            // inside the fan-out.
            let ox = OccurrenceIndex::build(&c);
            let batch = boe_par::par_map(&phrases, |p| ox.occurrences_and_context(&c, p, opts));
            let serial = OccurrenceIndex::build(&c);
            assert_eq!(batch.len(), phrases.len());
            for (phrase, got) in phrases.iter().zip(&batch) {
                assert_eq!(*got, serial.occurrences_and_context(&c, phrase, opts));
            }
        }
    }
}
