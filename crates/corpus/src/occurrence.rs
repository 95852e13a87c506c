//! Index-backed occurrence resolution.
//!
//! The enrichment workflow keeps asking one question — *where does this
//! phrase occur, and what surrounds it?* — for ontology terms (Step IV's
//! inventory), candidate terms (Steps II–III), and term pairs (the
//! relation graph). A full corpus scan per phrase would cost
//! O(ontology terms × corpus tokens) for the inventory build alone.
//!
//! [`OccurrenceIndex`] answers the question through the positional
//! [`InvertedIndex`]: pick the phrase token with the smallest corpus
//! frequency (the *rarest* token), walk only its postings, and verify the
//! phrase's remaining tokens by binary search on each candidate
//! document's sorted `(sentence, position)` pairs. Cost becomes
//! proportional to the rarest token's postings — for typical ontology
//! terms, orders of magnitude below a corpus scan.
//!
//! ## Determinism contract
//!
//! Every query is **bit-identical** to a full scan of every sentence,
//! including order: posting lists are sorted by document and positions
//! by `(sentence, position)`, so anchoring on a fixed phrase offset
//! enumerates matches in exactly the `(doc, sentence, start)` reading
//! order. Context vectors are then built per occurrence with the very
//! same [`context_vector`] code and summed in the same order.
//! `crates/corpus/tests/occurrence_index_equality.rs` checks both
//! against a plain scan on randomized corpora.

use crate::context::{
    context_vector, ContextOptions, ContextScope, DocContextCache, Occurrence, StemMap,
};
use crate::corpus::Corpus;
use crate::index::{InvertedIndex, Posting};
use crate::vector::SparseVector;
use boe_textkit::TokenId;

/// Phrase-occurrence resolution shared across the whole pipeline run.
///
/// Build once per `(corpus, run)` — with [`OccurrenceIndex::build`], or
/// from an [`InvertedIndex`] already built over the corpus — and share
/// by reference (or `Arc`): queries never mutate. All query methods
/// take the corpus the index was built over; handing them a different
/// corpus is a logic error (caught by `debug_assert`).
#[derive(Debug)]
pub struct OccurrenceIndex {
    index: InvertedIndex,
}

impl From<InvertedIndex> for OccurrenceIndex {
    fn from(index: InvertedIndex) -> Self {
        OccurrenceIndex { index }
    }
}

impl OccurrenceIndex {
    /// Build the positional index over `corpus` (one corpus pass).
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
        self.walk_postings(phrase, |occ| {
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
        self.walk_postings(phrase, |_| {
            found = true;
            false
        });
        found
    }

    /// Per-occurrence context vectors of `phrase` — one positional
    /// resolution, then the shared [`context_vector`] builder per hit.
    pub fn contexts(
        &self,
        corpus: &Corpus,
        phrase: &[TokenId],
        opts: ContextOptions,
        stems: Option<&StemMap>,
    ) -> Vec<SparseVector> {
        self.find_occurrences(corpus, phrase)
            .into_iter()
            .map(|occ| context_vector(corpus, occ, phrase.len(), opts, stems))
            .collect()
    }

    /// The aggregate (summed) context vector of `phrase` — what Step IV
    /// compares with cosine.
    pub fn aggregate_context(
        &self,
        corpus: &Corpus,
        phrase: &[TokenId],
        opts: ContextOptions,
        stems: Option<&StemMap>,
    ) -> SparseVector {
        self.occurrences_and_context(corpus, phrase, opts, stems).1
    }

    /// Occurrences *and* aggregate context of `phrase` from a single
    /// positional resolution — callers that need both (the inventory
    /// build, the linker's candidate gathering) stop paying for two.
    pub fn occurrences_and_context(
        &self,
        corpus: &Corpus,
        phrase: &[TokenId],
        opts: ContextOptions,
        stems: Option<&StemMap>,
    ) -> (Vec<Occurrence>, SparseVector) {
        let occs = self.find_occurrences(corpus, phrase);
        let vectors: Vec<SparseVector> = occs
            .iter()
            .map(|&occ| context_vector(corpus, occ, phrase.len(), opts, stems))
            .collect();
        (occs, SparseVector::sum_of(&vectors))
    }

    /// The [`DocContextCache`] a harvest under `opts` goes through:
    /// built only at [`ContextScope::Document`]. Document scope otherwise
    /// rebuilds a whole document's vector per occurrence; one
    /// per-document base shared by every phrase turns that into an exact
    /// count subtraction (bit-identical — see [`DocContextCache`]).
    /// Sentence scope needs no cache.
    pub fn context_cache(
        &self,
        corpus: &Corpus,
        opts: ContextOptions,
        stems: Option<&StemMap>,
    ) -> Option<DocContextCache> {
        (opts.scope == ContextScope::Document).then(|| DocContextCache::build(corpus, opts, stems))
    }

    /// [`Self::occurrences_and_context`], taking the aggregate from
    /// `cache` when one is given. `cache` must come from
    /// [`Self::context_cache`] with the same `opts` and `stems`, so the
    /// result is bit-identical either way.
    pub fn occurrences_and_context_cached(
        &self,
        corpus: &Corpus,
        phrase: &[TokenId],
        opts: ContextOptions,
        stems: Option<&StemMap>,
        cache: Option<&DocContextCache>,
    ) -> (Vec<Occurrence>, SparseVector) {
        match cache {
            Some(cache) => {
                let occs = self.find_occurrences(corpus, phrase);
                let context = cache.aggregate(&occs, phrase.len());
                (occs, context)
            }
            None => self.occurrences_and_context(corpus, phrase, opts, stems),
        }
    }

    /// Batch context harvesting: [`Self::occurrences_and_context`] for
    /// many phrases in one call, through one [`Self::context_cache`],
    /// fanned out across threads with `boe_par` (input order preserved —
    /// result `i` belongs to `phrases[i]`, bit-identical to the serial
    /// loop at any thread count).
    pub fn aggregate_contexts_for(
        &self,
        corpus: &Corpus,
        phrases: &[Vec<TokenId>],
        opts: ContextOptions,
        stems: Option<&StemMap>,
    ) -> Vec<(Vec<Occurrence>, SparseVector)> {
        let cache = self.context_cache(corpus, opts, stems);
        boe_par::par_map(phrases, |phrase| {
            self.occurrences_and_context_cached(corpus, phrase, opts, stems, cache.as_ref())
        })
    }

    /// Core of the resolution: anchor on the offset of the
    /// phrase token with the smallest corpus frequency, walk only that
    /// token's postings, and verify every other token by binary search.
    /// Calls `emit` per occurrence in `(doc, sentence, start)` order;
    /// `emit` returning `false` stops the walk.
    fn walk_postings(&self, phrase: &[TokenId], mut emit: impl FnMut(Occurrence) -> bool) {
        let ix = &self.index;
        if phrase.is_empty() {
            return;
        }
        // First offset with the minimum frequency — deterministic anchor,
        // so a phrase with repeated tokens counts each start once.
        let anchor = (0..phrase.len())
            .min_by_key(|&i| ix.term_freq(phrase[i]))
            .expect("non-empty phrase");
        for p in ix.postings(phrase[anchor]) {
            // Resolve the other tokens' postings in this document once.
            let mut others: Vec<(usize, &Posting)> = Vec::with_capacity(phrase.len() - 1);
            let mut complete = true;
            for (j, &t) in phrase.iter().enumerate() {
                if j == anchor {
                    continue;
                }
                match ix.posting_for(t, p.doc) {
                    Some(q) => others.push((j, q)),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                continue;
            }
            'pos: for &(si, pi) in &p.positions {
                // The anchor sits at phrase offset `anchor`, so the
                // phrase would start `anchor` tokens to the left.
                let Some(start) = pi.checked_sub(anchor as u32) else {
                    continue;
                };
                for &(j, q) in &others {
                    let want = (si, start + j as u32);
                    if q.positions.binary_search(&want).is_err() {
                        continue 'pos;
                    }
                }
                let occ = Occurrence {
                    doc: p.doc,
                    sentence: si as usize,
                    start: start as usize,
                };
                if !emit(occ) {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextScope;
    use crate::corpus::CorpusBuilder;
    use crate::doc::DocId;
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
        let stems = StemMap::build(&c);
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        for scope in [ContextScope::Sentence, ContextScope::Document] {
            for window in [None, Some(1)] {
                let opts = ContextOptions {
                    window,
                    stemmed: true,
                    scope,
                };
                let want: Vec<SparseVector> = ox
                    .find_occurrences(&c, &phrase)
                    .into_iter()
                    .map(|o| context_vector(&c, o, phrase.len(), opts, Some(&stems)))
                    .collect();
                assert_eq!(ox.contexts(&c, &phrase, opts, Some(&stems)), want);
                assert_eq!(
                    ox.aggregate_context(&c, &phrase, opts, Some(&stems)),
                    SparseVector::sum_of(&want)
                );
            }
        }
    }

    #[test]
    fn batch_harvest_preserves_order_and_content() {
        let c = corpus();
        let ox = OccurrenceIndex::build(&c);
        let phrases: Vec<Vec<TokenId>> = ["corneal injuries", "injuries", "cornea"]
            .iter()
            .map(|p| c.phrase_ids(p).expect("known"))
            .collect();
        for scope in [ContextScope::Sentence, ContextScope::Document] {
            let opts = ContextOptions {
                scope,
                ..Default::default()
            };
            let batch = ox.aggregate_contexts_for(&c, &phrases, opts, None);
            assert_eq!(batch.len(), phrases.len());
            for (phrase, got) in phrases.iter().zip(&batch) {
                assert_eq!(*got, ox.occurrences_and_context(&c, phrase, opts, None));
            }
        }
    }
}
