//! Index-backed occurrence resolution.
//!
//! The enrichment workflow keeps asking one question — *where does this
//! phrase occur, and what surrounds it?* — for ontology terms (Step IV's
//! inventory), candidate terms (Steps II–III), and term pairs (the
//! relation graph). Answering it with [`find_occurrences_naive`] costs a
//! full corpus scan per phrase: O(ontology terms × corpus tokens) for the
//! inventory build alone.
//!
//! [`OccurrenceIndex`] answers the same question through the positional
//! [`InvertedIndex`]: pick the phrase token with the smallest corpus
//! frequency (the *rarest* token), walk only its postings, and verify the
//! phrase's remaining tokens by binary search on each candidate
//! document's sorted `(sentence, position)` pairs. Cost becomes
//! proportional to the rarest token's postings — for typical ontology
//! terms, orders of magnitude below a corpus scan.
//!
//! ## Determinism contract
//!
//! Every query is **bit-identical** to the naive scan, including order:
//! posting lists are sorted by document and positions by `(sentence,
//! position)`, so anchoring on a fixed phrase offset enumerates matches
//! in exactly the `(doc, sentence, start)` order the scan produces.
//! Context vectors are then built per occurrence with the very same
//! [`context_vector`] code and summed in the same order. The
//! [`OccurrenceResolution::NaiveScan`] backend keeps the reference path
//! runnable end-to-end so tests can enforce the contract at the
//! `EnrichmentReport` level.

use crate::context::{
    context_vector, find_occurrences_naive, ContextOptions, ContextScope, DocContextCache,
    Occurrence, StemMap,
};
use crate::corpus::Corpus;
use crate::index::{InvertedIndex, Posting};
use crate::vector::SparseVector;
use boe_textkit::TokenId;

/// How a pipeline run resolves phrase occurrences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OccurrenceResolution {
    /// Through a positional [`OccurrenceIndex`] built once per run.
    #[default]
    Indexed,
    /// Through full-corpus scans ([`find_occurrences_naive`]); the
    /// reference path kept for equality testing and debugging.
    NaiveScan,
}

impl OccurrenceResolution {
    /// Build the matching [`OccurrenceIndex`] for `corpus`.
    pub fn build(self, corpus: &Corpus) -> OccurrenceIndex {
        match self {
            OccurrenceResolution::Indexed => OccurrenceIndex::build(corpus),
            OccurrenceResolution::NaiveScan => OccurrenceIndex::naive(),
        }
    }
}

/// The resolution backend: positional postings, or the reference scan.
#[derive(Debug)]
enum Backend {
    Indexed(InvertedIndex),
    Naive,
}

/// Phrase-occurrence resolution shared across the whole pipeline run.
///
/// Build once per `(corpus, run)` with [`OccurrenceIndex::build`] and
/// share by reference (or `Arc`) — queries never mutate. All query
/// methods take the corpus the index was built over; handing them a
/// different corpus is a logic error (caught by `debug_assert`).
#[derive(Debug)]
pub struct OccurrenceIndex {
    backend: Backend,
}

impl OccurrenceIndex {
    /// Build the positional index over `corpus` (one corpus pass).
    pub fn build(corpus: &Corpus) -> Self {
        OccurrenceIndex {
            backend: Backend::Indexed(InvertedIndex::build(corpus)),
        }
    }

    /// The reference backend: every query is answered by the naive
    /// full-corpus scan. No index is built.
    pub fn naive() -> Self {
        OccurrenceIndex {
            backend: Backend::Naive,
        }
    }

    /// Whether queries go through positional postings (`false` = naive
    /// reference scans).
    pub fn is_indexed(&self) -> bool {
        matches!(self.backend, Backend::Indexed(_))
    }

    /// All occurrences of `phrase`, bit-identical (content and order) to
    /// [`find_occurrences_naive`].
    pub fn find_occurrences(&self, corpus: &Corpus, phrase: &[TokenId]) -> Vec<Occurrence> {
        match &self.backend {
            Backend::Naive => find_occurrences_naive(corpus, phrase),
            Backend::Indexed(ix) => {
                debug_assert_eq!(ix.doc_count(), corpus.len(), "index/corpus mismatch");
                let mut out = Vec::new();
                self.walk_postings(ix, phrase, |occ| {
                    out.push(occ);
                    true
                });
                out
            }
        }
    }

    /// Whether `phrase` occurs at least once — equivalent to
    /// `!find_occurrences(..).is_empty()` but stops at the first match.
    pub fn contains(&self, corpus: &Corpus, phrase: &[TokenId]) -> bool {
        match &self.backend {
            Backend::Naive => {
                // Early-exit variant of the naive scan: same traversal
                // order, stops at the first hit.
                if phrase.is_empty() {
                    return false;
                }
                for doc in corpus.docs() {
                    for s in &doc.sentences {
                        if s.tokens.len() < phrase.len() {
                            continue;
                        }
                        for start in 0..=(s.tokens.len() - phrase.len()) {
                            if s.tokens[start..start + phrase.len()] == *phrase {
                                return true;
                            }
                        }
                    }
                }
                false
            }
            Backend::Indexed(ix) => {
                let mut found = false;
                self.walk_postings(ix, phrase, |_| {
                    found = true;
                    false
                });
                found
            }
        }
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

    /// The aggregate (summed) context vector of `phrase`; bit-identical
    /// to [`crate::context::aggregate_context`].
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
    /// built only for the indexed backend at [`ContextScope::Document`].
    /// Document scope otherwise rebuilds a whole document's vector per
    /// occurrence; one per-document base shared by every phrase turns
    /// that into an exact count subtraction (bit-identical — see
    /// [`DocContextCache`]). Sentence scope needs no cache, and the naive
    /// backend stays the plain reference construction end-to-end.
    pub fn context_cache(
        &self,
        corpus: &Corpus,
        opts: ContextOptions,
        stems: Option<&StemMap>,
    ) -> Option<DocContextCache> {
        (self.is_indexed() && opts.scope == ContextScope::Document)
            .then(|| DocContextCache::build(corpus, opts, stems))
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

    /// Core of the indexed resolution: anchor on the offset of the
    /// phrase token with the smallest corpus frequency, walk only that
    /// token's postings, and verify every other token by binary search.
    /// Calls `emit` per occurrence in `(doc, sentence, start)` order;
    /// `emit` returning `false` stops the walk.
    fn walk_postings(
        &self,
        ix: &InvertedIndex,
        phrase: &[TokenId],
        mut emit: impl FnMut(Occurrence) -> bool,
    ) {
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
    use crate::context::{aggregate_context, contexts, ContextScope};
    use crate::corpus::CorpusBuilder;
    use boe_textkit::Language;

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new(Language::English);
        b.add_text("Corneal injuries heal. Corneal scarring follows corneal injuries.");
        b.add_text("Eye injuries are common. Corneal injuries are not.");
        b.add_text("The cornea is transparent.");
        b.build()
    }

    fn assert_same_occurrences(c: &Corpus, ox: &OccurrenceIndex, phrase: &[TokenId]) {
        assert_eq!(
            ox.find_occurrences(c, phrase),
            find_occurrences_naive(c, phrase)
        );
        assert_eq!(
            ox.contains(c, phrase),
            !find_occurrences_naive(c, phrase).is_empty()
        );
    }

    #[test]
    fn matches_naive_scan_on_known_phrases() {
        let c = corpus();
        let ox = OccurrenceIndex::build(&c);
        for phrase in ["corneal injuries", "injuries", "cornea", "eye injuries are"] {
            let ids = c.phrase_ids(phrase).expect("known");
            assert_same_occurrences(&c, &ox, &ids);
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
        assert_same_occurrences(&c, &ox, &phrase);
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
        assert_same_occurrences(&c, &ox, &one);
        assert_same_occurrences(&c, &ox, &two);
        assert_eq!(ox.find_occurrences(&c, &two).len(), 2);
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
                assert_eq!(
                    ox.contexts(&c, &phrase, opts, Some(&stems)),
                    contexts(&c, &phrase, opts, Some(&stems))
                );
                assert_eq!(
                    ox.aggregate_context(&c, &phrase, opts, Some(&stems)),
                    aggregate_context(&c, &phrase, opts, Some(&stems))
                );
            }
        }
    }

    #[test]
    fn batch_harvest_preserves_order_and_content() {
        let c = corpus();
        let ox = OccurrenceIndex::build(&c);
        let opts = ContextOptions::default();
        let phrases: Vec<Vec<TokenId>> = ["corneal injuries", "injuries", "cornea"]
            .iter()
            .map(|p| c.phrase_ids(p).expect("known"))
            .collect();
        let batch = ox.aggregate_contexts_for(&c, &phrases, opts, None);
        assert_eq!(batch.len(), phrases.len());
        for (phrase, (occs, agg)) in phrases.iter().zip(&batch) {
            assert_eq!(*occs, find_occurrences_naive(&c, phrase));
            assert_eq!(*agg, aggregate_context(&c, phrase, opts, None));
        }
    }

    #[test]
    fn naive_backend_answers_identically() {
        let c = corpus();
        let naive = OccurrenceIndex::naive();
        assert!(!naive.is_indexed());
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        assert_same_occurrences(&c, &naive, &phrase);
        assert!(naive.contains(&c, &phrase));
        assert!(!naive.contains(&c, &[]));
    }

    #[test]
    fn resolution_enum_builds_matching_backends() {
        let c = corpus();
        assert!(OccurrenceResolution::Indexed.build(&c).is_indexed());
        assert!(!OccurrenceResolution::NaiveScan.build(&c).is_indexed());
        assert_eq!(
            OccurrenceResolution::default(),
            OccurrenceResolution::Indexed
        );
    }
}
