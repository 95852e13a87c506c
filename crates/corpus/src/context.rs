//! Context harvesting around term occurrences.
//!
//! Steps III (sense induction) and IV (semantic linkage) both operate on
//! *contexts*: the non-stopword lexical tokens found in a window around
//! each occurrence of a target term. This module finds occurrences of
//! multi-word phrases and turns their surroundings into sparse vectors,
//! optionally in a stem-conflated dimension space.

use crate::corpus::Corpus;
use crate::doc::DocId;
use crate::vector::SparseVector;
use boe_textkit::stem;
use boe_textkit::{TokenId, Vocabulary};

/// One occurrence of a phrase in a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurrence {
    /// Containing document.
    pub doc: DocId,
    /// Sentence index within the document.
    pub sentence: usize,
    /// Start token position within the sentence.
    pub start: usize,
}

/// Maps every corpus token id to a stem id in a separate stem vocabulary,
/// so context vectors can conflate inflectional variants.
#[derive(Debug, Clone)]
pub struct StemMap {
    map: Vec<u32>,
    stems: Vocabulary,
}

impl StemMap {
    /// Build the stem map for `corpus` (one stemmer pass over the vocab).
    pub fn build(corpus: &Corpus) -> Self {
        let lang = corpus.language();
        let mut stems = Vocabulary::new();
        let mut map = Vec::with_capacity(corpus.vocab().len());
        for (_, text) in corpus.vocab().iter() {
            let stemmed = stem::stem(lang, text);
            map.push(stems.intern(&stemmed).0);
        }
        StemMap { map, stems }
    }

    /// Stem dimension for a corpus token id. Token ids from a different
    /// corpus than the map was built for fall back to the raw token
    /// dimension (same vector-space shape, no conflation) instead of
    /// panicking.
    pub fn stem_dim(&self, t: TokenId) -> u32 {
        debug_assert!(t.index() < self.map.len(), "token id from another corpus");
        self.map.get(t.index()).copied().unwrap_or(t.0)
    }

    /// The stem vocabulary (dimension ↔ stem string).
    pub fn stems(&self) -> &Vocabulary {
        &self.stems
    }
}

/// Find all occurrences of `phrase` (exact adjacent token-id sequence)
/// by scanning every sentence of the corpus.
///
/// This is the O(corpus tokens) reference implementation; hot paths
/// resolve occurrences through
/// [`crate::occurrence::OccurrenceIndex::find_occurrences`], which walks
/// only the postings of the phrase's rarest token and is verified
/// bit-identical to this scan (same occurrences, same order).
pub fn find_occurrences_naive(corpus: &Corpus, phrase: &[TokenId]) -> Vec<Occurrence> {
    let mut out = Vec::new();
    if phrase.is_empty() {
        return out;
    }
    for doc in corpus.docs() {
        for (si, s) in doc.sentences.iter().enumerate() {
            if s.tokens.len() < phrase.len() {
                continue;
            }
            for start in 0..=(s.tokens.len() - phrase.len()) {
                if s.tokens[start..start + phrase.len()] == *phrase {
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

/// How far a context reaches around an occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContextScope {
    /// The occurrence's sentence (optionally narrowed by a window).
    #[default]
    Sentence,
    /// The occurrence's whole document — MSH-WSD style, where each
    /// citation is one context.
    Document,
}

/// Options for context-vector construction.
#[derive(Debug, Clone, Copy)]
pub struct ContextOptions {
    /// Window half-width in tokens on each side of the occurrence;
    /// `None` means the whole sentence. Ignored under
    /// [`ContextScope::Document`].
    pub window: Option<usize>,
    /// Conflate dimensions through a stem map.
    pub stemmed: bool,
    /// Context reach.
    pub scope: ContextScope,
}

impl Default for ContextOptions {
    fn default() -> Self {
        ContextOptions {
            window: None,
            stemmed: true,
            scope: ContextScope::Sentence,
        }
    }
}

/// Build the context vector of one occurrence. The phrase's own tokens are
/// excluded; stopwords and non-lexical tokens are skipped.
pub fn context_vector(
    corpus: &Corpus,
    occ: Occurrence,
    phrase_len: usize,
    opts: ContextOptions,
    stems: Option<&StemMap>,
) -> SparseVector {
    let doc = corpus.doc(occ.doc);
    // Occurrences come from `find_occurrences_naive` on the same corpus, so
    // the sentence index is in range by construction.
    debug_assert!(occ.sentence < doc.sentences.len());
    let mut pairs = Vec::new();
    let mut collect = |sentence_idx: usize, lo: usize, hi: usize| {
        let s = &doc.sentences[sentence_idx];
        for i in lo..hi.min(s.tokens.len()) {
            if sentence_idx == occ.sentence && i >= occ.start && i < occ.start + phrase_len {
                continue; // the term itself
            }
            let t = s.tokens[i];
            if corpus.is_stopword(t) || !s.tags[i].is_term_internal() {
                continue;
            }
            let dim = match (opts.stemmed, stems) {
                (true, Some(sm)) => sm.stem_dim(t),
                _ => t.0,
            };
            pairs.push((dim, 1.0));
        }
    };
    match opts.scope {
        ContextScope::Sentence => {
            let n = doc.sentences[occ.sentence].tokens.len();
            let (lo, hi) = match opts.window {
                Some(w) => (
                    occ.start.saturating_sub(w),
                    (occ.start + phrase_len + w).min(n),
                ),
                None => (0, n),
            };
            collect(occ.sentence, lo, hi);
        }
        ContextScope::Document => {
            for si in 0..doc.sentences.len() {
                collect(si, 0, usize::MAX);
            }
        }
    }
    SparseVector::from_pairs(pairs)
}

/// Precomputed per-document context bases for
/// [`ContextScope::Document`] harvesting.
///
/// At document scope every occurrence's context is the whole document
/// minus the phrase's own tokens, so building it from scratch repeats
/// the stopword/tag filtering and stem lookups of the entire document
/// per occurrence. This cache does that work once per document; each
/// occurrence context is then the cached base minus the dimensions at
/// the occupied positions. Context values are exact integer counts, so
/// the subtraction reproduces [`context_vector`]'s output bit for bit.
#[derive(Debug)]
pub struct DocContextCache {
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
    /// document under `opts`/`stems` (the window option is ignored, as
    /// it is at document scope generally).
    pub fn build(corpus: &Corpus, opts: ContextOptions, stems: Option<&StemMap>) -> Self {
        let mut base = Vec::with_capacity(corpus.len());
        let mut dims = Vec::new();
        let mut sentence_start = Vec::new();
        let mut doc_first_sentence = Vec::with_capacity(corpus.len());
        for doc in corpus.docs() {
            doc_first_sentence.push(sentence_start.len());
            let mut pairs = Vec::new();
            for s in &doc.sentences {
                sentence_start.push(dims.len());
                for (i, &t) in s.tokens.iter().enumerate() {
                    if corpus.is_stopword(t) || !s.tags[i].is_term_internal() {
                        dims.push(Self::FILTERED);
                        continue;
                    }
                    let dim = match (opts.stemmed, stems) {
                        (true, Some(sm)) => sm.stem_dim(t),
                        _ => t.0,
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

    /// The document-scope context vector of one occurrence —
    /// bit-identical to [`context_vector`] with
    /// [`ContextScope::Document`].
    pub fn context_vector(&self, occ: Occurrence, phrase_len: usize) -> SparseVector {
        let doc = occ.doc.0 as usize;
        let mut removed: Vec<u32> = self.removed_dims(occ, phrase_len).collect();
        if removed.is_empty() {
            return self.base[doc].clone();
        }
        removed.sort_unstable();
        self.base[doc].minus_counts(&removed)
    }

    /// The cached base vector of a document.
    pub fn base(&self, doc: crate::doc::DocId) -> &SparseVector {
        &self.base[doc.0 as usize]
    }

    /// The dimensions an occurrence's own tokens contribute to its
    /// document base (filtered positions yield nothing).
    pub fn removed_dims(
        &self,
        occ: Occurrence,
        phrase_len: usize,
    ) -> impl Iterator<Item = u32> + '_ {
        let s = self.doc_first_sentence[occ.doc.0 as usize] + occ.sentence;
        let (lo, hi) = (self.sentence_start[s], self.sentence_start[s + 1]);
        self.dims[lo + occ.start..(lo + occ.start + phrase_len).min(hi)]
            .iter()
            .copied()
            .filter(|&d| d != Self::FILTERED)
    }

    /// The aggregate (summed) document-scope context over `occs` (sorted
    /// by document, as occurrence resolution emits them) — bit-identical
    /// to summing [`context_vector`] per occurrence. Occurrences sharing
    /// a document contribute `k × base` in one pass; every value stays
    /// an exact integer count, so the grouped arithmetic reproduces the
    /// per-occurrence sum bit for bit.
    pub fn aggregate(&self, occs: &[Occurrence], phrase_len: usize) -> SparseVector {
        let mut acc: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
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

/// All per-occurrence context vectors of `phrase`, resolved through the
/// naive full-corpus scan (reference path; see
/// [`crate::occurrence::OccurrenceIndex::contexts`] for the indexed one).
pub fn contexts(
    corpus: &Corpus,
    phrase: &[TokenId],
    opts: ContextOptions,
    stems: Option<&StemMap>,
) -> Vec<SparseVector> {
    find_occurrences_naive(corpus, phrase)
        .into_iter()
        .map(|occ| context_vector(corpus, occ, phrase.len(), opts, stems))
        .collect()
}

/// The aggregate (summed) context vector of `phrase` over the corpus —
/// what Step IV compares with cosine.
pub fn aggregate_context(
    corpus: &Corpus,
    phrase: &[TokenId],
    opts: ContextOptions,
    stems: Option<&StemMap>,
) -> SparseVector {
    SparseVector::sum_of(&contexts(corpus, phrase, opts, stems))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;
    use boe_textkit::Language;

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new(Language::English);
        b.add_text("Corneal injuries damage the epithelium badly.");
        b.add_text("Severe corneal injuries require amniotic membrane grafts.");
        b.add_text("The cornea is transparent.");
        b.build()
    }

    #[test]
    fn finds_all_occurrences() {
        let c = corpus();
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        let occs = find_occurrences_naive(&c, &phrase);
        assert_eq!(occs.len(), 2);
        assert_eq!(occs[0].doc, DocId(0));
        assert_eq!(occs[1].doc, DocId(1));
        assert_eq!(occs[1].start, 1);
    }

    #[test]
    fn context_excludes_phrase_and_stopwords() {
        let c = corpus();
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        let occs = find_occurrences_naive(&c, &phrase);
        let opts = ContextOptions {
            window: None,
            stemmed: false,
            scope: ContextScope::Sentence,
        };
        let v = context_vector(&c, occs[0], phrase.len(), opts, None);
        let epithelium = c.vocab().get("epithelium").expect("id");
        let the = c.vocab().get("the").expect("id");
        let corneal = c.vocab().get("corneal").expect("id");
        assert!(v.get(epithelium.0) > 0.0);
        assert_eq!(v.get(the.0), 0.0, "stopword excluded");
        assert_eq!(v.get(corneal.0), 0.0, "phrase token excluded");
    }

    #[test]
    fn window_limits_context() {
        let c = corpus();
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        let occs = find_occurrences_naive(&c, &phrase);
        let narrow = ContextOptions {
            window: Some(1),
            stemmed: false,
            scope: ContextScope::Sentence,
        };
        // Occurrence in doc 1: "Severe corneal injuries require amniotic ..."
        let v = context_vector(&c, occs[1], phrase.len(), narrow, None);
        let severe = c.vocab().get("severe").expect("id");
        let grafts = c.vocab().get("grafts").expect("id");
        assert!(v.get(severe.0) > 0.0);
        assert_eq!(v.get(grafts.0), 0.0, "outside window");
    }

    #[test]
    fn stemmed_dims_conflate_variants() {
        let mut b = CorpusBuilder::new(Language::English);
        b.add_text("graft tissue heals. grafts tissue heal.");
        let c = b.build();
        let sm = StemMap::build(&c);
        let graft = c.vocab().get("graft").expect("id");
        let grafts = c.vocab().get("grafts").expect("id");
        assert_eq!(sm.stem_dim(graft), sm.stem_dim(grafts));
    }

    #[test]
    fn aggregate_sums_occurrences() {
        let c = corpus();
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        let opts = ContextOptions {
            window: None,
            stemmed: false,
            scope: ContextScope::Sentence,
        };
        let per = contexts(&c, &phrase, opts, None);
        let agg = aggregate_context(&c, &phrase, opts, None);
        let manual = SparseVector::sum_of(&per);
        assert_eq!(agg, manual);
        assert!(agg.sum() >= per[0].sum());
    }

    #[test]
    fn empty_phrase_has_no_occurrences() {
        let c = corpus();
        assert!(find_occurrences_naive(&c, &[]).is_empty());
    }

    #[test]
    fn unknown_phrase_yields_empty_contexts() {
        let c = corpus();
        // Construct an id sequence that never occurs adjacently.
        let a = c.vocab().get("cornea").expect("id");
        let b2 = c.vocab().get("grafts").expect("id");
        assert!(contexts(&c, &[a, b2], ContextOptions::default(), None).is_empty());
    }
}
