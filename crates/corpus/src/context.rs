//! Context vectors around term occurrences.
//!
//! Steps III (sense induction) and IV (semantic linkage) both operate on
//! *contexts*: the non-stopword lexical tokens found in a window around
//! each occurrence of a target term. This module defines what a context
//! is ([`ContextOptions`]) and builds one occurrence's vector from
//! scratch ([`context_vector`]), in raw token dimensions or in the
//! corpus's stem dimensions ([`Corpus::stem_dim`]).
//!
//! Callers that want the contexts of a phrase ask the
//! [`OccurrenceIndex`](crate::occurrence::OccurrenceIndex): it resolves
//! the occurrences and, at [`ContextScope::Document`], takes every
//! vector from its per-document cache, bit-identical to
//! [`context_vector`].

use crate::corpus::Corpus;
use crate::doc::{DocId, Sentence};
use crate::vector::SparseVector;

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
    /// Use the corpus's stem dimensions ([`Corpus::stem_dim`]) instead of
    /// raw token ids, conflating inflectional variants.
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

/// The dimension position `i` of `sentence` contributes to a context, or
/// `None` for stopwords and non-lexical tokens. The one filtering rule of
/// every context, cached or not.
pub(crate) fn context_dim(
    corpus: &Corpus,
    sentence: &Sentence,
    i: usize,
    stemmed: bool,
) -> Option<u32> {
    let t = sentence.tokens[i];
    if corpus.is_stopword(t) || !sentence.tags[i].is_term_internal() {
        None
    } else if stemmed {
        Some(corpus.stem_dim(t))
    } else {
        Some(t.0)
    }
}

/// Build the context vector of one occurrence from scratch. The phrase's
/// own tokens are excluded; stopwords and non-lexical tokens are skipped.
pub fn context_vector(
    corpus: &Corpus,
    occ: Occurrence,
    phrase_len: usize,
    opts: ContextOptions,
) -> SparseVector {
    let doc = corpus.doc(occ.doc);
    // Occurrences come from resolution over the same corpus, so the
    // sentence index is in range by construction.
    debug_assert!(occ.sentence < doc.sentences.len());
    let mut pairs = Vec::new();
    let mut collect = |sentence_idx: usize, lo: usize, hi: usize| {
        let s = &doc.sentences[sentence_idx];
        for i in lo..hi.min(s.tokens.len()) {
            if sentence_idx == occ.sentence && i >= occ.start && i < occ.start + phrase_len {
                continue; // the term itself
            }
            if let Some(dim) = context_dim(corpus, s, i, opts.stemmed) {
                pairs.push((dim, 1.0));
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;
    use crate::occurrence::OccurrenceIndex;
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
        let occs = OccurrenceIndex::build(&c).find_occurrences(&c, &phrase);
        assert_eq!(occs.len(), 2);
        assert_eq!(occs[0].doc, DocId(0));
        assert_eq!(occs[1].doc, DocId(1));
        assert_eq!(occs[1].start, 1);
    }

    #[test]
    fn context_excludes_phrase_and_stopwords() {
        let c = corpus();
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        let occs = OccurrenceIndex::build(&c).find_occurrences(&c, &phrase);
        let opts = ContextOptions {
            window: None,
            stemmed: false,
            scope: ContextScope::Sentence,
        };
        let v = context_vector(&c, occs[0], phrase.len(), opts);
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
        let occs = OccurrenceIndex::build(&c).find_occurrences(&c, &phrase);
        let narrow = ContextOptions {
            window: Some(1),
            stemmed: false,
            scope: ContextScope::Sentence,
        };
        // Occurrence in doc 1: "Severe corneal injuries require amniotic ..."
        let v = context_vector(&c, occs[1], phrase.len(), narrow);
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
        let graft = c.vocab().get("graft").expect("id");
        let grafts = c.vocab().get("grafts").expect("id");
        assert_eq!(c.stem_dim(graft), c.stem_dim(grafts));
        assert_eq!(c.stem_text(c.stem_dim(grafts)), Some("graft"));
        // The two sentences' contexts of "tissue" differ in raw token
        // dimensions and coincide in stem dimensions.
        let phrase = c.phrase_ids("tissue").expect("known");
        let ox = OccurrenceIndex::build(&c);
        for (stemmed, same) in [(false, false), (true, true)] {
            let opts = ContextOptions {
                window: None,
                stemmed,
                scope: ContextScope::Sentence,
            };
            let ctxs = ox.contexts(&c, &phrase, opts);
            assert_eq!(ctxs[0] == ctxs[1], same, "stemmed: {stemmed}");
        }
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
        let ox = OccurrenceIndex::build(&c);
        let per = ox.contexts(&c, &phrase, opts);
        let (occs, agg) = ox.occurrences_and_context(&c, &phrase, opts);
        assert_eq!(occs.len(), per.len());
        assert_eq!(agg, SparseVector::sum_of(&per));
        assert!(agg.sum() >= per[0].sum());
    }

    #[test]
    fn empty_phrase_has_no_occurrences() {
        let c = corpus();
        assert!(OccurrenceIndex::build(&c)
            .find_occurrences(&c, &[])
            .is_empty());
    }

    #[test]
    fn unknown_phrase_yields_empty_contexts() {
        let c = corpus();
        // Construct an id sequence that never occurs adjacently.
        let a = c.vocab().get("cornea").expect("id");
        let b2 = c.vocab().get("grafts").expect("id");
        assert!(OccurrenceIndex::build(&c)
            .contexts(&c, &[a, b2], ContextOptions::default())
            .is_empty());
    }
}
