//! Inverted index with positional postings.

use crate::corpus::Corpus;
use crate::doc::DocId;
use boe_textkit::TokenId;
use std::collections::HashMap;

/// One posting: a document and the flat token positions (sentence-relative
/// positions flattened document-wide) where the token occurs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// The document.
    pub doc: DocId,
    /// `(sentence index, token position within sentence)` pairs, sorted.
    pub positions: Vec<(u32, u32)>,
}

/// Inverted index over a [`Corpus`].
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    postings: HashMap<TokenId, Vec<Posting>>,
    doc_count: usize,
    /// Total corpus frequency per token.
    term_freq: HashMap<TokenId, u64>,
    avg_doc_len: f64,
    doc_lens: Vec<u32>,
}

impl InvertedIndex {
    /// Build the index over `corpus`.
    pub fn build(corpus: &Corpus) -> Self {
        let mut postings: HashMap<TokenId, Vec<Posting>> = HashMap::new();
        let mut term_freq: HashMap<TokenId, u64> = HashMap::new();
        let mut doc_lens = Vec::with_capacity(corpus.len());
        for doc in corpus.docs() {
            let mut local: HashMap<TokenId, Vec<(u32, u32)>> = HashMap::new();
            let mut len = 0u32;
            for (si, s) in doc.sentences.iter().enumerate() {
                for (pi, &t) in s.tokens.iter().enumerate() {
                    local.entry(t).or_default().push((si as u32, pi as u32));
                    *term_freq.entry(t).or_insert(0) += 1;
                    len += 1;
                }
            }
            doc_lens.push(len);
            for (t, positions) in local {
                postings.entry(t).or_default().push(Posting {
                    doc: doc.id,
                    positions,
                });
            }
        }
        // Posting lists come out in doc order already (we iterate docs in
        // order), but sort defensively for stable downstream iteration.
        for list in postings.values_mut() {
            list.sort_by_key(|p| p.doc);
        }
        let total: u64 = doc_lens.iter().map(|&l| u64::from(l)).sum();
        let avg_doc_len = if doc_lens.is_empty() {
            0.0
        } else {
            total as f64 / doc_lens.len() as f64
        };
        InvertedIndex {
            postings,
            doc_count: corpus.len(),
            term_freq,
            avg_doc_len,
            doc_lens,
        }
    }

    /// Number of documents in the indexed corpus.
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Average document length in tokens.
    pub fn avg_doc_len(&self) -> f64 {
        self.avg_doc_len
    }

    /// Length of one document in tokens.
    pub fn doc_len(&self, doc: DocId) -> u32 {
        self.doc_lens[doc.index()]
    }

    /// Posting list for `token` (empty slice if unseen).
    pub fn postings(&self, token: TokenId) -> &[Posting] {
        self.postings.get(&token).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Document frequency of `token`.
    pub fn doc_freq(&self, token: TokenId) -> usize {
        self.postings(token).len()
    }

    /// Corpus frequency (total occurrences) of `token`.
    pub fn term_freq(&self, token: TokenId) -> u64 {
        self.term_freq.get(&token).copied().unwrap_or(0)
    }

    /// The posting of `token` in `doc`, if any. Posting lists are sorted
    /// by document, so this is a binary search rather than a linear scan.
    pub fn posting_for(&self, token: TokenId, doc: DocId) -> Option<&Posting> {
        let list = self.postings(token);
        list.binary_search_by_key(&doc, |p| p.doc)
            .ok()
            .map(|i| &list[i])
    }

    /// Term frequency of `token` within one document.
    pub fn tf_in_doc(&self, token: TokenId, doc: DocId) -> u32 {
        self.posting_for(token, doc)
            .map(|p| p.positions.len() as u32)
            .unwrap_or(0)
    }

    /// Documents containing every token of `phrase` *adjacently in order*
    /// (exact phrase match), with the match count per document, in
    /// document order.
    pub fn phrase_matches(&self, phrase: &[TokenId]) -> Vec<(DocId, u32)> {
        let mut out: Vec<(DocId, u32)> = Vec::new();
        self.walk_phrase(phrase, |doc, _, _| {
            match out.last_mut() {
                Some((d, n)) if *d == doc => *n += 1,
                _ => out.push((doc, 1)),
            }
            true
        });
        out
    }

    /// Every exact match of `phrase` as `(doc, sentence, start)`, in
    /// reading order, handed to `emit` until it returns `false`.
    ///
    /// The walk anchors on the *rarest* phrase token, the one with the
    /// smallest corpus frequency (the first such offset on ties, so a
    /// phrase with repeated tokens counts each start once). Only the
    /// anchor's postings are visited; in each of their documents the
    /// other tokens' postings are resolved once, and each anchor position
    /// `p` proposes the start `p − anchor offset`, confirmed by binary
    /// search of the other tokens at their offsets. Postings are sorted
    /// by document and positions by `(sentence, position)`, so matches
    /// come out in the order a scan of every sentence finds them.
    pub(crate) fn walk_phrase(
        &self,
        phrase: &[TokenId],
        mut emit: impl FnMut(DocId, u32, u32) -> bool,
    ) {
        let Some((anchor, _)) = phrase
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| self.term_freq(t))
        else {
            return;
        };
        let mut others: Vec<(u32, &Posting)> = Vec::with_capacity(phrase.len() - 1);
        'doc: for p in self.postings(phrase[anchor]) {
            // A token absent from the document rules out every position.
            others.clear();
            for (offset, &t) in phrase.iter().enumerate() {
                if offset == anchor {
                    continue;
                }
                match self.posting_for(t, p.doc) {
                    Some(q) => others.push((offset as u32, q)),
                    None => continue 'doc,
                }
            }
            'pos: for &(si, pi) in &p.positions {
                // A match would start `anchor` tokens to the left.
                let Some(start) = pi.checked_sub(anchor as u32) else {
                    continue;
                };
                for &(offset, q) in &others {
                    if q.positions.binary_search(&(si, start + offset)).is_err() {
                        continue 'pos;
                    }
                }
                if !emit(p.doc, si, start) {
                    return;
                }
            }
        }
    }

    /// Iterate all indexed tokens in id order.
    pub fn tokens(&self) -> Vec<TokenId> {
        let mut v: Vec<TokenId> = self.postings.keys().copied().collect();
        v.sort_unstable();
        v
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
        b.add_text("Eye injuries are common.");
        b.build()
    }

    #[test]
    fn doc_and_term_freq() {
        let c = corpus();
        let ix = InvertedIndex::build(&c);
        let injuries = c.vocab().get("injuries").expect("interned");
        let corneal = c.vocab().get("corneal").expect("interned");
        assert_eq!(ix.doc_freq(injuries), 2);
        assert_eq!(ix.term_freq(corneal), 3);
        assert_eq!(ix.doc_count(), 2);
    }

    #[test]
    fn tf_in_doc() {
        let c = corpus();
        let ix = InvertedIndex::build(&c);
        let corneal = c.vocab().get("corneal").expect("interned");
        assert_eq!(ix.tf_in_doc(corneal, DocId(0)), 3);
        assert_eq!(ix.tf_in_doc(corneal, DocId(1)), 0);
    }

    #[test]
    fn phrase_matching() {
        let c = corpus();
        let ix = InvertedIndex::build(&c);
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        let matches = ix.phrase_matches(&phrase);
        assert_eq!(matches, vec![(DocId(0), 2)]);
    }

    #[test]
    fn phrase_does_not_cross_sentences() {
        let mut b = CorpusBuilder::new(Language::English);
        // "corneal" ends sentence 1, "injuries" begins sentence 2 — the
        // phrase must not match across the boundary.
        b.add_text("Damage was corneal. Injuries were treated.");
        let c = b.build();
        let ix = InvertedIndex::build(&c);
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        assert!(ix.phrase_matches(&phrase).is_empty());
    }

    #[test]
    fn empty_phrase_matches_nothing() {
        let c = corpus();
        let ix = InvertedIndex::build(&c);
        assert!(ix.phrase_matches(&[]).is_empty());
    }

    #[test]
    fn avg_and_doc_lengths() {
        let c = corpus();
        let ix = InvertedIndex::build(&c);
        let total: u32 = (0..c.len() as u32).map(|i| ix.doc_len(DocId(i))).sum();
        assert_eq!(total as usize, c.token_count());
        assert!((ix.avg_doc_len() - total as f64 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn tokens_listing_is_sorted() {
        let c = corpus();
        let ix = InvertedIndex::build(&c);
        let toks = ix.tokens();
        assert!(toks.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(toks.len(), c.vocab().len());
    }
}
