//! Flat positional inverted index.
//!
//! The corpus is laid out once as a single token stream in reading order
//! (documents, then sentences, then tokens), with an end-of-sentence
//! sentinel after every sentence. Per token id, a CSR (compressed sparse
//! row) offset table points into one array of ascending stream
//! positions. Building it takes two linear passes and no hash map: one
//! fills the stream, the sentence table and the per-token counts, the
//! other scatters the positions.
//!
//! A phrase match is a window of the stream equal to the phrase. The
//! sentinels are no vocabulary ids, so no window that crosses a sentence
//! or document boundary can equal a phrase. Each sentinel's id names the
//! sentence it closes, so a match finds its sentence by scanning to the
//! next sentinel, with no per-position sentence array.

use crate::corpus::Corpus;
use crate::doc::DocId;
use boe_textkit::TokenId;

/// Where one sentence starts in the token stream.
#[derive(Debug, Clone, Copy)]
struct SentenceStart {
    doc: DocId,
    /// The sentence's index within its document.
    index: u32,
    /// Stream position of its first token.
    start: u32,
}

/// Inverted index over a [`Corpus`].
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// Every corpus token in reading order; sentence `s` (counted over
    /// the whole corpus) is followed by the sentinel [`sentinel`]`(s)`.
    stream: Vec<TokenId>,
    /// Per token id `t`: its positions are
    /// `positions[offsets[t]..offsets[t + 1]]`.
    offsets: Vec<u32>,
    /// Stream positions grouped by token, ascending within each token.
    positions: Vec<u32>,
    /// Number of documents containing each token, one entry per
    /// vocabulary id.
    doc_freq: Vec<u32>,
    /// Every sentence in reading order; starts ascend.
    sentences: Vec<SentenceStart>,
    doc_lens: Vec<u32>,
    avg_doc_len: f64,
}

/// The sentinel closing corpus sentence `s`: ids count down from
/// `u32::MAX`, above every vocabulary id.
fn sentinel(s: usize) -> TokenId {
    TokenId(u32::MAX - s as u32)
}

impl InvertedIndex {
    /// Build the index over `corpus`.
    ///
    /// # Panics
    /// Panics if the vocabulary size plus the stream length (tokens plus
    /// one sentinel per sentence) exceeds `u32::MAX`, so that positions
    /// or sentinel ids would not fit.
    pub fn build(corpus: &Corpus) -> Self {
        let vocab = corpus.vocab().len();
        let sentence_count: usize = corpus.docs().iter().map(|d| d.sentences.len()).sum();
        let stream_len = corpus.token_count() + sentence_count;
        assert!(
            u32::try_from(vocab + stream_len).is_ok(),
            "corpus exceeds u32::MAX stream positions and token ids"
        );
        let mut stream = Vec::with_capacity(stream_len);
        let mut sentences = Vec::with_capacity(sentence_count);
        let mut doc_lens = Vec::with_capacity(corpus.len());
        // `offsets[t + 1]` counts token `t` until the prefix sum below.
        let mut offsets = vec![0u32; vocab + 1];
        let mut doc_freq = vec![0u32; vocab];
        let mut last_doc = vec![u32::MAX; vocab];
        for doc in corpus.docs() {
            let mut len = 0u32;
            for (si, s) in doc.sentences.iter().enumerate() {
                for &t in &s.tokens {
                    offsets[t.index() + 1] += 1;
                    if last_doc[t.index()] != doc.id.0 {
                        last_doc[t.index()] = doc.id.0;
                        doc_freq[t.index()] += 1;
                    }
                }
                stream.extend_from_slice(&s.tokens);
                stream.push(sentinel(sentences.len()));
                sentences.push(SentenceStart {
                    doc: doc.id,
                    index: si as u32,
                    start: (stream.len() - s.tokens.len() - 1) as u32,
                });
                len += s.tokens.len() as u32;
            }
            doc_lens.push(len);
        }
        for t in 0..vocab {
            offsets[t + 1] += offsets[t];
        }
        let mut next = offsets[..vocab].to_vec();
        let mut positions = vec![0u32; offsets[vocab] as usize];
        for (p, &t) in stream.iter().enumerate() {
            if let Some(slot) = next.get_mut(t.index()) {
                positions[*slot as usize] = p as u32;
                *slot += 1;
            }
        }
        let total: u64 = doc_lens.iter().map(|&l| u64::from(l)).sum();
        let avg_doc_len = if doc_lens.is_empty() {
            0.0
        } else {
            total as f64 / doc_lens.len() as f64
        };
        InvertedIndex {
            stream,
            offsets,
            positions,
            doc_freq,
            sentences,
            doc_lens,
            avg_doc_len,
        }
    }

    /// Number of documents in the indexed corpus.
    pub fn doc_count(&self) -> usize {
        self.doc_lens.len()
    }

    /// Average document length in tokens.
    pub fn avg_doc_len(&self) -> f64 {
        self.avg_doc_len
    }

    /// Length of one document in tokens.
    pub fn doc_len(&self, doc: DocId) -> u32 {
        self.doc_lens[doc.index()]
    }

    /// The ascending stream positions of `token` (empty if unseen).
    fn positions(&self, token: TokenId) -> &[u32] {
        match self.offsets.get(token.index()..token.index() + 2) {
            Some(&[lo, hi]) => &self.positions[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Document frequency of `token`.
    pub fn doc_freq(&self, token: TokenId) -> usize {
        self.doc_freq.get(token.index()).map_or(0, |&n| n as usize)
    }

    /// Corpus frequency (total occurrences) of `token`.
    pub fn term_freq(&self, token: TokenId) -> u64 {
        self.positions(token).len() as u64
    }

    /// Term frequency of `token` within one document.
    pub fn tf_in_doc(&self, token: TokenId, doc: DocId) -> u32 {
        let (lo, hi) = (self.doc_start(doc.0), self.doc_start(doc.0 + 1));
        let ps = self.positions(token);
        (ps.partition_point(|&p| p < hi) - ps.partition_point(|&p| p < lo)) as u32
    }

    /// Stream position where document `doc` starts (the stream's end for
    /// `doc` past the last document).
    fn doc_start(&self, doc: u32) -> u32 {
        let i = self.sentences.partition_point(|s| s.doc.0 < doc);
        self.sentences
            .get(i)
            .map_or(self.stream.len() as u32, |s| s.start)
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
    /// phrase with repeated tokens counts each start once). Each of the
    /// anchor's stream positions `p` proposes the start `p − anchor
    /// offset`, confirmed by comparing the stream around `p` with the
    /// rest of the phrase; the sentinels keep a confirmed window inside
    /// one sentence, and the next one names it. Positions ascend, so
    /// matches come out in the order a scan of every sentence finds them.
    pub(crate) fn walk_phrase(
        &self,
        phrase: &[TokenId],
        mut emit: impl FnMut(DocId, u32, u32) -> bool,
    ) {
        let Some((anchor, &rarest)) = phrase
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| self.term_freq(t))
        else {
            return;
        };
        let (before, after) = (&phrase[..anchor], &phrase[anchor + 1..]);
        for &p in self.positions(rarest) {
            // A match would start `anchor` tokens to the left.
            let p = p as usize;
            let Some(start) = p.checked_sub(anchor) else {
                continue;
            };
            let end = p + 1 + after.len();
            if &self.stream[start..p] != before || self.stream.get(p + 1..end) != Some(after) {
                continue;
            }
            let s = self.sentences[self.sentence_of(end)];
            if !emit(s.doc, s.index, start as u32 - s.start) {
                return;
            }
        }
    }

    /// The corpus sentence holding stream position `pos` (or closed by the
    /// sentinel there): the one the next sentinel names.
    fn sentence_of(&self, pos: usize) -> usize {
        let vocab = self.doc_freq.len();
        let closing = self.stream[pos..]
            .iter()
            .find(|t| t.index() >= vocab)
            .expect("every sentence ends with a sentinel");
        (u32::MAX - closing.0) as usize
    }

    /// Iterate all indexed tokens in id order.
    pub fn tokens(&self) -> Vec<TokenId> {
        (0..self.doc_freq.len() as u32)
            .map(TokenId)
            .filter(|&t| self.doc_freq(t) > 0)
            .collect()
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
    fn phrase_does_not_cross_documents() {
        let mut b = CorpusBuilder::new(Language::English);
        // "corneal" ends document 0, "injuries" begins document 1.
        b.add_text("Damage was corneal");
        b.add_text("Injuries were treated.");
        let c = b.build();
        let ix = InvertedIndex::build(&c);
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        assert!(ix.phrase_matches(&phrase).is_empty());
    }

    #[test]
    fn phrase_with_unknown_token_matches_nothing() {
        let c = corpus();
        let ix = InvertedIndex::build(&c);
        let corneal = c.vocab().get("corneal").expect("interned");
        let unknown = TokenId(c.vocab().len() as u32);
        for phrase in [
            vec![unknown],
            vec![corneal, unknown],
            vec![unknown, corneal],
            vec![corneal, TokenId(u32::MAX)],
        ] {
            assert!(ix.phrase_matches(&phrase).is_empty(), "{phrase:?}");
        }
        assert_eq!(ix.term_freq(unknown), 0);
        assert_eq!(ix.doc_freq(unknown), 0);
        assert_eq!(ix.tf_in_doc(unknown, DocId(0)), 0);
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
        let mut seen: Vec<TokenId> = c
            .docs()
            .iter()
            .flat_map(|d| d.sentences.iter().flat_map(|s| s.tokens.iter().copied()))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(toks, seen);
        assert_eq!(toks.len(), c.vocab().len());
    }
}
