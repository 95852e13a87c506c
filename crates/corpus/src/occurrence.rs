//! Index-backed occurrence resolution and context harvesting.
//!
//! The enrichment workflow keeps asking one question — *where does this
//! phrase occur, and what surrounds it?* — for candidate terms (Step I's
//! measures and TeRGraph graph, Steps II–IV), ontology terms (Step IV's
//! inventory) and term pairs (the relation graph). A full corpus scan
//! per phrase would cost O(ontology terms × corpus tokens) for the
//! inventory build alone.
//!
//! [`OccurrenceIndex`] is one flat positional index. The corpus is laid
//! out once as a single token stream in reading order (documents, then
//! sentences, then tokens), with an end-of-sentence sentinel after every
//! sentence. Per token id, a CSR (compressed sparse row) offset table
//! points into one array of ascending stream positions. Building it takes
//! two linear passes and no hash map: one fills the stream, the sentence
//! table and the per-token counts, the other scatters the positions.
//!
//! A phrase query picks the phrase token with the smallest corpus
//! frequency (the *rarest* token), walks only its stream positions, and
//! confirms each proposed start by comparing the stream window there
//! with the phrase. The sentinels are no vocabulary ids, so no window
//! that crosses a sentence or document boundary can equal a phrase. Each
//! sentinel's id names the sentence it closes, so a match finds its
//! sentence by scanning to the next sentinel, with no per-position
//! sentence array. Cost becomes proportional to the rarest token's
//! occurrences — for typical ontology terms, orders of magnitude below a
//! corpus scan.
//!
//! It is also the one place that decides how a phrase's contexts are
//! built. Every unwindowed context, at [`ContextScope::Sentence`] or
//! [`ContextScope::Document`], comes from one context cache per
//! `stemmed` value: every corpus position's context dimension (filtered
//! once, stemmed once) and every document's base vector. The index
//! builds it on the first query that needs it, on `boe-par` over chunks
//! of documents, and shares it with every later phrase and stage. A
//! sentence-scope context is its sentence's cached dimensions outside the
//! phrase; a document-scope context is its document's base minus the
//! phrase's own dimensions. A summed context
//! ([`OccurrenceIndex::summed_context`]: what Step IV compares, and what
//! Step III's k = 1 path labels) is added up in a dense accumulator, with
//! no vector per occurrence. Only a windowed sentence-scope context is built from
//! scratch with [`context_vector`].
//!
//! ## Determinism contract
//!
//! Every query is **bit-identical** to a full scan of every sentence,
//! including order: the stream is the corpus in reading order and each
//! token's positions ascend, so anchoring on a fixed phrase offset
//! enumerates matches in exactly the `(doc, sentence, start)` reading
//! order. Contexts are bit-identical to [`context_vector`] per
//! occurrence, and sums to their in-order sum: context values are exact
//! integer counts, so the cache's counts, subtractions and sums in any
//! order reproduce them exactly. The cache's chunks come back in
//! document order, so it is the same at any thread count.
//! `crates/corpus/tests/occurrence_index_equality.rs` checks all of this
//! against a plain scan on randomized corpora, at 1, 2, 3 and 8 threads.

use crate::context::{context_dim, context_vector, ContextOptions, ContextScope, Occurrence};
use crate::corpus::Corpus;
use crate::doc::{DocId, Document};
use crate::vector::SparseVector;
use boe_textkit::TokenId;
use std::sync::OnceLock;

/// Where one sentence starts in the token stream.
#[derive(Debug, Clone, Copy)]
struct SentenceStart {
    doc: DocId,
    /// The sentence's index within its document.
    index: u32,
    /// Stream position of its first token.
    start: u32,
}

/// Phrase-occurrence resolution and context harvesting shared across the
/// whole pipeline run.
///
/// Build once per `(corpus, run)` with [`OccurrenceIndex::build`] and
/// share by reference (or `Arc`). All query methods that take a corpus
/// expect the one the index was built over; handing them a different
/// corpus is a logic error (caught by `debug_assert`).
#[derive(Debug)]
pub struct OccurrenceIndex {
    /// Every corpus token in reading order; sentence `s` (counted over
    /// the whole corpus) is followed by the sentinel [`sentinel`]`(s)`.
    stream: Vec<TokenId>,
    /// Per token id `t`: its positions are
    /// `positions[offsets[t]..offsets[t + 1]]`; one entry per vocabulary
    /// id plus one.
    offsets: Vec<u32>,
    /// Stream positions grouped by token, ascending within each token.
    positions: Vec<u32>,
    /// Every sentence in reading order; starts ascend.
    sentences: Vec<SentenceStart>,
    doc_lens: Vec<u32>,
    avg_doc_len: f64,
    /// Context caches, raw (`[0]`) and stemmed (`[1]`), each built on
    /// the first unwindowed context query that needs it.
    context_caches: [OnceLock<ContextCache>; 2],
}

/// The sentinel closing corpus sentence `s`: ids count down from
/// `u32::MAX`, above every vocabulary id.
fn sentinel(s: usize) -> TokenId {
    TokenId(u32::MAX - s as u32)
}

impl OccurrenceIndex {
    /// Build the positional index over `corpus` (two linear passes).
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
        for doc in corpus.docs() {
            let mut len = 0u32;
            for (si, s) in doc.sentences.iter().enumerate() {
                for &t in &s.tokens {
                    offsets[t.index() + 1] += 1;
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
        OccurrenceIndex {
            stream,
            offsets,
            positions,
            sentences,
            doc_lens,
            avg_doc_len,
            context_caches: Default::default(),
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

    /// Corpus frequency (total occurrences) of `token`.
    pub fn term_freq(&self, token: TokenId) -> u64 {
        self.positions(token).len() as u64
    }

    /// Documents containing every token of `phrase` *adjacently in order*
    /// (exact phrase match), with the match count per document, in
    /// document order.
    pub fn phrase_matches(&self, phrase: &[TokenId]) -> Vec<(DocId, u32)> {
        let mut out: Vec<(DocId, u32)> = Vec::new();
        self.walk_phrase(phrase, |occ| {
            match out.last_mut() {
                Some((d, n)) if *d == occ.doc => *n += 1,
                _ => out.push((occ.doc, 1)),
            }
            true
        });
        out
    }

    /// All occurrences of `phrase`, in `(doc, sentence, start)` order.
    pub fn find_occurrences(&self, corpus: &Corpus, phrase: &[TokenId]) -> Vec<Occurrence> {
        debug_assert_eq!(self.doc_count(), corpus.len(), "index/corpus mismatch");
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
        debug_assert_eq!(self.doc_count(), corpus.len(), "index/corpus mismatch");
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
        self.contexts_of(corpus, &occs, phrase.len(), opts)
    }

    /// The context vector of each of `occs`, occurrences of a phrase of
    /// `phrase_len` tokens, in the order given.
    pub fn contexts_of(
        &self,
        corpus: &Corpus,
        occs: &[Occurrence],
        phrase_len: usize,
        opts: ContextOptions,
    ) -> Vec<SparseVector> {
        debug_assert_eq!(self.doc_count(), corpus.len(), "index/corpus mismatch");
        match self.cache(corpus, opts) {
            Some(cache) => occs
                .iter()
                .map(|&o| cache.context_vector(o, phrase_len, opts.scope))
                .collect(),
            None => occs
                .iter()
                .map(|&o| context_vector(corpus, o, phrase_len, opts))
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
        let context = self.summed_context(corpus, &occs, phrase.len(), opts);
        (occs, context)
    }

    /// The sum of the contexts of `occs`, occurrences of a phrase of
    /// `phrase_len` tokens (such as [`Self::find_occurrences`] returns,
    /// or any part of that list): bit-identical to
    /// [`SparseVector::sum_of`] over [`Self::contexts_of`], without
    /// building one vector per occurrence when the cache serves `opts`.
    pub fn summed_context(
        &self,
        corpus: &Corpus,
        occs: &[Occurrence],
        phrase_len: usize,
        opts: ContextOptions,
    ) -> SparseVector {
        debug_assert_eq!(self.doc_count(), corpus.len(), "index/corpus mismatch");
        match self.cache(corpus, opts) {
            Some(cache) => cache.aggregate(occs, phrase_len, opts.scope),
            None => SparseVector::sum_of(&self.contexts_of(corpus, occs, phrase_len, opts)),
        }
    }

    /// The context cache for `opts.stemmed`, built on first use; `None`
    /// for a windowed sentence-scope context, which is built directly.
    fn cache(&self, corpus: &Corpus, opts: ContextOptions) -> Option<&ContextCache> {
        (opts.scope == ContextScope::Document || opts.window.is_none()).then(|| {
            self.context_caches[usize::from(opts.stemmed)]
                .get_or_init(|| ContextCache::build(corpus, opts.stemmed))
        })
    }

    /// Calls `emit` per exact match of `phrase`, in `(doc, sentence,
    /// start)` reading order, until it returns `false`.
    ///
    /// The walk anchors on the *rarest* phrase token, the one with the
    /// smallest corpus frequency (the first such offset on ties, so a
    /// phrase with repeated tokens counts each start once). Each of the
    /// anchor's stream positions `p` proposes the start `p − anchor
    /// offset`, confirmed by comparing the stream around `p` with the
    /// rest of the phrase; the sentinels keep a confirmed window inside
    /// one sentence, and the next one names it. Positions ascend, so
    /// matches come out in the order a scan of every sentence finds them.
    fn walk_phrase(&self, phrase: &[TokenId], mut emit: impl FnMut(Occurrence) -> bool) {
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
            let occ = Occurrence {
                doc: s.doc,
                sentence: s.index as usize,
                start: start - s.start as usize,
            };
            if !emit(occ) {
                return;
            }
        }
    }

    /// The corpus sentence holding stream position `pos` (or closed by the
    /// sentinel there): the one the next sentinel names.
    fn sentence_of(&self, pos: usize) -> usize {
        let vocab = self.offsets.len() - 1;
        let closing = self.stream[pos..]
            .iter()
            .find(|t| t.index() >= vocab)
            .expect("every sentence ends with a sentinel");
        (u32::MAX - closing.0) as usize
    }
}

/// Every corpus position's context dimension and every document's
/// context base, in raw or stem dimensions: what each unwindowed context
/// is made of, at either scope.
///
/// Building a context from scratch repeats the stopword/tag filtering
/// and the stem lookup of every position it reads, per occurrence. This
/// cache does that work once per corpus position. A sentence-scope
/// context is then the sentence's cached dimensions outside the phrase,
/// and a document-scope context the document's cached base minus the
/// dimensions of the phrase's own positions. Context values are exact
/// integer counts, so both reproduce [`context_vector`]'s output bit for
/// bit.
///
/// The documents are cached in chunks of [`CHUNK_DOCS`], each built by
/// one `boe-par` item into a handful of flat buffers, and kept in
/// document order as built: the cache is the same at any thread count,
/// and joining the chunks would only copy every position once more.
#[derive(Debug)]
struct ContextCache {
    /// The documents, [`CHUNK_DOCS`] per chunk, in order.
    chunks: Vec<DocChunk>,
    /// One more than the largest unfiltered dimension of any document (0
    /// when every position is filtered): the size of
    /// [`Self::aggregate`]'s dense accumulator. Dimensions are token or
    /// stem ids, so this is bounded by the corpus's vocabulary.
    dim_space: usize,
}

/// Documents one chunk of the [`ContextCache`] holds: one `boe-par` item
/// of its build. A power of two, so finding a document's chunk is a
/// shift.
const CHUNK_DOCS: usize = 64;

/// Marks a position that contributes no dimension.
const FILTERED: u32 = u32::MAX;

/// The [`ContextCache`] share of up to [`CHUNK_DOCS`] consecutive
/// documents; every offset is local to the chunk.
#[derive(Debug)]
struct DocChunk {
    /// The dimension every position contributes, documents and sentences
    /// laid end to end ([`FILTERED`] for stopwords and non-lexical
    /// tokens).
    dims: Vec<u32>,
    /// Per sentence: offset of its first position in `dims`, plus a
    /// final entry for the end of `dims`.
    sentence_start: Vec<u32>,
    /// Per document: index of its first sentence in `sentence_start`.
    doc_first_sentence: Vec<u32>,
    /// Every document's full filtered context vector, as sorted
    /// `(dimension, count)` entries laid end to end.
    base: Vec<(u32, f64)>,
    /// Per document: offset of its first entry in `base`, plus a final
    /// entry for the end of `base`.
    base_start: Vec<u32>,
}

/// One document of the [`ContextCache`].
struct CachedDoc<'a> {
    /// The dimensions of its chunk.
    dims: &'a [u32],
    /// Its sentences' starts in `dims`, plus the end of its last one.
    sentence_start: &'a [u32],
    /// Its base vector's entries.
    base: &'a [(u32, f64)],
}

impl ContextCache {
    /// Build every chunk on `boe-par`; the chunks come back in document
    /// order. A stemmed cache builds the corpus's stem map first, so no
    /// worker waits on it.
    fn build(corpus: &Corpus, stemmed: bool) -> Self {
        if stemmed {
            corpus.stem_map();
        }
        let docs = corpus.docs();
        let chunks = boe_par::par_map_indexed(docs.len().div_ceil(CHUNK_DOCS), |c| {
            let end = docs.len().min((c + 1) * CHUNK_DOCS);
            DocChunk::build(corpus, &docs[c * CHUNK_DOCS..end], stemmed)
        });
        let dim_space = chunks
            .iter()
            .flat_map(|c| &c.dims)
            .filter(|&&d| d != FILTERED)
            .map(|&d| d as usize + 1)
            .max()
            .unwrap_or(0);
        ContextCache { chunks, dim_space }
    }

    /// The cached share of one document.
    fn doc(&self, doc: DocId) -> CachedDoc<'_> {
        let (chunk, i) = (
            &self.chunks[doc.index() / CHUNK_DOCS],
            doc.index() % CHUNK_DOCS,
        );
        let first = chunk.doc_first_sentence[i] as usize;
        let last = chunk
            .doc_first_sentence
            .get(i + 1)
            .map_or(chunk.sentence_start.len() - 1, |&s| s as usize);
        CachedDoc {
            dims: &chunk.dims,
            sentence_start: &chunk.sentence_start[first..=last],
            base: &chunk.base[chunk.base_start[i] as usize..chunk.base_start[i + 1] as usize],
        }
    }

    /// The context vector of one occurrence at `scope`.
    fn context_vector(
        &self,
        occ: Occurrence,
        phrase_len: usize,
        scope: ContextScope,
    ) -> SparseVector {
        let doc = self.doc(occ.doc);
        let (before, phrase, after) = doc.split(occ, phrase_len);
        match scope {
            ContextScope::Sentence => counts(before.iter().chain(after).copied().collect()),
            ContextScope::Document => {
                let mut removed: Vec<u32> =
                    phrase.iter().copied().filter(|&d| d != FILTERED).collect();
                removed.sort_unstable();
                SparseVector::minus_counts(doc.base, &removed)
            }
        }
    }

    /// The summed context over `occs` at `scope`, in a dense accumulator
    /// over the cache's own dimension space ([`Self::dim_space`], fixed
    /// when the cache is built), with no hash map and no per-occurrence
    /// vector.
    ///
    /// At sentence scope each occurrence adds `+1` per dimension of its
    /// sentence outside the phrase. At document scope, a run of `k`
    /// occurrences in one document (occurrence resolution lists a
    /// document's occurrences together) contributes `k × base` in one
    /// pass, then `−1` per dimension of each phrase's own positions. Each slot starts at
    /// `0.0` and every value stays an exact integer count, so the sum is
    /// bit-identical to the per-occurrence sum in any order. The
    /// dimensions touched are recorded when their slot is `0.0`, then
    /// sorted, and the nonzero slots among them form the result.
    fn aggregate(
        &self,
        occs: &[Occurrence],
        phrase_len: usize,
        scope: ContextScope,
    ) -> SparseVector {
        if occs.is_empty() {
            return SparseVector::new();
        }
        let mut acc = vec![0.0f64; self.dim_space];
        let mut touched: Vec<u32> = Vec::new();
        let mut add = |dim: u32, v: f64| {
            if dim == FILTERED {
                return;
            }
            let slot = &mut acc[dim as usize];
            if *slot == 0.0 {
                touched.push(dim);
            }
            *slot += v;
        };
        match scope {
            ContextScope::Sentence => {
                for &o in occs {
                    let (before, _, after) = self.doc(o.doc).split(o, phrase_len);
                    for &dim in before.iter().chain(after) {
                        add(dim, 1.0);
                    }
                }
            }
            ContextScope::Document => {
                for group in occs.chunk_by(|a, b| a.doc == b.doc) {
                    let doc = self.doc(group[0].doc);
                    let k = group.len() as f64;
                    for &(d, v) in doc.base {
                        add(d, k * v);
                    }
                    for &o in group {
                        for &dim in doc.split(o, phrase_len).1 {
                            add(dim, -1.0);
                        }
                    }
                }
            }
        }
        // A slot that returned to `0.0` and was touched again is listed
        // twice.
        touched.sort_unstable();
        touched.dedup();
        SparseVector::from_sorted(
            touched
                .into_iter()
                .map(|d| (d, acc[d as usize]))
                .filter(|&(_, v)| v != 0.0)
                .collect(),
        )
    }
}

impl DocChunk {
    /// One pass of [`context_dim`] over the positions of `docs`, then
    /// each document's base from its unfiltered dimensions, sorted. Every
    /// buffer is allocated once, at its final size.
    fn build(corpus: &Corpus, docs: &[Document], stemmed: bool) -> Self {
        let positions = docs.iter().map(Document::token_count).sum();
        let sentences: usize = docs.iter().map(|d| d.sentences.len()).sum();
        let mut dims = Vec::with_capacity(positions);
        let mut sentence_start = Vec::with_capacity(sentences + 1);
        let mut doc_first_sentence = Vec::with_capacity(docs.len());
        // Each document's unfiltered dimensions, sorted in place, from
        // `sorted[sorted_start[d]]` on.
        let mut sorted: Vec<u32> = Vec::with_capacity(positions);
        let mut sorted_start = Vec::with_capacity(docs.len() + 1);
        for doc in docs {
            doc_first_sentence.push(sentence_start.len() as u32);
            sorted_start.push(sorted.len());
            let first = dims.len();
            for s in &doc.sentences {
                sentence_start.push(dims.len() as u32);
                dims.extend((0..s.tokens.len()).map(|i| {
                    context_dim(corpus, s, i, stemmed).map_or(FILTERED, |dim| {
                        debug_assert_ne!(dim, FILTERED, "dimension collides with the marker");
                        dim
                    })
                }));
            }
            let from = sorted.len();
            sorted.extend(dims[first..].iter().filter(|&&d| d != FILTERED));
            sorted[from..].sort_unstable();
        }
        sentence_start.push(dims.len() as u32);
        sorted_start.push(sorted.len());
        let doc_dims = |w: &[usize]| &sorted[w[0]..w[1]];
        let entries = sorted_start.windows(2).map(|w| runs(doc_dims(w)).count());
        let mut base = Vec::with_capacity(entries.sum());
        let mut base_start = Vec::with_capacity(docs.len() + 1);
        for w in sorted_start.windows(2) {
            base_start.push(base.len() as u32);
            base.extend(runs(doc_dims(w)));
        }
        base_start.push(base.len() as u32);
        DocChunk {
            dims,
            sentence_start,
            doc_first_sentence,
            base,
            base_start,
        }
    }
}

impl<'a> CachedDoc<'a> {
    /// The dimensions of an occurrence's sentence before, inside and
    /// after the phrase.
    fn split(&self, occ: Occurrence, phrase_len: usize) -> (&'a [u32], &'a [u32], &'a [u32]) {
        let (lo, hi) = (
            self.sentence_start[occ.sentence] as usize,
            self.sentence_start[occ.sentence + 1] as usize,
        );
        let (before, rest) = self.dims[lo..hi].split_at(occ.start);
        let (phrase, after) = rest.split_at(phrase_len.min(rest.len()));
        (before, phrase, after)
    }
}

/// `(dimension, repeats)` per run of equal values in `sorted`.
fn runs(sorted: &[u32]) -> impl Iterator<Item = (u32, f64)> + '_ {
    sorted
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as f64))
}

/// The count vector of the unfiltered dimensions in `dims`: one entry
/// per distinct dimension, valued by its number of repeats. The counts
/// are exact, so this is bit-identical to [`SparseVector::from_pairs`]
/// over `(dim, 1.0)` pairs.
fn counts(mut dims: Vec<u32>) -> SparseVector {
    dims.retain(|&d| d != FILTERED);
    dims.sort_unstable();
    SparseVector::from_sorted(runs(&dims).collect())
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
    fn empty_phrase_has_no_phrase_matches() {
        let c = corpus();
        let ox = OccurrenceIndex::build(&c);
        assert!(ox.phrase_matches(&[]).is_empty());
    }

    #[test]
    fn doc_and_term_freq() {
        let c = corpus();
        let ox = OccurrenceIndex::build(&c);
        let corneal = c.vocab().get("corneal").expect("interned");
        let cornea = c.vocab().get("cornea").expect("interned");
        assert_eq!(ox.term_freq(corneal), 4);
        assert_eq!(ox.term_freq(cornea), 1);
        assert_eq!(ox.doc_count(), 3);
    }

    #[test]
    fn phrase_matching() {
        let c = corpus();
        let ox = OccurrenceIndex::build(&c);
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        assert_eq!(
            ox.phrase_matches(&phrase),
            vec![(DocId(0), 2), (DocId(1), 1)]
        );
    }

    #[test]
    fn phrase_does_not_cross_sentences() {
        let mut b = CorpusBuilder::new(Language::English);
        // "corneal" ends sentence 1, "injuries" begins sentence 2 — the
        // phrase must not match across the boundary.
        b.add_text("Damage was corneal. Injuries were treated.");
        let c = b.build();
        let ox = OccurrenceIndex::build(&c);
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        assert!(ox.phrase_matches(&phrase).is_empty());
    }

    #[test]
    fn phrase_does_not_cross_documents() {
        let mut b = CorpusBuilder::new(Language::English);
        // "corneal" ends document 0, "injuries" begins document 1.
        b.add_text("Damage was corneal");
        b.add_text("Injuries were treated.");
        let c = b.build();
        let ox = OccurrenceIndex::build(&c);
        let phrase = c.phrase_ids("corneal injuries").expect("known");
        assert!(ox.phrase_matches(&phrase).is_empty());
        assert!(ox.find_occurrences(&c, &phrase).is_empty());
        assert!(!ox.contains(&c, &phrase));
    }

    #[test]
    fn phrase_with_unknown_token_matches_nothing() {
        let c = corpus();
        let ox = OccurrenceIndex::build(&c);
        let corneal = c.vocab().get("corneal").expect("interned");
        let unknown = TokenId(c.vocab().len() as u32);
        for phrase in [
            vec![unknown],
            vec![corneal, unknown],
            vec![unknown, corneal],
            vec![corneal, TokenId(u32::MAX)],
        ] {
            assert!(ox.phrase_matches(&phrase).is_empty(), "{phrase:?}");
            assert!(ox.find_occurrences(&c, &phrase).is_empty(), "{phrase:?}");
        }
        assert_eq!(ox.term_freq(unknown), 0);
        assert_eq!(ox.term_freq(TokenId(u32::MAX)), 0);
    }

    #[test]
    fn avg_and_doc_lengths() {
        let c = corpus();
        let ox = OccurrenceIndex::build(&c);
        let total: u32 = (0..c.len() as u32).map(|i| ox.doc_len(DocId(i))).sum();
        assert_eq!(total as usize, c.token_count());
        assert!((ox.avg_doc_len() - total as f64 / 3.0).abs() < 1e-12);
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
            // A fresh index, so the context cache is first built inside
            // the fan-out.
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
