//! Candidate-term extraction via linguistic patterns.
//!
//! [`try_extract_candidates`] is one document-parallel kernel on
//! `boe_par`, in three phases:
//!
//! 1. **Scan.** Chunks of consecutive documents are matched in parallel.
//!    Every match that neither starts nor ends on a stopword is appended,
//!    as a 12-byte record (sentence, start, pattern) that holds no slice,
//!    to one of the chunk's shard lists. The shard is picked by an Fx
//!    hash of the match's tokens, so every match of one token sequence
//!    lands in the same shard.
//! 2. **Intern.** Shards are interned in parallel, each into its own
//!    open-addressing table of `u32` ids. A shard walks its lists chunk
//!    by chunk, so its matches come in reading order: a sequence's first
//!    match, which fixes its pattern, is its first in the corpus.
//! 3. **Nest.** The kept candidates are sorted by token ids. Nesting is
//!    counted per chunk in parallel against their ranks, and the counts
//!    are summed.
//!
//! A sequence lives in exactly one shard and every count is a sum, so the
//! set is the same at any thread, chunk or shard count: no phase merges
//! partial results in an order that depends on them.

use boe_corpus::doc::Sentence;
use boe_corpus::Corpus;
use boe_textkit::pattern::PatternSet;
use boe_textkit::TokenId;
use std::sync::Mutex;

/// One candidate term: a token-id sequence with its corpus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateTerm {
    /// The token-id sequence.
    pub tokens: Vec<TokenId>,
    /// Joined lower-case surface form.
    pub surface: String,
    /// Index of the matching pattern in the language's [`PatternSet`].
    pub pattern: usize,
    /// Total occurrence count.
    pub freq: u32,
    /// Number of occurrences nested inside a *longer* candidate.
    pub nested_freq: u32,
    /// Number of distinct longer candidates containing this one.
    pub containers: u32,
}

impl CandidateTerm {
    /// Number of words.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the candidate has no tokens (never true after extraction).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// The candidate inventory of a corpus.
#[derive(Debug)]
pub struct CandidateSet {
    /// Candidates in ascending order of their token-id sequences
    /// ([`get`](Self::get) binary-searches this order).
    pub terms: Vec<CandidateTerm>,
}

impl CandidateSet {
    /// Find a candidate by its token sequence.
    pub fn get(&self, tokens: &[TokenId]) -> Option<&CandidateTerm> {
        self.terms
            .binary_search_by(|t| t.tokens.as_slice().cmp(tokens))
            .ok()
            .map(|i| &self.terms[i])
    }

    /// Find a candidate by its surface form.
    pub fn get_surface(&self, surface: &str) -> Option<&CandidateTerm> {
        self.terms.iter().find(|t| t.surface == surface)
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// Extraction options. Whatever they are, a candidate is a match of one
/// of the language's term patterns (so at most five words long) and
/// never starts or ends with a stopword.
#[derive(Debug, Clone, Copy)]
pub struct CandidateOptions {
    /// Minimum total frequency to keep a candidate.
    pub min_freq: u32,
}

impl Default for CandidateOptions {
    fn default() -> Self {
        CandidateOptions { min_freq: 2 }
    }
}

/// Document chunks per worker thread: more chunks than workers lets the
/// `boe_par` claims even out documents of uneven length.
const CHUNKS_PER_THREAD: usize = 4;

/// One pattern match as the scan records it.
#[derive(Debug, Clone, Copy)]
struct Match {
    /// The sentence, numbered across the corpus in reading order.
    sentence: u32,
    /// The first token's position in the sentence.
    start: u32,
    /// The matching pattern's index until the match is interned, then
    /// its sequence's index in its shard's [`Raw`] list.
    id: u32,
}

/// One distinct token sequence the scan matched.
#[derive(Debug, Clone, Copy)]
struct Raw<'c> {
    /// The sequence, borrowed from the corpus.
    tokens: &'c [TokenId],
    /// The pattern of its first match.
    pattern: u32,
    /// Number of matches.
    freq: u32,
}

/// The Fx hash of a token sequence: per token, the `rustc` hasher's
/// rotate, xor and multiply, from the length. SipHash cost more than
/// half of the scan. The hash is not keyed, so a text crafted to make
/// sequences collide slows the probing; it cannot change the set.
fn fx_hash(tokens: &[TokenId]) -> u64 {
    tokens.iter().fold(tokens.len() as u64, |h, t| {
        (h.rotate_left(5) ^ u64::from(t.0)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    })
}

/// The shard of a token sequence among `shards`, from the low half of
/// its hash (an [`Interner`] indexes by the high bits).
fn shard_of(tokens: &[TokenId], shards: usize) -> usize {
    if shards == 1 {
        return 0;
    }
    ((u64::from(fx_hash(tokens) as u32) * shards as u64) >> 32) as usize
}

/// One shard's distinct token sequences, in first-match order, behind an
/// open-addressing table of their ids (linear probing, at most half
/// full): four bytes a slot, no key copied.
struct Interner<'c> {
    /// `1 +` the index in `raws` of the sequence in each slot, 0 if empty.
    slots: Vec<u32>,
    raws: Vec<Raw<'c>>,
}

impl<'c> Interner<'c> {
    fn new() -> Self {
        Interner {
            slots: vec![0; 16],
            raws: Vec::new(),
        }
    }

    /// The slot holding `tokens`, or the empty slot it would take.
    fn slot(&self, tokens: &[TokenId]) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (fx_hash(tokens) >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[i] {
                0 => return i,
                id if self.raws[id as usize - 1].tokens == tokens => return i,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Count one match of `tokens` with `pattern` (kept only if it is the
    /// sequence's first), and return the sequence's id.
    fn count(&mut self, tokens: &'c [TokenId], pattern: u32) -> u32 {
        let mut i = self.slot(tokens);
        if self.slots[i] == 0 {
            if 2 * (self.raws.len() + 1) > self.slots.len() {
                self.slots = vec![0; 2 * self.slots.len()];
                for id in 0..self.raws.len() {
                    let j = self.slot(self.raws[id].tokens);
                    self.slots[j] = id as u32 + 1;
                }
                i = self.slot(tokens);
            }
            self.raws.push(Raw {
                tokens,
                pattern,
                freq: 0,
            });
            self.slots[i] = self.raws.len() as u32;
        }
        let id = self.slots[i] - 1;
        self.raws[id as usize].freq += 1;
        id
    }
}

/// Extract the candidate set of `corpus` using its language's pattern
/// inventory. Nested occurrences are tracked (C-value needs them).
pub fn extract_candidates(corpus: &Corpus, opts: CandidateOptions) -> CandidateSet {
    try_extract_candidates(corpus, opts, &|| false).expect("never-stop predicate cannot interrupt")
}

/// [`extract_candidates`] with cooperative cancellation: `should_stop`
/// is polled before every document of the scan and every candidate of
/// the assembly pass. Once it returns `true` the extraction winds down
/// and `None` is returned — partial candidate statistics would be
/// corpus-prefix-dependent, so an interrupted extraction yields no set
/// at all rather than a misleading one.
///
/// The scan, intern and nest phases (see the module docs) run on
/// `boe_par` with `threads() · 4` document chunks (at most one per
/// document) and `threads()` shards; the set is the same at any count.
pub fn try_extract_candidates<S>(
    corpus: &Corpus,
    opts: CandidateOptions,
    should_stop: &S,
) -> Option<CandidateSet>
where
    S: Fn() -> bool + Sync,
{
    boe_chaos::inject(boe_chaos::sites::TERMEX_CANDIDATES);
    let patterns = PatternSet::for_language(corpus.language());
    let docs = corpus.docs();
    let threads = boe_par::threads();
    let n_shards = threads;
    let n_chunks = (CHUNKS_PER_THREAD * threads).min(docs.len()).max(1);
    // Chunk `c` holds documents `chunk_docs(c)`; the sentences of
    // document `d` are numbered from `first_sentence[d]`.
    let chunk_docs = |c: usize| c * docs.len() / n_chunks..(c + 1) * docs.len() / n_chunks;
    let mut first_sentence = Vec::with_capacity(docs.len() + 1);
    let mut sentences: Vec<&Sentence> = Vec::new();
    for doc in docs {
        first_sentence.push(sentences.len());
        sentences.extend(&doc.sentences);
    }
    first_sentence.push(sentences.len());

    // Scan: one list of matches per (chunk, shard), in reading order.
    let scanned = boe_par::par_map_indexed(n_chunks, |c| {
        let mut lists = vec![Vec::new(); n_shards];
        let mut found = Vec::new();
        for d in chunk_docs(c) {
            if should_stop() {
                return None;
            }
            for (si, s) in (first_sentence[d]..).zip(&docs[d].sentences) {
                patterns.matches(&s.tags, &mut found);
                for m in &found {
                    let tokens = &s.tokens[m.start..m.start + m.len];
                    if corpus.is_stopword(tokens[0]) || corpus.is_stopword(tokens[m.len - 1]) {
                        continue;
                    }
                    lists[shard_of(tokens, n_shards)].push(Match {
                        sentence: si as u32,
                        start: m.start as u32,
                        id: m.pattern as u32,
                    });
                }
            }
        }
        Some(lists.into_iter().map(Mutex::new).collect::<Vec<_>>())
    });
    let matches: Vec<Vec<Mutex<Vec<Match>>>> = scanned.into_iter().collect::<Option<_>>()?;

    // Intern: each shard's distinct sequences. Its worker, the only one
    // to lock its lists, relabels their matches with them.
    let raws: Vec<Vec<Raw>> = boe_par::par_map_indexed(n_shards, |s| {
        let mut interner = Interner::new();
        for lists in &matches {
            let mut list = lists[s].lock().expect("no worker panics holding a list");
            for m in list.iter_mut() {
                let start = m.start as usize;
                let len = patterns.patterns()[m.id as usize].len();
                let tokens = &sentences[m.sentence as usize].tokens[start..start + len];
                m.id = interner.count(tokens, m.id);
            }
        }
        interner.raws
    });
    let matches: Vec<Vec<Vec<Match>>> = matches
        .into_iter()
        .map(|lists| {
            lists
                .into_iter()
                .map(|l| l.into_inner().expect("no worker panics holding a list"))
                .collect()
        })
        .collect();

    // Keep candidates above the frequency threshold, ordered by tokens
    // (distinct sequences, so the unstable sort is deterministic), and
    // rank each shard's sequences in that order.
    let mut kept: Vec<(u32, u32)> = Vec::new();
    for (s, shard) in raws.iter().enumerate() {
        kept.extend(
            (0..shard.len() as u32)
                .filter(|&i| shard[i as usize].freq >= opts.min_freq)
                .map(|i| (s as u32, i)),
        );
    }
    kept.sort_unstable_by_key(|&(s, i)| raws[s as usize][i as usize].tokens);
    const DROPPED: u32 = u32::MAX;
    let mut rank: Vec<Vec<u32>> = raws.iter().map(|r| vec![DROPPED; r.len()]).collect();
    for (r, &(s, i)) in kept.iter().enumerate() {
        rank[s as usize][i as usize] = r as u32;
    }
    let kept: Vec<Raw> = kept
        .into_iter()
        .map(|(s, i)| raws[s as usize][i as usize])
        .collect();
    drop(raws);

    // Nest, per chunk: a kept occurrence (start, len) is nested if a kept
    // longer occurrence (start', len') of the same sentence covers it.
    // Each chunk lists the rank of every nested occurrence and its
    // distinct (candidate, container) pairs.
    let nests = boe_par::par_map_indexed(n_chunks, |c| {
        let docs = chunk_docs(c);
        let mut cursors = vec![0; n_shards];
        let mut occs: Vec<(u32, u32, u32)> = Vec::new();
        let mut nested: Vec<u32> = Vec::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for sentence in first_sentence[docs.start]..first_sentence[docs.end] {
            occs.clear();
            for (s, cursor) in cursors.iter_mut().enumerate() {
                let list = &matches[c][s];
                while let Some(m) = list
                    .get(*cursor)
                    .filter(|m| m.sentence as usize == sentence)
                {
                    *cursor += 1;
                    let r = rank[s][m.id as usize];
                    if r != DROPPED {
                        occs.push((m.start, kept[r as usize].tokens.len() as u32, r));
                    }
                }
            }
            for &(st, ln, inner) in &occs {
                let before = pairs.len();
                for &(ost, oln, outer) in &occs {
                    if oln > ln && ost <= st && ost + oln >= st + ln {
                        pairs.push((inner, outer));
                    }
                }
                if pairs.len() > before {
                    nested.push(inner);
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        (nested, pairs)
    });
    drop((matches, rank));
    let mut nested_freq = vec![0u32; kept.len()];
    let mut contained_in: Vec<(u32, u32)> = Vec::new();
    for (nested, pairs) in nests {
        for r in nested {
            nested_freq[r as usize] += 1;
        }
        contained_in.extend(pairs);
    }
    contained_in.sort_unstable();
    contained_in.dedup();
    let mut containers = vec![0u32; kept.len()];
    for &(inner, _) in &contained_in {
        containers[inner as usize] += 1;
    }
    drop(contained_in);

    let mut terms = Vec::with_capacity(kept.len());
    for (
        r,
        &Raw {
            tokens,
            pattern,
            freq,
        },
    ) in kept.iter().enumerate()
    {
        if should_stop() {
            return None;
        }
        let surface = tokens
            .iter()
            .map(|&t| corpus.text(t))
            .collect::<Vec<_>>()
            .join(" ");
        terms.push(CandidateTerm {
            tokens: tokens.to_vec(),
            surface,
            pattern: pattern as usize,
            freq,
            nested_freq: nested_freq[r],
            containers: containers[r],
        });
    }
    Some(CandidateSet { terms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::corpus::CorpusBuilder;
    use boe_textkit::Language;

    fn corpus(texts: &[&str]) -> Corpus {
        let mut b = CorpusBuilder::new(Language::English);
        for t in texts {
            b.add_text(t);
        }
        b.build()
    }

    #[test]
    fn extracts_adjective_noun_candidates() {
        let c = corpus(&[
            "acute corneal injuries require treatment.",
            "acute corneal injuries heal slowly.",
        ]);
        let set = extract_candidates(&c, CandidateOptions::default());
        let t = set.get_surface("corneal injuries").expect("extracted");
        assert_eq!(t.freq, 2);
        assert!(set.get_surface("acute corneal injuries").is_some());
    }

    #[test]
    fn nested_occurrences_are_counted() {
        let c = corpus(&[
            "acute corneal injuries require treatment.",
            "acute corneal injuries heal slowly.",
            "corneal injuries persist.",
        ]);
        let set = extract_candidates(&c, CandidateOptions::default());
        let inner = set.get_surface("corneal injuries").expect("extracted");
        assert_eq!(inner.freq, 3);
        assert_eq!(inner.nested_freq, 2, "two occurrences inside the ANN");
        assert_eq!(inner.containers, 1);
        let outer = set.get_surface("acute corneal injuries").expect("kept");
        assert_eq!(outer.nested_freq, 0);
    }

    #[test]
    fn min_freq_filters_hapaxes() {
        let c = corpus(&["rare singleton phrase.", "different text entirely."]);
        let set = extract_candidates(&c, CandidateOptions::default());
        assert!(set.get_surface("singleton phrase").is_none());
        let relaxed = extract_candidates(&c, CandidateOptions { min_freq: 1 });
        assert!(relaxed.len() > set.len());
    }

    #[test]
    fn candidates_are_looked_up_by_tokens() {
        let c = corpus(&["corneal injuries heal.", "corneal injuries persist."]);
        let set = extract_candidates(&c, CandidateOptions::default());
        let ids = c.phrase_ids("corneal injuries").expect("known");
        let t = set.get(&ids).expect("by tokens");
        assert_eq!(t.surface, "corneal injuries");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn the_first_match_in_reading_order_fixes_the_pattern() {
        // "corneal ulcer" is tagged A N in the first document and N N in
        // the seven after it, which later chunks scan.
        use boe_textkit::pos::PosTag::{Adjective, Noun};
        let words = || vec!["corneal".to_owned(), "ulcer".to_owned()];
        let mut b = CorpusBuilder::new(Language::English);
        b.add_tokenized(vec![(words(), vec![Adjective, Noun])]);
        for _ in 0..7 {
            b.add_tokenized(vec![(words(), vec![Noun, Noun])]);
        }
        let c = b.build();
        let t = extract_candidates(&c, CandidateOptions::default());
        let t = t.get_surface("corneal ulcer").expect("extracted");
        let patterns = PatternSet::for_language(Language::English);
        assert_eq!(patterns.patterns()[t.pattern].tags, [Adjective, Noun]);
        assert_eq!(t.freq, 8);
    }

    #[test]
    fn unigram_nouns_are_candidates() {
        let c = corpus(&["cornea heals.", "cornea scars."]);
        let set = extract_candidates(&c, CandidateOptions::default());
        assert!(set.get_surface("cornea").is_some());
    }

    #[test]
    fn deterministic_order() {
        let c = corpus(&["corneal injuries heal.", "corneal injuries persist."]);
        let a = extract_candidates(&c, CandidateOptions::default());
        let b = extract_candidates(&c, CandidateOptions::default());
        let sa: Vec<&str> = a.terms.iter().map(|t| t.surface.as_str()).collect();
        let sb: Vec<&str> = b.terms.iter().map(|t| t.surface.as_str()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn interrupted_extraction_yields_none() {
        let c = corpus(&["corneal injuries heal.", "corneal injuries persist."]);
        assert!(try_extract_candidates(&c, CandidateOptions::default(), &|| true).is_none());
        assert!(try_extract_candidates(&c, CandidateOptions::default(), &|| false).is_some());
    }
}
