//! Candidate-term extraction via linguistic patterns.

use boe_corpus::Corpus;
use boe_textkit::pattern::PatternSet;
use boe_textkit::TokenId;
use std::collections::HashMap;

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
    /// Candidates in first-seen order.
    pub terms: Vec<CandidateTerm>,
    by_tokens: HashMap<Vec<TokenId>, usize>,
}

impl CandidateSet {
    /// Find a candidate by its token sequence.
    pub fn get(&self, tokens: &[TokenId]) -> Option<&CandidateTerm> {
        self.by_tokens.get(tokens).map(|&i| &self.terms[i])
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

/// One distinct token sequence the scan matched.
struct Raw<'c> {
    /// The sequence, borrowed from the corpus.
    tokens: &'c [TokenId],
    /// The pattern of its first match.
    pattern: usize,
    /// Number of matches.
    freq: u32,
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
/// One pass in document order appends every pattern match to a single
/// reading-order list and counts it against its distinct token sequence,
/// keyed by the corpus slice itself (the first match fixes the
/// candidate's pattern). Nesting is then counted within each sentence's
/// contiguous run of that list, against the kept candidates only.
pub fn try_extract_candidates<S>(
    corpus: &Corpus,
    opts: CandidateOptions,
    should_stop: &S,
) -> Option<CandidateSet>
where
    S: Fn() -> bool,
{
    boe_chaos::inject(boe_chaos::sites::TERMEX_CANDIDATES);
    let patterns = PatternSet::for_language(corpus.language());
    let mut seq_ids: HashMap<&[TokenId], u32> = HashMap::new();
    let mut raws: Vec<Raw> = Vec::new();
    // (start, len, sequence) of every match, in reading order; sentence
    // `i`'s matches end at `sentence_ends[i]`.
    let mut occs: Vec<(u32, u32, u32)> = Vec::new();
    let mut sentence_ends: Vec<usize> = Vec::new();
    let mut found = Vec::new();
    for doc in corpus.docs() {
        if should_stop() {
            return None;
        }
        for s in &doc.sentences {
            patterns.matches(&s.tags, &mut found);
            for m in &found {
                let tokens = &s.tokens[m.start..m.start + m.len];
                if corpus.is_stopword(tokens[0]) || corpus.is_stopword(tokens[m.len - 1]) {
                    continue;
                }
                let seq = *seq_ids.entry(tokens).or_insert_with(|| {
                    raws.push(Raw {
                        tokens,
                        pattern: m.pattern,
                        freq: 0,
                    });
                    (raws.len() - 1) as u32
                });
                raws[seq as usize].freq += 1;
                occs.push((m.start as u32, m.len as u32, seq));
            }
            sentence_ends.push(occs.len());
        }
    }
    // Keep candidates above the frequency threshold, ordered by tokens.
    let mut kept: Vec<u32> = (0..raws.len() as u32)
        .filter(|&i| raws[i as usize].freq >= opts.min_freq)
        .collect();
    kept.sort_unstable_by_key(|&i| raws[i as usize].tokens);
    const DROPPED: u32 = u32::MAX;
    let mut rank = vec![DROPPED; raws.len()];
    for (r, &i) in kept.iter().enumerate() {
        rank[i as usize] = r as u32;
    }
    // Nesting: a kept occurrence (start, len) is nested if a kept longer
    // occurrence (start', len') of the same sentence covers it.
    let mut nested_freq = vec![0u32; kept.len()];
    let mut contained_in: Vec<(u32, u32)> = Vec::new();
    let mut lo = 0;
    for &hi in &sentence_ends {
        let sentence = &occs[lo..hi];
        lo = hi;
        for &(st, ln, seq) in sentence {
            let inner = rank[seq as usize];
            if inner == DROPPED {
                continue;
            }
            let before = contained_in.len();
            for &(ost, oln, oseq) in sentence {
                let outer = rank[oseq as usize];
                if outer != DROPPED && oln > ln && ost <= st && ost + oln >= st + ln {
                    contained_in.push((inner, outer));
                }
            }
            if contained_in.len() > before {
                nested_freq[inner as usize] += 1;
            }
        }
    }
    contained_in.sort_unstable();
    contained_in.dedup();
    let mut containers = vec![0u32; kept.len()];
    for &(inner, _) in &contained_in {
        containers[inner as usize] += 1;
    }
    let mut terms = Vec::with_capacity(kept.len());
    let mut by_tokens = HashMap::with_capacity(kept.len());
    for (r, &i) in kept.iter().enumerate() {
        if should_stop() {
            return None;
        }
        let Raw {
            tokens,
            pattern,
            freq,
        } = raws[i as usize];
        let surface = tokens
            .iter()
            .map(|&t| corpus.text(t))
            .collect::<Vec<_>>()
            .join(" ");
        by_tokens.insert(tokens.to_vec(), r);
        terms.push(CandidateTerm {
            tokens: tokens.to_vec(),
            surface,
            pattern,
            freq,
            nested_freq: nested_freq[r],
            containers: containers[r],
        });
    }
    Some(CandidateSet { terms, by_tokens })
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
