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
    /// Number of distinct documents containing the candidate.
    pub doc_freq: u32,
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

/// Extraction options.
#[derive(Debug, Clone, Copy)]
pub struct CandidateOptions {
    /// Minimum total frequency to keep a candidate.
    pub min_freq: u32,
    /// Maximum candidate length in words (patterns are shorter anyway).
    pub max_len: usize,
    /// Drop candidates whose first or last word is a stopword.
    pub stopword_boundary_filter: bool,
}

impl Default for CandidateOptions {
    fn default() -> Self {
        CandidateOptions {
            min_freq: 2,
            max_len: 5,
            stopword_boundary_filter: true,
        }
    }
}

/// The pattern matches of one token sequence: the pattern of its first
/// match and every (doc, sentence, start, len), in reading order.
struct Raw {
    pattern: usize,
    occs: Vec<(u32, u32, u32, u32)>,
}

/// (start, len, candidate index) of every kept occurrence in a sentence.
type SentenceOccs = Vec<(u32, u32, usize)>;

/// Extract the candidate set of `corpus` using its language's pattern
/// inventory. Nested occurrences are tracked (C-value needs them).
pub fn extract_candidates(corpus: &Corpus, opts: CandidateOptions) -> CandidateSet {
    try_extract_candidates(corpus, opts, &|| false).expect("never-stop predicate cannot interrupt")
}

/// [`extract_candidates`] with cooperative cancellation: `should_stop`
/// is polled before every document of the scan and every candidate of
/// the nesting pass. Once it returns `true` the extraction winds down
/// and `None` is returned — partial candidate statistics would be
/// corpus-prefix-dependent, so an interrupted extraction yields no set
/// at all rather than a misleading one.
///
/// One pass in document order collects every pattern match per token
/// sequence (the first match fixes the candidate's pattern); nesting is
/// then counted against the kept occurrences of the same sentence.
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
    let mut raw: HashMap<Vec<TokenId>, Raw> = HashMap::new();
    for doc in corpus.docs() {
        if should_stop() {
            return None;
        }
        for (si, s) in doc.sentences.iter().enumerate() {
            for m in patterns.matches(&s.tags) {
                if m.len > opts.max_len {
                    continue;
                }
                let tokens = &s.tokens[m.start..m.start + m.len];
                if opts.stopword_boundary_filter
                    && (corpus.is_stopword(tokens[0]) || corpus.is_stopword(tokens[m.len - 1]))
                {
                    continue;
                }
                raw.entry(tokens.to_vec())
                    .or_insert_with(|| Raw {
                        pattern: m.pattern,
                        occs: Vec::new(),
                    })
                    .occs
                    .push((doc.id.0, si as u32, m.start as u32, m.len as u32));
            }
        }
    }
    // Keep candidates above the frequency threshold, in a stable order.
    let mut kept: Vec<(Vec<TokenId>, Raw)> = raw
        .into_iter()
        .filter(|(_, r)| r.occs.len() >= opts.min_freq as usize)
        .collect();
    kept.sort_by(|a, b| a.0.cmp(&b.0));
    // Nesting: occurrence (d,s,start,len) of t is nested if some kept
    // longer candidate has an occurrence (d,s,start',len') covering it.
    let mut by_sentence: HashMap<(u32, u32), SentenceOccs> = HashMap::new();
    for (idx, (_, r)) in kept.iter().enumerate() {
        for &(d, s, st, ln) in &r.occs {
            by_sentence.entry((d, s)).or_default().push((st, ln, idx));
        }
    }
    let mut terms = Vec::with_capacity(kept.len());
    let mut by_tokens = HashMap::with_capacity(kept.len());
    let mut containers: Vec<usize> = Vec::new();
    for (tokens, Raw { pattern, occs }) in kept {
        if should_stop() {
            return None;
        }
        let mut nested_freq = 0u32;
        containers.clear();
        for &(d, s, st, ln) in &occs {
            let before = containers.len();
            containers.extend(
                by_sentence[&(d, s)]
                    .iter()
                    .filter(|&&(ost, oln, _)| oln > ln && ost <= st && ost + oln >= st + ln)
                    .map(|&(_, _, oidx)| oidx),
            );
            if containers.len() > before {
                nested_freq += 1;
            }
        }
        containers.sort_unstable();
        containers.dedup();
        // Occurrences arrive in document order, so distinct documents
        // are the runs of equal document ids.
        let doc_freq = 1 + occs.windows(2).filter(|w| w[0].0 != w[1].0).count() as u32;
        let surface = tokens
            .iter()
            .map(|&t| corpus.text(t))
            .collect::<Vec<_>>()
            .join(" ");
        by_tokens.insert(tokens.clone(), terms.len());
        terms.push(CandidateTerm {
            tokens,
            surface,
            pattern,
            freq: occs.len() as u32,
            doc_freq,
            nested_freq,
            containers: containers.len() as u32,
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
        assert_eq!(t.doc_freq, 2);
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
        let relaxed = extract_candidates(
            &c,
            CandidateOptions {
                min_freq: 1,
                ..Default::default()
            },
        );
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
