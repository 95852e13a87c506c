//! Frequency and co-occurrence statistics.
//!
//! The windowed co-occurrence counts drive both the induced graph of Step
//! II (polysemy features) and the term co-occurrence graph of Step IV
//! (semantic linkage).

use crate::corpus::Corpus;
use boe_textkit::TokenId;

/// Symmetric windowed co-occurrence counts between lexical, non-stopword
/// tokens.
///
/// The counts are held as one neighbour list per token (a compressed
/// adjacency over the dense token ids), each ordered by decreasing count
/// then increasing id, so [`CoocCounts::neighbours`] is a slice lookup
/// and every pair is stored once per endpoint.
#[derive(Debug, Clone, Default)]
pub struct CoocCounts {
    /// `adjacency[offsets[t]..offsets[t + 1]]` is token `t`'s neighbour
    /// list.
    offsets: Vec<usize>,
    /// Every token's `(neighbour, count)` list, concatenated in id order.
    adjacency: Vec<(TokenId, u32)>,
    /// Marginal occurrence counts (over counted tokens only), by token id.
    occurrences: Vec<u32>,
    window: usize,
}

impl CoocCounts {
    /// Count co-occurrences over `corpus` within a sliding window of
    /// `window` tokens (a pair is counted when the two tokens are at most
    /// `window` positions apart within one sentence). Stopwords and
    /// punctuation are skipped but still occupy positions.
    pub fn from_corpus(corpus: &Corpus, window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1");
        let n_tokens = corpus.vocab().len();
        let mut occurrences = vec![0u32; n_tokens];
        // Each pair is counted once, in the row of its higher-id token,
        // kept sorted by id. Ids follow first appearance, so frequent
        // words mostly hold the low ids and the rows stay short.
        let mut rows: Vec<Vec<(TokenId, u32)>> = vec![Vec::new(); n_tokens];
        // The counted tokens of one sentence with their positions.
        let mut counted: Vec<(usize, TokenId)> = Vec::new();
        for doc in corpus.docs() {
            for s in &doc.sentences {
                counted.clear();
                counted.extend(
                    s.tokens
                        .iter()
                        .zip(&s.tags)
                        .enumerate()
                        .filter(|&(_, (&t, tag))| tag.is_term_internal() && !corpus.is_stopword(t))
                        .map(|(i, (&t, _))| (i, t)),
                );
                for (k, &(i, a)) in counted.iter().enumerate() {
                    occurrences[a.index()] += 1;
                    for &(_, b) in counted[k + 1..]
                        .iter()
                        .take_while(|&&(j, _)| j <= i + window)
                    {
                        if a == b {
                            continue;
                        }
                        let (lo, hi) = (a.min(b), a.max(b));
                        let row = &mut rows[hi.index()];
                        match row.binary_search_by_key(&lo, |&(t, _)| t) {
                            Ok(p) => row[p].1 += 1,
                            Err(p) => row.insert(p, (lo, 1)),
                        }
                    }
                }
            }
        }
        // Lay the rows out as one list per token: a row fills its own
        // token's list and is mirrored into its lower-id tokens' lists;
        // each row is freed once placed. Then order every list.
        let mut offsets = vec![0usize; n_tokens + 1];
        for (b, row) in rows.iter().enumerate() {
            offsets[b + 1] += row.len();
            for &(a, _) in row {
                offsets[a.index() + 1] += 1;
            }
        }
        for t in 0..n_tokens {
            offsets[t + 1] += offsets[t];
        }
        let mut adjacency = vec![(TokenId(0), 0u32); offsets[n_tokens]];
        let mut next = offsets.clone();
        for (b, row) in rows.into_iter().enumerate() {
            for (a, c) in row {
                adjacency[next[b]] = (a, c);
                next[b] += 1;
                adjacency[next[a.index()]] = (TokenId(b as u32), c);
                next[a.index()] += 1;
            }
        }
        for w in offsets.windows(2) {
            adjacency[w[0]..w[1]].sort_unstable_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        }
        CoocCounts {
            offsets,
            adjacency,
            occurrences,
            window,
        }
    }

    /// The window size the counts were computed with.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Co-occurrence count of an unordered pair: a scan of the shorter
    /// of the two neighbour lists.
    pub fn pair(&self, a: TokenId, b: TokenId) -> u32 {
        let (na, nb) = (self.neighbours(a), self.neighbours(b));
        let (list, other) = if na.len() <= nb.len() {
            (na, b)
        } else {
            (nb, a)
        };
        list.iter()
            .find(|&&(u, _)| u == other)
            .map_or(0, |&(_, c)| c)
    }

    /// Occurrence count of one token (among counted tokens).
    pub fn occurrences(&self, t: TokenId) -> u32 {
        self.occurrences.get(t.index()).copied().unwrap_or(0)
    }

    /// All pairs with their counts, in stable (sorted) order.
    ///
    /// Each row is visited in id order and contributes its higher-id
    /// neighbours sorted by id, so the pairs come out sorted with one
    /// short sort per row rather than one sort of every pair.
    pub fn iter_pairs(&self) -> Vec<((TokenId, TokenId), u32)> {
        let mut v = Vec::with_capacity(self.adjacency.len() / 2);
        for (a, w) in self.offsets.windows(2).enumerate() {
            let a = TokenId(a as u32);
            let row = v.len();
            v.extend(
                self.adjacency[w[0]..w[1]]
                    .iter()
                    .filter(|&&(b, _)| a < b)
                    .map(|&(b, c)| ((a, b), c)),
            );
            v[row..].sort_unstable_by_key(|&((_, b), _)| b);
        }
        v
    }

    /// Neighbours of `t` with counts, sorted by decreasing count then id
    /// (empty for a token with no pairs).
    pub fn neighbours(&self, t: TokenId) -> &[(TokenId, u32)] {
        match self.offsets.get(t.index()..t.index() + 2) {
            Some(&[lo, hi]) => &self.adjacency[lo..hi],
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;
    use boe_textkit::Language;

    fn corpus(texts: &[&str]) -> Corpus {
        let mut b = CorpusBuilder::new(Language::English);
        for t in texts {
            b.add_text(t);
        }
        b.build()
    }

    #[test]
    fn adjacent_words_cooccur() {
        let c = corpus(&["corneal injuries heal slowly."]);
        let cc = CoocCounts::from_corpus(&c, 2);
        let corneal = c.vocab().get("corneal").expect("id");
        let injuries = c.vocab().get("injuries").expect("id");
        assert_eq!(cc.pair(corneal, injuries), 1);
        assert_eq!(cc.pair(injuries, corneal), 1, "symmetric");
    }

    #[test]
    fn window_limits_reach() {
        let c = corpus(&["cornea epithelium stroma endothelium membrane."]);
        let cc = CoocCounts::from_corpus(&c, 1);
        let cornea = c.vocab().get("cornea").expect("id");
        let stroma = c.vocab().get("stroma").expect("id");
        assert_eq!(cc.pair(cornea, stroma), 0, "distance 2 > window 1");
        let cc2 = CoocCounts::from_corpus(&c, 2);
        assert_eq!(cc2.pair(cornea, stroma), 1);
    }

    #[test]
    fn stopwords_are_excluded_but_occupy_positions() {
        let c = corpus(&["injuries of the cornea."]);
        let cc = CoocCounts::from_corpus(&c, 2);
        let injuries = c.vocab().get("injuries").expect("id");
        let cornea = c.vocab().get("cornea").expect("id");
        // "of the" occupies 2 positions; distance injuries→cornea is 3 > 2.
        assert_eq!(cc.pair(injuries, cornea), 0);
        let cc3 = CoocCounts::from_corpus(&c, 3);
        assert_eq!(cc3.pair(injuries, cornea), 1);
        let the = c.vocab().get("the").expect("id");
        assert_eq!(cc3.occurrences(the), 0);
    }

    #[test]
    fn sentences_bound_windows() {
        let c = corpus(&["Damage was corneal. Injuries were treated."]);
        let cc = CoocCounts::from_corpus(&c, 10);
        let corneal = c.vocab().get("corneal").expect("id");
        let injuries = c.vocab().get("injuries").expect("id");
        assert_eq!(cc.pair(corneal, injuries), 0);
    }

    #[test]
    fn neighbours_sorted_by_count() {
        let c = corpus(&[
            "cornea injury repair.",
            "cornea injury healing.",
            "cornea scarring process.",
        ]);
        let cc = CoocCounts::from_corpus(&c, 2);
        let cornea = c.vocab().get("cornea").expect("id");
        let nb = cc.neighbours(cornea);
        assert!(!nb.is_empty());
        let injury = c.vocab().get("injury").expect("id");
        assert_eq!(nb[0].0, injury, "most frequent neighbour first");
        assert_eq!(nb[0].1, 2);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let c = corpus(&["a."]);
        let _ = CoocCounts::from_corpus(&c, 0);
    }

    #[test]
    fn iter_pairs_is_sorted() {
        let c = corpus(&["cornea injury repair healing process."]);
        let cc = CoocCounts::from_corpus(&c, 4);
        let pairs = cc.iter_pairs();
        assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(2 * pairs.len(), cc.adjacency.len());
    }

    #[test]
    fn token_without_pairs_has_no_neighbours() {
        // "alone" is the only counted token of its sentence; "the" is a
        // stopword and never counted.
        let c = corpus(&["cornea injury.", "alone.", "the cornea."]);
        let cc = CoocCounts::from_corpus(&c, 3);
        let alone = c.vocab().get("alone").expect("id");
        let the = c.vocab().get("the").expect("id");
        assert!(cc.neighbours(alone).is_empty());
        assert!(cc.neighbours(the).is_empty());
        assert!(cc.neighbours(TokenId(c.vocab().len() as u32)).is_empty());
        assert!(CoocCounts::default().neighbours(alone).is_empty());
    }

    #[test]
    fn neighbour_lists_agree_with_pair_counts() {
        let c = corpus(&[
            "cornea injury repair healing process.",
            "cornea injury scarring.",
            "stroma injury repair.",
        ]);
        let cc = CoocCounts::from_corpus(&c, 3);
        let mut listed = 0;
        for (t, _) in c.vocab().iter() {
            let nb = cc.neighbours(t);
            assert!(nb.windows(2).all(|w| (w[1].1, w[0].0) < (w[0].1, w[1].0)));
            for &(u, n) in nb {
                assert!(n >= 1);
                assert_eq!(cc.pair(t, u), n);
                assert!(cc.neighbours(u).contains(&(t, n)), "symmetric lists");
            }
            listed += nb.len();
        }
        assert_eq!(listed, cc.adjacency.len());
        assert_eq!(2 * cc.iter_pairs().len(), cc.adjacency.len());
    }
}
