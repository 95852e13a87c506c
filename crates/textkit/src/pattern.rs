//! Linguistic term patterns.
//!
//! BIOTEX filters candidate terms with POS-tag patterns learned from a
//! reference term bank (the IRJ-2016 paper ranks ~200 patterns by how many
//! UMLS terms instantiate them). We embed the high-mass head of that
//! distribution per language, with weights that reproduce its shape: a few
//! very productive noun-phrase skeletons carry most of the probability.
//! The weight is exactly what LIDF-value consumes as P(pattern | term).

use crate::lang::Language;
use crate::pos::tags::PosTag;

/// One POS-tag pattern with its prior probability among reference terms.
#[derive(Debug, Clone, PartialEq)]
pub struct TermPattern {
    /// The tag sequence, e.g. `[Adjective, Noun]` for "corneal injuries".
    pub tags: Vec<PosTag>,
    /// P(pattern) among reference-ontology terms — the LIDF prior.
    pub weight: f64,
}

impl TermPattern {
    /// Construct a pattern from single-letter codes, e.g. `"A N"`.
    ///
    /// # Panics
    /// Panics on an unknown code — patterns are compile-time data.
    pub fn parse(codes: &str, weight: f64) -> Self {
        let tags = codes
            .split_whitespace()
            .map(|c| {
                let ch = c.chars().next().expect("nonempty code");
                PosTag::from_code(ch).unwrap_or_else(|| panic!("bad POS code {c:?}"))
            })
            .collect();
        TermPattern { tags, weight }
    }

    /// Length of the pattern in tokens.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the pattern is empty (never true for built-ins).
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }
}

/// A compiled, per-language set of term patterns.
#[derive(Debug, Clone)]
pub struct PatternSet {
    lang: Language,
    patterns: Vec<TermPattern>,
    max_len: usize,
    /// The indices of the patterns whose first tag is `tag`, ascending,
    /// at `by_first_tag[tag as usize]`.
    by_first_tag: [Vec<usize>; PosTag::ALL.len()],
}

/// A candidate-term occurrence found by pattern matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternMatch {
    /// Start token index.
    pub start: usize,
    /// Number of tokens covered.
    pub len: usize,
    /// Index into [`PatternSet::patterns`].
    pub pattern: usize,
}

impl PatternSet {
    /// The built-in pattern inventory for `lang`.
    pub fn for_language(lang: Language) -> Self {
        let raw: &[(&str, f64)] = match lang {
            // English: adjective-noun and noun-noun compounds dominate.
            Language::English => &[
                ("N", 0.201),
                ("A N", 0.185),
                ("N N", 0.166),
                ("N N N", 0.078),
                ("A N N", 0.065),
                ("A A N", 0.042),
                ("N P N", 0.040),
                ("N A N", 0.012),
                ("A N N N", 0.010),
                ("N N N N", 0.009),
                ("N P A N", 0.008),
                ("N P N N", 0.007),
                ("A A N N", 0.006),
                ("N P D N", 0.005),
                ("A N P N", 0.004),
            ],
            // French: noun-adjective order, de-phrases very productive.
            Language::French => &[
                ("N", 0.198),
                ("N A", 0.190),
                ("N P N", 0.137),
                ("N A A", 0.040),
                ("N P N A", 0.027),
                ("N A P N", 0.022),
                ("N P D N", 0.021),
                ("A N", 0.019),
                ("N P N P N", 0.009),
                ("N N", 0.008),
                ("N P A N", 0.006),
                ("N A A A", 0.004),
            ],
            // Spanish: same romance structure as French.
            Language::Spanish => &[
                ("N", 0.196),
                ("N A", 0.188),
                ("N P N", 0.141),
                ("N A A", 0.038),
                ("N P N A", 0.028),
                ("N A P N", 0.021),
                ("N P D N", 0.019),
                ("A N", 0.015),
                ("N N", 0.007),
                ("N P A N", 0.006),
            ],
        };
        let patterns: Vec<TermPattern> = raw
            .iter()
            .map(|(codes, w)| TermPattern::parse(codes, *w))
            .collect();
        let max_len = patterns.iter().map(TermPattern::len).max().unwrap_or(0);
        let mut by_first_tag: [Vec<usize>; PosTag::ALL.len()] = Default::default();
        for (pi, pat) in patterns.iter().enumerate() {
            by_first_tag[pat.tags[0] as usize].push(pi);
        }
        PatternSet {
            lang,
            patterns,
            max_len,
            by_first_tag,
        }
    }

    /// The language this set belongs to.
    pub fn language(&self) -> Language {
        self.lang
    }

    /// The patterns, in decreasing-weight order.
    pub fn patterns(&self) -> &[TermPattern] {
        &self.patterns
    }

    /// Longest pattern length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// The weight (prior probability) of pattern `idx`.
    pub fn weight(&self, idx: usize) -> f64 {
        self.patterns[idx].weight
    }

    /// Enumerate every occurrence of every pattern over a tagged sentence
    /// into `out` (cleared first, so one buffer serves every sentence),
    /// by start, then pattern index.
    ///
    /// All matches are reported, including nested ones ("corneal injury"
    /// inside "acute corneal injury") — BIOTEX needs nested counts for
    /// C-value. Each start tries only the patterns that begin with its
    /// tag, in pattern order.
    pub fn matches(&self, tags: &[PosTag], out: &mut Vec<PatternMatch>) {
        out.clear();
        for (start, &first) in tags.iter().enumerate() {
            for &pi in &self.by_first_tag[first as usize] {
                let pat = &self.patterns[pi].tags;
                if tags[start..].starts_with(pat) {
                    out.push(PatternMatch {
                        start,
                        len: pat.len(),
                        pattern: pi,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PosTag::*;

    #[test]
    fn parse_codes() {
        let p = TermPattern::parse("A N", 0.5);
        assert_eq!(p.tags, vec![Adjective, Noun]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn english_an_matches() {
        let set = PatternSet::for_language(Language::English);
        // "the acute corneal injury" → D A A N
        let tags = [Determiner, Adjective, Adjective, Noun];
        let mut ms = Vec::new();
        set.matches(&tags, &mut ms);
        // A A N at 1, A N at 2, N at 3.
        assert!(ms.iter().any(|m| m.start == 1
            && m.len == 3
            && set.patterns()[m.pattern].tags == [Adjective, Adjective, Noun]));
        assert!(ms.iter().any(|m| m.start == 2
            && m.len == 2
            && set.patterns()[m.pattern].tags == [Adjective, Noun]));
        assert!(ms.iter().any(|m| m.start == 3 && m.len == 1));
    }

    #[test]
    fn nested_matches_are_reported() {
        let set = PatternSet::for_language(Language::English);
        // N N N contains two N N and three N.
        let tags = [Noun, Noun, Noun];
        let mut ms = Vec::new();
        set.matches(&tags, &mut ms);
        let count_len = |l: usize| ms.iter().filter(|m| m.len == l).count();
        assert_eq!(count_len(3), 1);
        assert_eq!(count_len(2), 2);
        assert_eq!(count_len(1), 3);
    }

    #[test]
    fn weights_sum_below_one_and_decrease() {
        for lang in Language::ALL {
            let set = PatternSet::for_language(lang);
            let sum: f64 = set.patterns().iter().map(|p| p.weight).sum();
            assert!(sum <= 1.0 + 1e-9, "{lang}: {sum}");
            assert!(sum > 0.5, "{lang}: pattern head mass too small: {sum}");
            for w in set.patterns().windows(2) {
                assert!(w[0].weight >= w[1].weight, "{lang}: not sorted");
            }
        }
    }

    #[test]
    fn french_noun_adjective_order() {
        let set = PatternSet::for_language(Language::French);
        // "hépatite chronique" → N A must match.
        assert!(set.patterns().iter().any(|p| p.tags == [Noun, Adjective]));
    }

    #[test]
    fn max_len_consistent() {
        for lang in Language::ALL {
            let set = PatternSet::for_language(lang);
            assert_eq!(
                set.max_len(),
                set.patterns().iter().map(TermPattern::len).max().unwrap()
            );
        }
    }
}
