//! Concept topic profiles and the template-based abstract generator.
//!
//! Each synthetic concept owns an *exclusive* sub-vocabulary (its topic
//! nouns/adjectives). Generated sentences mix topic words, shared
//! background words and function words through language-appropriate
//! noun-phrase templates, and can embed a *mention* of the concept's term.
//! This preserves the distributional property the workflow depends on:
//! the contexts of a term are dominated by its concept's vocabulary.

use crate::synth::vocabgen::LexiconPools;
use boe_rng::StdRng;
use boe_textkit::pos::PosTag;
use boe_textkit::Language;

/// A `(word, tag)` pair; sentences are sequences of these.
pub type TaggedWord = (String, PosTag);

/// The topic profile of one synthetic concept.
#[derive(Debug, Clone)]
pub struct ConceptProfile {
    /// Caller-assigned concept id (aligned with the ontology by `boe-eval`).
    pub concept: usize,
    /// Preferred-term token sequence, e.g. `[("corneal", A), ("injuries", N)]`.
    pub mention: Vec<TaggedWord>,
    /// Synonym token sequences (alternate surface forms of the same term).
    pub synonyms: Vec<Vec<TaggedWord>>,
    /// Exclusive topic nouns.
    pub nouns: Vec<String>,
    /// Exclusive topic adjectives.
    pub adjectives: Vec<String>,
}

impl ConceptProfile {
    /// Build a profile whose topic pools are disjoint slices of `pools`
    /// (concept `idx` strides the noun/adjective pools).
    pub fn with_exclusive_pools(
        concept: usize,
        idx: usize,
        mention: Vec<TaggedWord>,
        pools: &LexiconPools,
        n_nouns: usize,
        n_adjectives: usize,
    ) -> Self {
        ConceptProfile {
            concept,
            mention,
            synonyms: Vec::new(),
            nouns: pools.noun_slice(idx * n_nouns, n_nouns),
            adjectives: pools.adjective_slice(idx * n_adjectives, n_adjectives),
        }
    }

    /// All surface forms (mention + synonyms).
    pub fn surfaces(&self) -> impl Iterator<Item = &Vec<TaggedWord>> {
        std::iter::once(&self.mention).chain(self.synonyms.iter())
    }
}

/// Build a mention token sequence from an adjective and a noun in the
/// language's NP order (EN: A N; FR/ES: N A).
pub fn mention_tokens(lang: Language, adjective: &str, noun: &str) -> Vec<TaggedWord> {
    match lang {
        Language::English => vec![
            (adjective.to_owned(), PosTag::Adjective),
            (noun.to_owned(), PosTag::Noun),
        ],
        Language::French | Language::Spanish => vec![
            (noun.to_owned(), PosTag::Noun),
            (adjective.to_owned(), PosTag::Adjective),
        ],
    }
}

/// Shared background: function words and non-topical content words.
#[derive(Debug, Clone)]
pub struct Background {
    pools: LexiconPools,
}

impl Background {
    /// Background for `lang`.
    pub fn for_language(lang: Language) -> Self {
        Background {
            pools: LexiconPools::generate(lang),
        }
    }

    /// The underlying pools.
    pub fn pools(&self) -> &LexiconPools {
        &self.pools
    }
}

/// Template-based sentence/abstract generator.
#[derive(Debug, Clone)]
pub struct AbstractGenerator {
    lang: Language,
    background: Background,
    /// Probability that a content slot draws from the concept's topic pool
    /// rather than the background pool.
    pub topic_prob: f64,
}

impl AbstractGenerator {
    /// Generator for `lang` with the default topic mixing (0.75).
    pub fn new(lang: Language) -> Self {
        AbstractGenerator {
            lang,
            background: Background::for_language(lang),
            topic_prob: 0.75,
        }
    }

    fn pick<'a>(rng: &mut StdRng, xs: &'a [&'static str]) -> &'a str {
        xs[rng.gen_range(0..xs.len())]
    }

    fn pick_owned(rng: &mut StdRng, xs: &[String]) -> String {
        xs[rng.gen_range(0..xs.len())].clone()
    }

    fn topic_noun(&self, rng: &mut StdRng, profile: &ConceptProfile) -> String {
        if !profile.nouns.is_empty() && rng.gen_bool(self.topic_prob) {
            Self::pick_owned(rng, &profile.nouns)
        } else {
            Self::pick(rng, &self.background.pools.background_nouns).to_owned()
        }
    }

    fn topic_adjective(&self, rng: &mut StdRng, profile: &ConceptProfile) -> String {
        if !profile.adjectives.is_empty() && rng.gen_bool(self.topic_prob) {
            Self::pick_owned(rng, &profile.adjectives)
        } else {
            Self::pick(rng, &self.background.pools.background_adjectives).to_owned()
        }
    }

    /// A noun phrase chunk: determiner + content words in language order,
    /// or the given mention.
    fn np_chunk(
        &self,
        rng: &mut StdRng,
        profile: &ConceptProfile,
        mention: Option<&[TaggedWord]>,
        out: &mut Vec<TaggedWord>,
    ) {
        let det = Self::pick(rng, &self.background.pools.determiners);
        out.push((det.to_owned(), PosTag::Determiner));
        if let Some(m) = mention {
            out.extend(m.iter().cloned());
            return;
        }
        let with_adj = rng.gen_bool(0.6);
        let noun = self.topic_noun(rng, profile);
        match self.lang {
            Language::English => {
                if with_adj {
                    out.push((self.topic_adjective(rng, profile), PosTag::Adjective));
                }
                out.push((noun, PosTag::Noun));
            }
            Language::French | Language::Spanish => {
                out.push((noun, PosTag::Noun));
                if with_adj {
                    out.push((self.topic_adjective(rng, profile), PosTag::Adjective));
                }
            }
        }
    }

    /// One sentence about `profile`. If `mention` is `Some`, the subject NP
    /// is that token sequence (this is how context snippets embedding a
    /// target term are produced).
    pub fn sentence(
        &self,
        rng: &mut StdRng,
        profile: &ConceptProfile,
        mention: Option<&[TaggedWord]>,
    ) -> (Vec<String>, Vec<PosTag>) {
        let mut out: Vec<TaggedWord> = Vec::with_capacity(12);
        self.np_chunk(rng, profile, mention, &mut out);
        let verb = Self::pick(rng, &self.background.pools.verbs);
        out.push((verb.to_owned(), PosTag::Verb));
        self.np_chunk(rng, profile, None, &mut out);
        if rng.gen_bool(0.5) {
            let prep = Self::pick(rng, &self.background.pools.prepositions);
            out.push((prep.to_owned(), PosTag::Preposition));
            out.push((self.topic_noun(rng, profile), PosTag::Noun));
        }
        out.push((".".to_owned(), PosTag::Punctuation));
        out.into_iter().unzip()
    }

    /// A sentence whose subject NP is `subject_mention` and whose object
    /// NP is `object_mention`, with topic words drawn from `profile` —
    /// "the corneal injuries resemble the corneal diseases in the stroma."
    /// This is how related terms come to co-occur within one sentence,
    /// which Step IV's neighbourhood discovery and the relation-typing
    /// extension both rely on.
    pub fn pair_sentence(
        &self,
        rng: &mut StdRng,
        profile: &ConceptProfile,
        subject_mention: &[TaggedWord],
        object_mention: &[TaggedWord],
    ) -> (Vec<String>, Vec<PosTag>) {
        let mut out: Vec<TaggedWord> = Vec::with_capacity(12);
        self.np_chunk(rng, profile, Some(subject_mention), &mut out);
        let verb = Self::pick(rng, &self.background.pools.verbs);
        out.push((verb.to_owned(), PosTag::Verb));
        self.np_chunk(rng, profile, Some(object_mention), &mut out);
        let prep = Self::pick(rng, &self.background.pools.prepositions);
        out.push((prep.to_owned(), PosTag::Preposition));
        out.push((self.topic_noun(rng, profile), PosTag::Noun));
        out.push((".".to_owned(), PosTag::Punctuation));
        out.into_iter().unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(lang: Language) -> ConceptProfile {
        let pools = LexiconPools::generate(lang);
        ConceptProfile::with_exclusive_pools(
            0,
            0,
            mention_tokens(lang, "corneal", "injuries"),
            &pools,
            12,
            6,
        )
    }

    #[test]
    fn sentence_is_well_formed() {
        let g = AbstractGenerator::new(Language::English);
        let p = profile(Language::English);
        let mut rng = StdRng::seed_from_u64(7);
        let (words, tags) = g.sentence(&mut rng, &p, None);
        assert_eq!(words.len(), tags.len());
        assert_eq!(words.last().map(String::as_str), Some("."));
        assert!(tags.contains(&PosTag::Verb));
        assert!(tags.contains(&PosTag::Noun));
    }

    #[test]
    fn mention_is_embedded_verbatim() {
        let g = AbstractGenerator::new(Language::English);
        let p = profile(Language::English);
        let mut rng = StdRng::seed_from_u64(7);
        let (words, tags) = g.sentence(&mut rng, &p, Some(&p.mention));
        let joined = words.join(" ");
        assert!(joined.contains("corneal injuries"), "{joined}");
        // Tag sequence of the mention is A N.
        let i = words.iter().position(|w| w == "corneal").expect("present");
        assert_eq!(tags[i], PosTag::Adjective);
        assert_eq!(tags[i + 1], PosTag::Noun);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = AbstractGenerator::new(Language::English);
        let p = profile(Language::English);
        let s1 = g.sentence(&mut StdRng::seed_from_u64(42), &p, None);
        let s2 = g.sentence(&mut StdRng::seed_from_u64(42), &p, None);
        assert_eq!(s1, s2);
    }

    #[test]
    fn topic_words_dominate_contexts() {
        let g = AbstractGenerator::new(Language::English);
        let p = profile(Language::English);
        let mut rng = StdRng::seed_from_u64(3);
        let mut topic = 0usize;
        let mut nouns = 0usize;
        for _ in 0..200 {
            let (words, tags) = g.sentence(&mut rng, &p, None);
            for (w, t) in words.iter().zip(&tags) {
                if *t == PosTag::Noun {
                    nouns += 1;
                    if p.nouns.contains(w) {
                        topic += 1;
                    }
                }
            }
        }
        let ratio = topic as f64 / nouns as f64;
        assert!(ratio > 0.5, "topic ratio {ratio}");
    }

    #[test]
    fn romance_np_order() {
        let g = AbstractGenerator::new(Language::French);
        let p = profile(Language::French);
        let mut rng = StdRng::seed_from_u64(9);
        // Over many sentences, every adjective directly follows a noun or
        // another adjective (N A, N A A) — never follows a determiner.
        for _ in 0..50 {
            let (_, tags) = g.sentence(&mut rng, &p, None);
            for w in tags.windows(2) {
                if w[1] == PosTag::Adjective {
                    assert!(
                        matches!(w[0], PosTag::Noun | PosTag::Adjective),
                        "adjective after {:?}",
                        w[0]
                    );
                }
            }
        }
    }

    #[test]
    fn pair_sentence_contains_both_mentions() {
        let g = AbstractGenerator::new(Language::English);
        let p = profile(Language::English);
        let other = mention_tokens(Language::English, "corneal", "diseases");
        let mut rng = StdRng::seed_from_u64(5);
        let (words, tags) = g.pair_sentence(&mut rng, &p, &p.mention, &other);
        let joined = words.join(" ");
        assert!(joined.contains("corneal injuries"), "{joined}");
        assert!(joined.contains("corneal diseases"), "{joined}");
        assert_eq!(words.len(), tags.len());
        assert!(tags.contains(&PosTag::Verb));
    }

    #[test]
    fn exclusive_pools_are_disjoint_between_concepts() {
        let pools = LexiconPools::generate(Language::English);
        let a = ConceptProfile::with_exclusive_pools(0, 0, vec![], &pools, 12, 6);
        let b = ConceptProfile::with_exclusive_pools(1, 1, vec![], &pools, 12, 6);
        assert!(a.nouns.iter().all(|w| !b.nouns.contains(w)));
        assert!(a.adjectives.iter().all(|w| !b.adjectives.contains(w)));
    }
}
