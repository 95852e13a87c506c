//! PubMed-like abstract collections.
//!
//! Generates a [`Corpus`] of short abstracts over a set of concept
//! profiles, standing in for the PubMed retrievals the paper feeds BIOTEX
//! and the semantic-linkage step.

use crate::corpus::{Corpus, CorpusBuilder};
use crate::synth::topic::{AbstractGenerator, ConceptProfile};
use boe_rng::StdRng;
use boe_textkit::Language;

/// Configuration for [`PubMedGenerator`].
#[derive(Debug, Clone, Copy)]
pub struct PubMedConfig {
    /// Number of abstracts.
    pub n_abstracts: usize,
    /// Sentences per abstract (inclusive range).
    pub sentences: (usize, usize),
    /// Concepts mixed per abstract (inclusive range).
    pub concepts_per_abstract: (usize, usize),
    /// Probability a sentence embeds its concept's term.
    pub mention_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PubMedConfig {
    fn default() -> Self {
        PubMedConfig {
            n_abstracts: 200,
            sentences: (3, 8),
            concepts_per_abstract: (1, 3),
            mention_prob: 0.35,
            seed: 0x000B_100E,
        }
    }
}

/// Generator of PubMed-like corpora.
#[derive(Debug)]
pub struct PubMedGenerator {
    gen: AbstractGenerator,
    config: PubMedConfig,
}

impl PubMedGenerator {
    /// A generator for `lang` with `config`.
    pub fn new(lang: Language, config: PubMedConfig) -> Self {
        PubMedGenerator {
            gen: AbstractGenerator::new(lang),
            config,
        }
    }

    /// Generate the corpus. Every abstract mixes a random subset of
    /// `profiles`.
    pub fn generate(&self, profiles: &[ConceptProfile]) -> Corpus {
        assert!(
            !profiles.is_empty(),
            "at least one concept profile required"
        );
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut builder = CorpusBuilder::new(self.gen.language());
        for _ in 0..self.config.n_abstracts {
            let k = rng
                .gen_range(
                    self.config.concepts_per_abstract.0..=self.config.concepts_per_abstract.1,
                )
                .min(profiles.len());
            // Sample k distinct profiles.
            let mut chosen: Vec<&ConceptProfile> = Vec::with_capacity(k);
            while chosen.len() < k {
                let p = &profiles[rng.gen_range(0..profiles.len())];
                if !chosen.iter().any(|c| c.concept == p.concept) {
                    chosen.push(p);
                }
            }
            let n_sents = rng.gen_range(self.config.sentences.0..=self.config.sentences.1);
            let sents = self
                .gen
                .abstract_for(&mut rng, &chosen, n_sents, self.config.mention_prob);
            builder.add_tokenized(sents.into_iter().collect::<Vec<_>>());
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::topic::mention_tokens;
    use crate::synth::vocabgen::LexiconPools;

    fn profiles(lang: Language, n: usize) -> Vec<ConceptProfile> {
        let pools = LexiconPools::generate(lang);
        (0..n)
            .map(|i| {
                let adj = pools.adjectives[(i * 7) % pools.adjectives.len()].clone();
                let noun = pools.nouns[(i * 13 + 300) % pools.nouns.len()].clone();
                ConceptProfile::with_exclusive_pools(
                    i,
                    i,
                    mention_tokens(lang, &adj, &noun),
                    &pools,
                    12,
                    6,
                )
            })
            .collect()
    }

    #[test]
    fn generates_requested_number_of_abstracts() {
        let ps = profiles(Language::English, 5);
        let cfg = PubMedConfig {
            n_abstracts: 37,
            ..Default::default()
        };
        let corpus = PubMedGenerator::new(Language::English, cfg).generate(&ps);
        assert_eq!(corpus.len(), 37);
        assert!(corpus.token_count() > 37 * 3 * 5);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let ps = profiles(Language::English, 3);
        let cfg = PubMedConfig {
            n_abstracts: 10,
            seed: 99,
            ..Default::default()
        };
        let c1 = PubMedGenerator::new(Language::English, cfg).generate(&ps);
        let c2 = PubMedGenerator::new(Language::English, cfg).generate(&ps);
        assert_eq!(c1.token_count(), c2.token_count());
        assert_eq!(c1.vocab().len(), c2.vocab().len());
    }

    #[test]
    fn different_seeds_differ() {
        let ps = profiles(Language::English, 3);
        let base = PubMedConfig {
            n_abstracts: 10,
            ..Default::default()
        };
        let c1 = PubMedGenerator::new(Language::English, base).generate(&ps);
        let c2 = PubMedGenerator::new(
            Language::English,
            PubMedConfig {
                seed: base.seed + 1,
                ..base
            },
        )
        .generate(&ps);
        assert_ne!(c1.token_count(), c2.token_count());
    }

    #[test]
    fn mentions_occur_in_corpus() {
        let ps = profiles(Language::English, 4);
        let cfg = PubMedConfig {
            n_abstracts: 100,
            mention_prob: 0.5,
            ..Default::default()
        };
        let corpus = PubMedGenerator::new(Language::English, cfg).generate(&ps);
        // At least one profile's mention must be findable as a phrase.
        let surface: String = ps[0]
            .mention
            .iter()
            .map(|(w, _)| w.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        let ids = corpus.phrase_ids(&surface).expect("mention words interned");
        let occs = crate::OccurrenceIndex::build(&corpus).find_occurrences(&corpus, &ids);
        assert!(!occs.is_empty(), "no occurrence of {surface:?}");
    }

    #[test]
    fn works_for_all_languages() {
        for lang in Language::ALL {
            let ps = profiles(lang, 2);
            let cfg = PubMedConfig {
                n_abstracts: 5,
                ..Default::default()
            };
            let corpus = PubMedGenerator::new(lang, cfg).generate(&ps);
            assert_eq!(corpus.language(), lang);
            assert_eq!(corpus.len(), 5);
        }
    }
}
