//! MSH-WSD-like word-sense-disambiguation dataset.
//!
//! The paper evaluates sense-number prediction on MSH WSD
//! (Jimeno-Yepes et al., 2011): 203 ambiguous biomedical entities, each
//! linked to 2–5 UMLS concepts, with ~100 MEDLINE citations per sense.
//! This generator reproduces that structure synthetically: each entity is
//! a surface token shared by k concept profiles with exclusive topic
//! vocabularies; each sense contributes `snippets_per_sense` short
//! documents embedding the ambiguous term in that sense's context.

use crate::corpus::Corpus;
use crate::corpus::CorpusBuilder;
use crate::doc::DocId;
use crate::synth::topic::{AbstractGenerator, ConceptProfile, TaggedWord};
use crate::synth::vocabgen::LexiconPools;
use boe_rng::StdRng;
use boe_textkit::pos::PosTag;
use boe_textkit::Language;

/// Configuration for the MSH-WSD-like generator.
#[derive(Debug, Clone)]
pub struct MshWsdConfig {
    /// Number of ambiguous entities (the paper's dataset has 203).
    pub n_entities: usize,
    /// Context snippets (documents) per sense (~100 in MSH WSD).
    pub snippets_per_sense: usize,
    /// Unnormalized weights of sense counts k = 2, 3, 4, 5. The default is
    /// the UMLS-English polysemy skew from the paper's Table 1
    /// (54 257 : 7 770 : 1 842 : 1 677).
    pub sense_weights: [f64; 4],
    /// Topic nouns per sense profile.
    pub nouns_per_sense: usize,
    /// Topic adjectives per sense profile.
    pub adjectives_per_sense: usize,
    /// Probability a content slot draws from the sense's topic pool.
    pub topic_prob: f64,
    /// Sentences per snippet (inclusive range).
    pub sentences_per_snippet: (usize, usize),
    /// RNG seed.
    pub seed: u64,
}

impl Default for MshWsdConfig {
    fn default() -> Self {
        MshWsdConfig {
            n_entities: 203,
            snippets_per_sense: 100,
            sense_weights: [54_257.0, 7_770.0, 1_842.0, 1_677.0],
            nouns_per_sense: 8,
            adjectives_per_sense: 4,
            topic_prob: 0.85,
            sentences_per_snippet: (2, 4),
            seed: 0x5EED_2016,
        }
    }
}

/// One ambiguous entity with its gold sense structure.
#[derive(Debug, Clone)]
pub struct AmbiguousEntity {
    /// Entity index.
    pub id: usize,
    /// The ambiguous surface term (single token).
    pub surface: TaggedWord,
    /// Gold number of senses, in `[2, 5]`.
    pub k: usize,
    /// `(document, gold sense index)` per snippet.
    pub snippets: Vec<(DocId, usize)>,
}

impl AmbiguousEntity {
    /// The surface string.
    pub fn surface_text(&self) -> &str {
        &self.surface.0
    }
}

/// The generated dataset: one corpus containing all snippets, plus the
/// gold entity structure.
#[derive(Debug)]
pub struct MshWsdDataset {
    /// The snippet corpus (one document per snippet).
    pub corpus: Corpus,
    /// The entities with gold labels.
    pub entities: Vec<AmbiguousEntity>,
}

impl MshWsdDataset {
    /// Generate a dataset for `lang` under `config`.
    pub fn generate(lang: Language, config: &MshWsdConfig) -> Self {
        assert!(config.n_entities >= 1, "need at least one entity");
        assert!(config.snippets_per_sense >= 1, "need snippets");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let pools = LexiconPools::generate(lang);
        let mut generator = AbstractGenerator::new(lang);
        generator.topic_prob = config.topic_prob;
        let mut builder = CorpusBuilder::new(lang);
        let mut entities = Vec::with_capacity(config.n_entities);

        let total_w: f64 = config.sense_weights.iter().sum();
        for e in 0..config.n_entities {
            // Sample k ∈ {2..5} from the weighted skew.
            let mut u = rng.gen::<f64>() * total_w;
            let mut k = 5;
            for (i, w) in config.sense_weights.iter().enumerate() {
                if u < *w {
                    k = i + 2;
                    break;
                }
                u -= *w;
            }
            // Ambiguous surface token: digits keep it out of the stemmer
            // and unique across the vocabulary.
            let surface: TaggedWord = (format!("ambigram{e}"), PosTag::Noun);
            // k sense profiles with exclusive pools *within this entity*
            // (cross-entity pool reuse is harmless: entities are clustered
            // independently).
            let profiles: Vec<ConceptProfile> = (0..k)
                .map(|s| {
                    let mut p = ConceptProfile::with_exclusive_pools(
                        e * 5 + s,
                        e * 5 + s,
                        vec![surface.clone()],
                        &pools,
                        config.nouns_per_sense,
                        config.adjectives_per_sense,
                    );
                    p.mention = vec![surface.clone()];
                    p
                })
                .collect();
            let mut snippets = Vec::with_capacity(k * config.snippets_per_sense);
            for (s, profile) in profiles.iter().enumerate() {
                for _ in 0..config.snippets_per_sense {
                    let n_sents = rng
                        .gen_range(config.sentences_per_snippet.0..=config.sentences_per_snippet.1);
                    let mut sents = Vec::with_capacity(n_sents);
                    // First sentence embeds the ambiguous term.
                    sents.push(generator.sentence(&mut rng, profile, Some(&profile.mention)));
                    for _ in 1..n_sents {
                        sents.push(generator.sentence(&mut rng, profile, None));
                    }
                    let doc = builder.add_tokenized(sents);
                    snippets.push((doc, s));
                }
            }
            entities.push(AmbiguousEntity {
                id: e,
                surface,
                k,
                snippets,
            });
        }
        MshWsdDataset {
            corpus: builder.build(),
            entities,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ContextOptions, ContextScope};
    use crate::OccurrenceIndex;

    fn small() -> MshWsdDataset {
        MshWsdDataset::generate(
            Language::English,
            &MshWsdConfig {
                n_entities: 8,
                snippets_per_sense: 10,
                seed: 42,
                ..Default::default()
            },
        )
    }

    #[test]
    fn entity_count_and_k_range() {
        let d = small();
        assert_eq!(d.entities.len(), 8);
        for e in &d.entities {
            assert!((2..=5).contains(&e.k), "k={}", e.k);
            assert_eq!(e.snippets.len(), e.k * 10);
        }
    }

    #[test]
    fn sense_skew_favours_two() {
        let d = MshWsdDataset::generate(
            Language::English,
            &MshWsdConfig {
                n_entities: 300,
                snippets_per_sense: 1,
                seed: 7,
                ..Default::default()
            },
        );
        let two = d.entities.iter().filter(|e| e.k == 2).count();
        // UMLS skew: 82.7% of polysemic terms have exactly 2 senses.
        assert!(two > 200, "only {two}/300 entities with k=2");
    }

    #[test]
    fn every_snippet_contains_the_surface() {
        let d = small();
        for e in &d.entities {
            let id = d
                .corpus
                .vocab()
                .get(e.surface_text())
                .expect("surface interned");
            for &(doc, _) in &e.snippets {
                let found = d.corpus.doc(doc).iter_tokens().any(|(_, _, t, _)| t == id);
                assert!(found, "entity {} missing in {doc}", e.id);
            }
        }
    }

    #[test]
    fn contexts_of_different_senses_are_separable() {
        let d = small();
        let e = &d.entities[0];
        let id = d.corpus.vocab().get(e.surface_text()).expect("interned");
        let opts = ContextOptions {
            window: None,
            stemmed: false,
            scope: ContextScope::Sentence,
        };
        let ctxs = OccurrenceIndex::build(&d.corpus).contexts(&d.corpus, &[id], opts);
        assert!(!ctxs.is_empty());
        // Aggregate per gold sense and check cross-sense cosine is far
        // below within-sense self-similarity.
        use crate::vector::SparseVector;
        let mut per_sense: Vec<Vec<&SparseVector>> = vec![Vec::new(); e.k];
        // Occurrences come in document order; snippets are grouped by sense
        // in generation order, so map occurrences back via snippet list.
        // (One occurrence per snippet: the embedded mention.)
        assert_eq!(ctxs.len(), e.snippets.len());
        for (v, &(_, sense)) in ctxs.iter().zip(&e.snippets) {
            per_sense[sense].push(v);
        }
        let centroids: Vec<SparseVector> = per_sense
            .iter()
            .map(|vs| {
                let owned: Vec<SparseVector> = vs.iter().map(|v| (*v).clone()).collect();
                SparseVector::centroid(&owned)
            })
            .collect();
        let cross = centroids[0].cosine(&centroids[1]);
        assert!(cross < 0.5, "senses not separable: cross-cosine {cross}");
    }

    #[test]
    fn deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.corpus.token_count(), b.corpus.token_count());
        assert_eq!(
            a.entities.iter().map(|e| e.k).collect::<Vec<_>>(),
            b.entities.iter().map(|e| e.k).collect::<Vec<_>>()
        );
    }

    #[test]
    fn surfaces_are_unique() {
        let d = small();
        let mut seen = std::collections::HashSet::new();
        for e in &d.entities {
            assert!(seen.insert(e.surface_text().to_owned()));
        }
    }
}
