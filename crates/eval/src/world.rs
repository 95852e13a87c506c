//! The aligned synthetic world for the linkage experiments (E5/E6).
//!
//! Reproduces the paper's §3(ii) protocol with synthetic stand-ins
//! (DESIGN.md §2, substitution #6):
//!
//! 1. generate a MeSH-like ontology *with* the future terms;
//! 2. record each held-out term's gold positions (its synonyms plus all
//!    terms of its fathers/sons — the paradigmatic relations of Table 4);
//! 3. delete the held-out concepts, producing the "2009" ontology;
//! 4. generate a PubMed-like corpus in which every concept — including
//!    the held-out ones — is written about, with pair sentences that make
//!    related terms co-occur;
//! 5. ask the linker to re-place each held-out term in the reduced
//!    ontology and judge propositions against the gold positions.

use boe_corpus::corpus::CorpusBuilder;
use boe_corpus::synth::topic::{mention_tokens, AbstractGenerator, ConceptProfile, TaggedWord};
use boe_corpus::synth::vocabgen::LexiconPools;
use boe_corpus::Corpus;
use boe_ontology::synth::mesh::{MeshConfig, MeshGenerator};
use boe_ontology::{query, ConceptId, Ontology, OntologyBuilder};
use boe_rng::StdRng;
use boe_textkit::pos::PosTag;
use boe_textkit::Language;

/// World-generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorldConfig {
    /// Language.
    pub lang: Language,
    /// Ontology size (concepts, including held-out ones).
    pub n_concepts: usize,
    /// Number of held-out "new" terms (the paper uses 60).
    pub n_holdout: usize,
    /// Abstracts generated per concept.
    pub abstracts_per_concept: usize,
    /// Exclusive topic nouns per concept.
    pub topic_nouns: usize,
    /// Exclusive topic adjectives per concept.
    pub topic_adjectives: usize,
    /// Number of *polysemic ontology terms*: shared synonyms planted on
    /// two unrelated concepts each (this is the weak supervision Step II
    /// trains on — UMLS-style polysemy inside the terminology).
    pub n_shared_synonyms: usize,
    /// Number of *ambiguous new terms*: surfaces absent from the ontology
    /// that are written about in two unrelated concepts' contexts (Step
    /// II should flag them, Step III should induce k = 2).
    pub n_ambiguous_new: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            lang: Language::English,
            n_concepts: 300,
            n_holdout: 60,
            abstracts_per_concept: 6,
            topic_nouns: 10,
            topic_adjectives: 5,
            n_shared_synonyms: 0,
            n_ambiguous_new: 0,
            seed: 0xB0E_2016,
        }
    }
}

/// One held-out term with its gold evaluation data.
#[derive(Debug, Clone)]
pub struct HeldOutTerm {
    /// The term to re-place (preferred label of the removed concept).
    pub surface: String,
    /// Concept id in the *full* ontology.
    pub concept: ConceptId,
    /// Normalized terms counting as correct positions (synonyms +
    /// father/son terms; paper's paradigmatic criterion).
    pub gold_terms: Vec<String>,
}

/// An ambiguous new term: a surface absent from the ontology written
/// about in two unrelated concepts' contexts.
#[derive(Debug, Clone)]
pub struct AmbiguousNewTerm {
    /// The ambiguous surface (single token).
    pub surface: String,
    /// The two concepts whose contexts it appears in.
    pub concepts: [ConceptId; 2],
}

/// The generated world.
#[derive(Debug)]
pub struct World {
    /// Ontology including the held-out concepts ("MeSH 2015").
    pub full_ontology: Ontology,
    /// Ontology with held-out concepts removed ("MeSH 2009").
    pub reduced_ontology: Ontology,
    /// The PubMed-like corpus.
    pub corpus: Corpus,
    /// The held-out terms.
    pub holdout: Vec<HeldOutTerm>,
    /// Concept topic profiles (full-ontology concept id order).
    pub profiles: Vec<ConceptProfile>,
    /// Planted polysemic ontology terms (shared synonyms), if any.
    pub shared_synonyms: Vec<String>,
    /// Planted ambiguous new terms, if any.
    pub ambiguous_new: Vec<AmbiguousNewTerm>,
}

impl World {
    /// Generate a world under `config`.
    pub fn generate(config: &WorldConfig) -> World {
        assert!(
            config.n_holdout < config.n_concepts / 2,
            "holdout too large"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (full, parts) = MeshGenerator::new(
            config.lang,
            MeshConfig {
                n_concepts: config.n_concepts,
                synonyms: 1.4,
                seed: config.seed ^ 0x5117,
                ..Default::default()
            },
        )
        .generate();
        // Plant shared synonyms: the same surface attached to two distant
        // concepts, making the term polysemic *inside* the terminology.
        let (full, shared_synonyms) = plant_shared_synonyms(full, config, &mut rng);

        // Topic profiles: exclusive pools, plus the parent's pools so that
        // hierarchically related terms have overlapping contexts.
        let pools = LexiconPools::generate(config.lang);
        let mut profiles: Vec<ConceptProfile> = full
            .concepts()
            .iter()
            .map(|c| {
                let (adj, noun) = &parts[c.id.index()];
                let mut p = ConceptProfile::with_exclusive_pools(
                    c.id.index(),
                    c.id.index(),
                    mention_tokens(config.lang, adj, noun),
                    &pools,
                    config.topic_nouns,
                    config.topic_adjectives,
                );
                p.synonyms = c
                    .synonyms
                    .iter()
                    .map(|s| tag_label(config.lang, s))
                    .collect();
                p
            })
            .collect();
        // Share half the parent's pools (context relatedness along is-a).
        let own: Vec<(Vec<String>, Vec<String>)> = profiles
            .iter()
            .map(|p| (p.nouns.clone(), p.adjectives.clone()))
            .collect();
        for c in full.concepts() {
            if let Some(&parent) = c.parents.first() {
                let (pn, pa) = &own[parent.index()];
                let p = &mut profiles[c.id.index()];
                p.nouns.extend(pn.iter().take(pn.len() / 2).cloned());
                p.adjectives.extend(pa.iter().take(pa.len() / 2).cloned());
            }
        }

        // Hold out leaves with a parent and at least one synonym.
        let mut holdout_ids: Vec<ConceptId> = full
            .leaves()
            .into_iter()
            .filter(|&c| {
                !full.concept(c).parents.is_empty() && !full.concept(c).synonyms.is_empty()
            })
            .collect();
        holdout_ids.truncate(config.n_holdout);
        let holdout: Vec<HeldOutTerm> = holdout_ids
            .iter()
            .map(|&c| HeldOutTerm {
                surface: full.concept(c).preferred.clone(),
                concept: c,
                gold_terms: query::gold_position_terms(&full, c),
            })
            .collect();

        // Reduced ontology (held-out concepts and their terms removed).
        let reduced = remove_concepts(&full, &holdout_ids);

        // Ambiguous new terms: each lives in two distant concepts'
        // contexts and is absent from the ontology.
        let ambiguous_new: Vec<AmbiguousNewTerm> = (0..config.n_ambiguous_new)
            .map(|i| {
                let a = rng.gen_range(0..full.len());
                let b = (a + full.len() / 2) % full.len();
                AmbiguousNewTerm {
                    surface: format!("ambinew{i}x"),
                    concepts: [ConceptId(a as u32), ConceptId(b as u32)],
                }
            })
            .collect();
        let mut ambiguous_by_concept: std::collections::HashMap<usize, Vec<&str>> =
            std::collections::HashMap::new();
        for t in &ambiguous_new {
            for &c in &t.concepts {
                ambiguous_by_concept
                    .entry(c.index())
                    .or_default()
                    .push(&t.surface);
            }
        }

        // Corpus: abstracts about every concept; each abstract includes a
        // pair sentence tying the concept to a hierarchical relative.
        let generator = AbstractGenerator::new(config.lang);
        let mut builder = CorpusBuilder::new(config.lang);
        for c in full.concepts() {
            let profile = &profiles[c.id.index()];
            let relatives: Vec<ConceptId> =
                c.parents.iter().chain(c.children.iter()).copied().collect();
            for _ in 0..config.abstracts_per_concept {
                let mut sentences = Vec::new();
                let n_sents = rng.gen_range(3..=6);
                for _ in 0..n_sents {
                    let mention = if rng.gen_bool(0.45) {
                        let surfaces: Vec<&Vec<TaggedWord>> = profile.surfaces().collect();
                        Some(surfaces[rng.gen_range(0..surfaces.len())].clone())
                    } else {
                        None
                    };
                    sentences.push(generator.sentence(&mut rng, profile, mention.as_deref()));
                }
                if !relatives.is_empty() {
                    let rel = relatives[rng.gen_range(0..relatives.len())];
                    let rel_profile = &profiles[rel.index()];
                    sentences.push(generator.pair_sentence(
                        &mut rng,
                        profile,
                        &profile.mention,
                        &rel_profile.mention,
                    ));
                    // Synonyms need contexts as rich as the preferred
                    // term's (the paper's Table-3 winners are synonyms):
                    // pair one with the relative and write about it solo.
                    if !profile.synonyms.is_empty() {
                        let syn = &profile.synonyms[rng.gen_range(0..profile.synonyms.len())];
                        if rng.gen_bool(0.9) {
                            sentences.push(generator.pair_sentence(
                                &mut rng,
                                profile,
                                syn,
                                &rel_profile.mention,
                            ));
                        }
                        if rng.gen_bool(0.7) {
                            sentences.push(generator.sentence(&mut rng, profile, Some(syn)));
                        }
                    }
                }
                // Ambiguous new terms hosted by this concept get mention
                // sentences in *this* concept's topic context.
                if let Some(hosted) = ambiguous_by_concept.get(&c.id.index()) {
                    for surface in hosted {
                        let mention: Vec<TaggedWord> = vec![((*surface).to_owned(), PosTag::Noun)];
                        for _ in 0..2 {
                            sentences.push(generator.sentence(&mut rng, profile, Some(&mention)));
                        }
                    }
                }
                builder.add_tokenized(sentences);
            }
        }
        World {
            full_ontology: full,
            reduced_ontology: reduced,
            corpus: builder.build(),
            holdout,
            profiles,
            shared_synonyms,
            ambiguous_new,
        }
    }
}

/// Attach `n_shared_synonyms` fresh single-token synonyms, each to two
/// distant concepts, making those terms polysemic inside the terminology.
/// Rebuilds the ontology (it is immutable).
fn plant_shared_synonyms(
    onto: Ontology,
    config: &WorldConfig,
    rng: &mut StdRng,
) -> (Ontology, Vec<String>) {
    if config.n_shared_synonyms == 0 {
        return (onto, Vec::new());
    }
    let n = onto.len();
    let mut extra: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut surfaces = Vec::with_capacity(config.n_shared_synonyms);
    for i in 0..config.n_shared_synonyms {
        let surface = format!("sharedpoly{i}x");
        let a = rng.gen_range(0..n);
        let b = (a + n / 2) % n;
        extra[a].push(surface.clone());
        extra[b].push(surface.clone());
        surfaces.push(surface);
    }
    let mut b = OntologyBuilder::new(onto.name().to_owned(), onto.language());
    for c in onto.concepts() {
        let mut syns = c.synonyms.clone();
        syns.extend(extra[c.id.index()].iter().cloned());
        b.add_concept(c.preferred.clone(), syns);
    }
    for c in onto.concepts() {
        for &p in &c.parents {
            b.add_is_a(c.id, p);
        }
    }
    (
        b.build().expect("synonym planting preserves structure"),
        surfaces,
    )
}

/// Tag a two-word generated label in the language's NP order.
fn tag_label(lang: Language, label: &str) -> Vec<TaggedWord> {
    let words: Vec<&str> = label.split_whitespace().collect();
    match (lang, words.as_slice()) {
        (Language::English, [adj, noun]) => vec![
            ((*adj).to_owned(), PosTag::Adjective),
            ((*noun).to_owned(), PosTag::Noun),
        ],
        (Language::French | Language::Spanish, [noun, adj]) => vec![
            ((*noun).to_owned(), PosTag::Noun),
            ((*adj).to_owned(), PosTag::Adjective),
        ],
        _ => words
            .iter()
            .map(|w| ((*w).to_owned(), PosTag::Noun))
            .collect(),
    }
}

/// Rebuild `onto` without the given concepts (assumed to be leaves).
fn remove_concepts(onto: &Ontology, remove: &[ConceptId]) -> Ontology {
    let removed: std::collections::HashSet<ConceptId> = remove.iter().copied().collect();
    let mut b = OntologyBuilder::new(onto.name().to_owned(), onto.language());
    let mut new_id = vec![None; onto.len()];
    for c in onto.concepts() {
        if removed.contains(&c.id) {
            continue;
        }
        let id = b.add_concept(c.preferred.clone(), c.synonyms.clone());
        new_id[c.id.index()] = Some(id);
    }
    for c in onto.concepts() {
        let Some(child) = new_id[c.id.index()] else {
            continue;
        };
        for &p in &c.parents {
            if let Some(parent) = new_id[p.index()] {
                b.add_is_a(child, parent);
            }
        }
    }
    b.build().expect("removing leaves preserves acyclicity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::OccurrenceIndex;

    fn small() -> World {
        World::generate(&WorldConfig {
            n_concepts: 60,
            n_holdout: 8,
            abstracts_per_concept: 3,
            seed: 11,
            ..Default::default()
        })
    }

    #[test]
    fn holdout_terms_are_removed_from_reduced() {
        let w = small();
        assert_eq!(w.holdout.len(), 8);
        assert_eq!(w.reduced_ontology.len(), w.full_ontology.len() - 8);
        for h in &w.holdout {
            assert!(w.full_ontology.contains_term(&h.surface));
            assert!(!w.reduced_ontology.contains_term(&h.surface));
        }
    }

    #[test]
    fn gold_terms_include_father_terms() {
        let w = small();
        for h in &w.holdout {
            let fathers = query::fathers(&w.full_ontology, h.concept);
            assert!(!fathers.is_empty());
            let father_term =
                boe_textkit::normalize::match_key(&w.full_ontology.concept(fathers[0]).preferred);
            assert!(h.gold_terms.contains(&father_term), "{}", h.surface);
        }
    }

    #[test]
    fn holdout_terms_occur_in_corpus() {
        let w = small();
        let occ = OccurrenceIndex::build(&w.corpus);
        for h in &w.holdout {
            let ids = w
                .corpus
                .phrase_ids(&h.surface)
                .unwrap_or_else(|| panic!("{} not interned", h.surface));
            assert!(occ.contains(&w.corpus, &ids), "{} never occurs", h.surface);
        }
    }

    #[test]
    fn father_terms_occur_in_corpus() {
        let w = small();
        let occ = OccurrenceIndex::build(&w.corpus);
        let mut found = 0;
        for h in &w.holdout {
            let fathers = query::fathers(&w.full_ontology, h.concept);
            let father = &w.full_ontology.concept(fathers[0]).preferred;
            if let Some(ids) = w.corpus.phrase_ids(father) {
                if occ.contains(&w.corpus, &ids) {
                    found += 1;
                }
            }
        }
        assert!(found >= 6, "only {found}/8 fathers occur in corpus");
    }

    #[test]
    fn related_profiles_share_vocabulary() {
        let w = small();
        let child = w
            .full_ontology
            .concepts()
            .iter()
            .find(|c| !c.parents.is_empty())
            .expect("non-root exists");
        let parent = child.parents[0];
        let pc = &w.profiles[child.id.index()];
        let pp = &w.profiles[parent.index()];
        let shared = pc.nouns.iter().filter(|n| pp.nouns.contains(n)).count();
        assert!(shared > 0, "no vocabulary sharing along is-a");
    }

    #[test]
    fn deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.corpus.token_count(), b.corpus.token_count());
        assert_eq!(
            a.holdout.iter().map(|h| &h.surface).collect::<Vec<_>>(),
            b.holdout.iter().map(|h| &h.surface).collect::<Vec<_>>()
        );
    }

    fn poly_world() -> World {
        World::generate(&WorldConfig {
            n_concepts: 60,
            n_holdout: 6,
            abstracts_per_concept: 4,
            n_shared_synonyms: 5,
            n_ambiguous_new: 4,
            seed: 77,
            ..Default::default()
        })
    }

    #[test]
    fn shared_synonyms_are_polysemic_ontology_terms() {
        let w = poly_world();
        assert_eq!(w.shared_synonyms.len(), 5);
        for s in &w.shared_synonyms {
            assert_eq!(
                w.full_ontology.concepts_of_term(s).len(),
                2,
                "{s} should sit on two concepts"
            );
        }
        let stats = boe_ontology::polysemy::PolysemyStats::compute(&w.full_ontology);
        assert!(stats.count(2) >= 5);
    }

    #[test]
    fn ambiguous_new_terms_occur_in_both_concepts_contexts() {
        let w = poly_world();
        let occ = OccurrenceIndex::build(&w.corpus);
        assert_eq!(w.ambiguous_new.len(), 4);
        for t in &w.ambiguous_new {
            assert!(
                !w.full_ontology.contains_term(&t.surface),
                "{} leaked into the ontology",
                t.surface
            );
            let ids = w.corpus.phrase_ids(&t.surface).expect("interned");
            let occs = occ.find_occurrences(&w.corpus, &ids);
            // 2 concepts × abstracts × 2 mention sentences.
            assert!(occs.len() >= 8, "{}: {} occurrences", t.surface, occs.len());
        }
    }

    #[test]
    fn ambiguous_contexts_are_separable() {
        use boe_corpus::context::{ContextOptions, ContextScope};
        let w = poly_world();
        let t = &w.ambiguous_new[0];
        let ids = w.corpus.phrase_ids(&t.surface).expect("interned");
        let opts = ContextOptions {
            window: None,
            stemmed: true,
            scope: ContextScope::Sentence,
        };
        let ctxs = OccurrenceIndex::build(&w.corpus).contexts(&w.corpus, &ids, opts);
        // Cluster into 2: external quality against concept-of-origin
        // cannot be computed without doc→concept labels, but the two
        // concept profiles are topically distinct, so a 2-way clustering
        // should have much higher ISIM than a 1-way.
        use boe_cluster::{Algorithm, ClusterSolution, InternalIndex, UnitVectors};
        let unit = UnitVectors::new(&ctxs);
        let two = Algorithm::Direct.cluster(&unit, 2, 1);
        let one = ClusterSolution::new(vec![0; ctxs.len()], 1);
        let ak2 = InternalIndex::Ak.score(&two, &unit);
        let ak1 = InternalIndex::Ak.score(&one, &unit);
        assert!(ak2 > ak1 + 0.1, "2-way {ak2} vs 1-way {ak1}");
    }
}
