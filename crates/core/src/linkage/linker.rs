//! The semantic linker.

use crate::linkage::inventory::{context_options, OntologyTermInventory};
use boe_corpus::context::ContextScope;
use boe_corpus::occurrence::OccurrenceIndex;
use boe_corpus::Corpus;
use boe_ontology::{query, ConceptId, Ontology};
use std::sync::Arc;

/// How a proposed position entered the candidate list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PositionOrigin {
    /// The term co-occurs with the candidate (its "MeSH neighbour").
    Neighbour,
    /// A term of a father of a neighbour's concept.
    FatherOfNeighbour,
    /// A term of a son of a neighbour's concept.
    SonOfNeighbour,
}

impl PositionOrigin {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PositionOrigin::Neighbour => "neighbour",
            PositionOrigin::FatherOfNeighbour => "father-of-neighbour",
            PositionOrigin::SonOfNeighbour => "son-of-neighbour",
        }
    }
}

/// One ranked proposition: "the candidate term could be positioned at
/// this ontology term" (cf. Table 3).
#[derive(Debug, Clone)]
pub struct Proposition {
    /// The ontology term proposed as position.
    pub term: String,
    /// Concepts carrying that term.
    pub concepts: Vec<ConceptId>,
    /// Context cosine between candidate and position.
    pub cosine: f64,
    /// How the position was reached.
    pub origin: PositionOrigin,
}

/// Linker configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinkerConfig {
    /// Number of propositions returned (paper: 10).
    pub top_n: usize,
    /// Include terms of fathers/sons of neighbour concepts even when they
    /// do not co-occur with the candidate (they still need corpus
    /// contexts to score).
    pub expand_hierarchy: bool,
    /// Context reach for the cosine comparison. The paper aggregates the
    /// whole retrieved abstracts (333M tokens of context), which maps to
    /// [`ContextScope::Document`]; sentence scope suits corpora whose
    /// documents mix unrelated topics.
    pub scope: ContextScope,
}

impl Default for LinkerConfig {
    fn default() -> Self {
        LinkerConfig {
            top_n: 10,
            expand_hierarchy: true,
            scope: ContextScope::Document,
        }
    }
}

/// Step-IV semantic linker bound to one corpus + ontology.
#[derive(Debug)]
pub struct SemanticLinker<'c> {
    corpus: &'c Corpus,
    ontology: &'c Ontology,
    occ: Arc<OccurrenceIndex>,
    inventory: OntologyTermInventory,
    config: LinkerConfig,
}

impl<'c> SemanticLinker<'c> {
    /// Build the linker (indexes the corpus for ontology terms once).
    pub fn new(corpus: &'c Corpus, ontology: &'c Ontology, config: LinkerConfig) -> Self {
        let occ = Arc::new(OccurrenceIndex::build(corpus));
        Self::with_candidates_indexed(corpus, ontology, config, &[], occ)
    }

    /// Build the linker with extra proposable corpus terms (Step-I
    /// candidates, cf. Table 3 where "wound" and "re-epithelialization"
    /// are proposed despite not being MeSH terms), resolving occurrences
    /// through a shared [`OccurrenceIndex`] over `corpus` (the pipeline
    /// builds one per run, in Step I, and hands it to every stage instead
    /// of re-indexing per component).
    pub fn with_candidates_indexed(
        corpus: &'c Corpus,
        ontology: &'c Ontology,
        config: LinkerConfig,
        candidates: &[String],
        occ: Arc<OccurrenceIndex>,
    ) -> Self {
        let inventory =
            OntologyTermInventory::build(corpus, ontology, candidates, config.scope, &occ);
        SemanticLinker {
            corpus,
            ontology,
            occ,
            inventory,
            config,
        }
    }

    /// The ontology-term inventory.
    pub fn inventory(&self) -> &OntologyTermInventory {
        &self.inventory
    }

    /// Propose positions for a candidate term given as a surface string.
    /// Returns an empty list when the candidate does not occur in the
    /// corpus.
    ///
    /// The cost follows what the candidate touches: its occurrences (a
    /// document-scope context comes from the occurrence index's cache,
    /// shared with the inventory harvest), the
    /// sentences they sit in, and the positions they reach. Position
    /// contexts are scored through the inventory's inverted index
    /// ([`OntologyTermInventory::cosines_against`]), and only the
    /// `top_n` survivors are materialized.
    pub fn propose(&self, candidate: &str) -> Vec<Proposition> {
        let Some(tokens) = self.corpus.phrase_ids(candidate) else {
            return Vec::new();
        };
        // One positional resolution serves both the occurrence list and
        // the aggregate context.
        let (occs, context) = self.occ.occurrences_and_context(
            self.corpus,
            &tokens,
            context_options(self.config.scope),
        );
        if occs.is_empty() {
            return Vec::new();
        }
        let sentences: Vec<(u32, u32)> =
            occs.iter().map(|o| (o.doc.0, o.sentence as u32)).collect();
        let inv = &self.inventory;
        // The candidate's own inventory entry, if it is a known term:
        // keys are unique in the inventory, so comparing indices is
        // comparing match keys.
        let own = inv.index_of(candidate);

        // (1) MeSH neighbourhood: ontology terms co-occurring with the
        // candidate, excluding the candidate itself.
        let neighbours: Vec<usize> = inv
            .cooccurring(&sentences)
            .into_iter()
            .filter(|&i| Some(i) != own)
            .collect();

        // (2) Candidate positions: neighbours + terms of fathers/sons of
        // neighbour concepts. The first origin recorded wins: neighbours,
        // then per neighbour (ascending) and concept, fathers before sons.
        let mut origins: Vec<Option<PositionOrigin>> = vec![None; inv.len()];
        for &i in &neighbours {
            origins[i] = Some(PositionOrigin::Neighbour);
        }
        if self.config.expand_hierarchy {
            for &i in &neighbours {
                for &c in &inv.terms()[i].concepts {
                    for &f in query::fathers(self.ontology, c) {
                        self.add_concept_terms(&mut origins, f, PositionOrigin::FatherOfNeighbour);
                    }
                    for &s in query::sons(self.ontology, c) {
                        self.add_concept_terms(&mut origins, s, PositionOrigin::SonOfNeighbour);
                    }
                }
            }
        }
        // Ascending index order, the candidate never among them.
        let targets: Vec<usize> = (0..inv.len())
            .filter(|&i| origins[i].is_some() && Some(i) != own)
            .collect();
        let cosines = inv.cosines_against(&context, &targets);

        // (3) Rank by cosine (ties by surface), keep the top N, and only
        // then clone their surfaces and concepts.
        let terms = inv.terms();
        let mut ranked: Vec<(usize, f64)> = targets.into_iter().zip(cosines).collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| terms[a.0].surface.cmp(&terms[b.0].surface))
        });
        ranked.truncate(self.config.top_n);
        ranked
            .into_iter()
            .map(|(i, cosine)| Proposition {
                term: terms[i].surface.clone(),
                concepts: terms[i].concepts.clone(),
                cosine,
                origin: origins[i].expect("every target has an origin"),
            })
            .collect()
    }

    /// Record `origin` for every corpus-linked term of `concept` that has
    /// none yet.
    fn add_concept_terms(
        &self,
        origins: &mut [Option<PositionOrigin>],
        concept: ConceptId,
        origin: PositionOrigin,
    ) {
        for &i in self.inventory.concept_terms(concept) {
            origins[i].get_or_insert(origin);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::corpus::CorpusBuilder;
    use boe_ontology::OntologyBuilder;
    use boe_textkit::Language;

    /// Ontology: eye diseases ⊃ corneal diseases ⊃ corneal ulcer;
    /// candidate "corneal injuries" co-occurs with "corneal diseases".
    fn world() -> (Corpus, Ontology) {
        let mut ob = OntologyBuilder::new("t", Language::English);
        let eye = ob.add_concept("eye diseases", vec![]);
        let cd = ob.add_concept("corneal diseases", vec![]);
        let cu = ob.add_concept("corneal ulcer", vec![]);
        ob.add_is_a(cd, eye);
        ob.add_is_a(cu, cd);
        let onto = ob.build().expect("valid");
        let mut cb = CorpusBuilder::new(Language::English);
        for _ in 0..4 {
            cb.add_text(
                "corneal injuries resemble corneal diseases in the epithelium stroma tissue.",
            );
            cb.add_text("corneal diseases affect the epithelium stroma tissue.");
            cb.add_text("corneal ulcer damages the epithelium stroma tissue.");
            cb.add_text("eye diseases involve the retina macula nerve.");
        }
        (cb.build(), onto)
    }

    #[test]
    fn proposes_cooccurring_neighbour_first() {
        let (c, o) = world();
        let linker = SemanticLinker::new(&c, &o, LinkerConfig::default());
        let props = linker.propose("corneal injuries");
        assert!(!props.is_empty());
        assert_eq!(props[0].term, "corneal diseases");
        assert_eq!(props[0].origin, PositionOrigin::Neighbour);
        assert!(props[0].cosine > 0.5, "cosine {}", props[0].cosine);
    }

    #[test]
    fn hierarchy_expansion_adds_fathers_and_sons() {
        let (c, o) = world();
        let linker = SemanticLinker::new(&c, &o, LinkerConfig::default());
        let props = linker.propose("corneal injuries");
        let terms: Vec<&str> = props.iter().map(|p| p.term.as_str()).collect();
        assert!(terms.contains(&"eye diseases"), "{terms:?}");
        assert!(terms.contains(&"corneal ulcer"), "{terms:?}");
        let ulcer = props
            .iter()
            .find(|p| p.term == "corneal ulcer")
            .expect("present");
        assert_eq!(ulcer.origin, PositionOrigin::SonOfNeighbour);
    }

    #[test]
    fn ranking_is_by_context_similarity() {
        let (c, o) = world();
        let linker = SemanticLinker::new(&c, &o, LinkerConfig::default());
        let props = linker.propose("corneal injuries");
        assert!(props.windows(2).all(|w| w[0].cosine >= w[1].cosine));
        // "eye diseases" shares no context words with the candidate →
        // must rank below "corneal ulcer" which shares the epithelium
        // context.
        let pos = |t: &str| props.iter().position(|p| p.term == t).expect("present");
        assert!(pos("corneal ulcer") < pos("eye diseases"));
    }

    #[test]
    fn unknown_candidate_yields_nothing() {
        let (c, o) = world();
        let linker = SemanticLinker::new(&c, &o, LinkerConfig::default());
        assert!(linker.propose("nonexistent term").is_empty());
    }

    #[test]
    fn top_n_truncates() {
        let (c, o) = world();
        let linker = SemanticLinker::new(
            &c,
            &o,
            LinkerConfig {
                top_n: 1,
                ..Default::default()
            },
        );
        assert_eq!(linker.propose("corneal injuries").len(), 1);
    }

    #[test]
    fn no_hierarchy_expansion_keeps_neighbours_only() {
        let (c, o) = world();
        let linker = SemanticLinker::new(
            &c,
            &o,
            LinkerConfig {
                expand_hierarchy: false,
                ..Default::default()
            },
        );
        let props = linker.propose("corneal injuries");
        assert!(props.iter().all(|p| p.origin == PositionOrigin::Neighbour));
    }

    #[test]
    fn corpus_candidates_are_proposable() {
        let (c, o) = world();
        let linker = SemanticLinker::with_candidates_indexed(
            &c,
            &o,
            LinkerConfig::default(),
            &["epithelium".to_owned(), "corneal injuries".to_owned()],
            Arc::new(OccurrenceIndex::build(&c)),
        );
        let props = linker.propose("corneal injuries");
        let epi = props.iter().find(|p| p.term == "epithelium");
        let epi = epi.expect("corpus term proposed");
        assert!(epi.concepts.is_empty(), "extras carry no concepts");
        assert_eq!(epi.origin, PositionOrigin::Neighbour);
        // The candidate itself was passed as an extra but must never be
        // proposed as its own position.
        assert!(props.iter().all(|p| p.term != "corneal injuries"));
    }

    #[test]
    fn candidate_never_proposes_itself() {
        let mut ob = OntologyBuilder::new("t", Language::English);
        ob.add_concept("corneal injuries", vec![]);
        ob.add_concept("corneal diseases", vec![]);
        let o = ob.build().expect("valid");
        let mut cb = CorpusBuilder::new(Language::English);
        cb.add_text("corneal injuries resemble corneal diseases closely.");
        cb.add_text("corneal injuries resemble corneal diseases closely.");
        let c = cb.build();
        let linker = SemanticLinker::new(&c, &o, LinkerConfig::default());
        let props = linker.propose("corneal injuries");
        assert!(props.iter().all(|p| p.term != "corneal injuries"));
    }
}
