//! Step IV reference: `SemanticLinker::propose` as first written, on
//! public API only. Every candidate context is built directly per
//! occurrence (`find_occurrences`, then `context_vector` per occurrence,
//! summed with `SparseVector::sum_of`; no document-context cache),
//! the neighbourhood scans every term's sentence presence against a
//! `HashSet` of the candidate's sentences, positions go through a
//! `HashMap` keyed by `index_of` lookups, and every target is cloned
//! into a proposition and merge-join scored before ranking.

use bio_onto_enrich::corpus::context::{context_vector, ContextOptions};
use bio_onto_enrich::corpus::{Corpus, OccurrenceIndex, SparseVector};
use bio_onto_enrich::ontology::{query, ConceptId, Ontology};
use bio_onto_enrich::textkit::normalize::match_key;
use bio_onto_enrich::workflow::linkage::{
    LinkerConfig, OntologyTermInventory, PositionOrigin, Proposition,
};
use std::collections::{HashMap, HashSet};

/// The reference linker over an already-built inventory.
pub struct LinkageOracle<'a> {
    corpus: &'a Corpus,
    ontology: &'a Ontology,
    inventory: &'a OntologyTermInventory,
    config: LinkerConfig,
    occ: OccurrenceIndex,
    /// Per inventory term: sorted, deduplicated `(doc, sentence)` pairs
    /// where it occurs.
    presence: Vec<Vec<(u32, u32)>>,
}

impl<'a> LinkageOracle<'a> {
    /// Reference over `inventory`, which must have been built on
    /// `corpus` and `ontology` under `config`.
    pub fn new(
        corpus: &'a Corpus,
        ontology: &'a Ontology,
        inventory: &'a OntologyTermInventory,
        config: LinkerConfig,
    ) -> Self {
        let occ = OccurrenceIndex::build(corpus);
        let presence = inventory
            .terms()
            .iter()
            .map(|t| {
                let mut pres: Vec<(u32, u32)> = occ
                    .find_occurrences(corpus, &t.tokens)
                    .iter()
                    .map(|o| (o.doc.0, o.sentence as u32))
                    .collect();
                pres.sort_unstable();
                pres.dedup();
                pres
            })
            .collect();
        LinkageOracle {
            corpus,
            ontology,
            inventory,
            config,
            occ,
            presence,
        }
    }

    /// The top-N propositions for `candidate`.
    pub fn propose(&self, candidate: &str) -> Vec<Proposition> {
        let Some(tokens) = self.corpus.phrase_ids(candidate) else {
            return Vec::new();
        };
        let opts = ContextOptions {
            window: None,
            stemmed: true,
            scope: self.config.scope,
        };
        let occs = self.occ.find_occurrences(self.corpus, &tokens);
        let contexts: Vec<SparseVector> = occs
            .iter()
            .map(|&o| context_vector(self.corpus, o, tokens.len(), opts))
            .collect();
        let candidate_ctx = SparseVector::sum_of(&contexts);
        if occs.is_empty() {
            return Vec::new();
        }
        let sentences: HashSet<(u32, u32)> =
            occs.iter().map(|o| (o.doc.0, o.sentence as u32)).collect();

        let candidate_key = match_key(candidate);
        let neighbours: Vec<usize> = (0..self.inventory.len())
            .filter(|&i| self.presence[i].iter().any(|p| sentences.contains(p)))
            .filter(|&i| self.inventory.terms()[i].key != candidate_key)
            .collect();

        let mut positions: HashMap<usize, PositionOrigin> = HashMap::new();
        for &i in &neighbours {
            positions.entry(i).or_insert(PositionOrigin::Neighbour);
        }
        if self.config.expand_hierarchy {
            for &i in &neighbours {
                let concepts = self.inventory.terms()[i].concepts.clone();
                for c in concepts {
                    for &f in query::fathers(self.ontology, c) {
                        self.add_concept_terms(
                            &mut positions,
                            f,
                            PositionOrigin::FatherOfNeighbour,
                        );
                    }
                    for &s in query::sons(self.ontology, c) {
                        self.add_concept_terms(&mut positions, s, PositionOrigin::SonOfNeighbour);
                    }
                }
            }
        }
        let mut targets: Vec<(usize, PositionOrigin)> = positions.into_iter().collect();
        targets.sort_unstable_by_key(|&(i, _)| i);

        let mut props: Vec<Proposition> = targets
            .into_iter()
            .map(|(i, origin)| {
                let t = &self.inventory.terms()[i];
                Proposition {
                    term: t.surface.clone(),
                    concepts: t.concepts.clone(),
                    cosine: candidate_ctx.cosine(&t.context),
                    origin,
                }
            })
            .filter(|p| match_key(&p.term) != candidate_key)
            .collect();
        props.sort_by(|a, b| {
            b.cosine
                .partial_cmp(&a.cosine)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.term.cmp(&b.term))
        });
        props.truncate(self.config.top_n);
        props
    }

    fn add_concept_terms(
        &self,
        positions: &mut HashMap<usize, PositionOrigin>,
        concept: ConceptId,
        origin: PositionOrigin,
    ) {
        for term in self.ontology.concept(concept).terms() {
            if let Some(idx) = self.inventory.index_of(term) {
                positions.entry(idx).or_insert(origin);
            }
        }
    }
}

/// Assert two proposition lists are identical: terms, concepts, origins
/// and cosine bit patterns, in order.
pub fn assert_same_propositions(got: &[Proposition], want: &[Proposition], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: proposition count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.term, w.term, "{what}");
        assert_eq!(g.concepts, w.concepts, "{what}: {}", g.term);
        assert_eq!(g.origin, w.origin, "{what}: {}", g.term);
        assert_eq!(
            g.cosine.to_bits(),
            w.cosine.to_bits(),
            "{what}: {}: {} vs {}",
            g.term,
            g.cosine,
            w.cosine
        );
    }
}
