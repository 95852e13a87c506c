//! Integration: Steps II + III on a world with *real* polysemy — shared
//! synonyms inside the ontology (the weak supervision the pipeline trains
//! Step II on) and ambiguous new terms spanning two concepts' contexts.

use bio_onto_enrich::cluster::{Algorithm, InternalIndex};
use bio_onto_enrich::corpus::context::ContextScope;
use bio_onto_enrich::corpus::OccurrenceIndex;
use bio_onto_enrich::eval::world::{World, WorldConfig};
use bio_onto_enrich::workflow::linkage::terms_in_corpus;
use bio_onto_enrich::workflow::polysemy::detector::{
    FeatureContext, PolysemyDetector, PolysemyModel,
};
use bio_onto_enrich::workflow::senses::{Representation, SenseInducer, SenseInducerConfig};

fn poly_world() -> World {
    World::generate(&WorldConfig {
        n_concepts: 80,
        n_holdout: 8,
        abstracts_per_concept: 5,
        n_shared_synonyms: 10,
        n_ambiguous_new: 6,
        seed: 42,
        ..Default::default()
    })
}

/// Train a detector on the ontology's own polysemy (shared synonyms vs a
/// sample of monosemic terms), then check it flags the ambiguous *new*
/// terms, which it never saw.
#[test]
fn detector_trained_on_ontology_flags_ambiguous_new_terms() {
    let w = poly_world();
    let features = FeatureContext::build(&w.corpus);
    let occ = OccurrenceIndex::build(&w.corpus);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for t in terms_in_corpus(&w.corpus, &w.reduced_ontology, &[], &occ) {
        rows.push(features.features(&t.tokens, &t.key));
        labels.push(w.reduced_ontology.concepts_of_term(&t.key).len() >= 2);
    }
    let positives = labels.iter().filter(|&&l| l).count();
    assert!(positives >= 8, "only {positives} polysemic training terms");
    let detector = PolysemyDetector::train(PolysemyModel::Forest, rows, labels);

    let flagged = w
        .ambiguous_new
        .iter()
        .filter(|t| {
            let ids = w.corpus.phrase_ids(&t.surface).expect("interned");
            detector.is_polysemic(&features.features(&ids, &t.surface))
        })
        .count();
    assert!(
        flagged * 2 >= w.ambiguous_new.len(),
        "only {flagged}/{} ambiguous terms flagged",
        w.ambiguous_new.len()
    );
    // Held-out (monosemic) terms should mostly not be flagged.
    let false_flags = w
        .holdout
        .iter()
        .filter(|h| {
            let ids = w.corpus.phrase_ids(&h.surface).expect("interned");
            detector.is_polysemic(&features.features(&ids, &h.surface))
        })
        .count();
    assert!(
        false_flags * 2 <= w.holdout.len(),
        "{false_flags}/{} monosemic held-out terms misflagged",
        w.holdout.len()
    );
}

/// Step III should induce k = 2 for the planted two-sense terms.
#[test]
fn sense_induction_recovers_two_senses_for_ambiguous_new_terms() {
    let w = poly_world();
    // Document scope: each abstract covers exactly one concept, so the
    // whole abstract is the natural context of a mention (sentence-level
    // contexts are too sparse for a reliable k sweep).
    let inducer = SenseInducer::new(
        &w.corpus,
        SenseInducerConfig {
            representation: Representation::BagOfWords,
            scope: ContextScope::Document,
            algorithm: Algorithm::Rbr,
            index: InternalIndex::Ek,
            ..Default::default()
        },
    );
    let mut correct = 0;
    for t in &w.ambiguous_new {
        let ids = w.corpus.phrase_ids(&t.surface).expect("interned");
        let senses = inducer.induce(&ids, true);
        if senses.k == 2 {
            correct += 1;
        }
    }
    assert!(
        correct * 3 >= w.ambiguous_new.len() * 2,
        "k = 2 recovered for only {correct}/{}",
        w.ambiguous_new.len()
    );
}
