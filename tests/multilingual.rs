//! Integration: the workflow runs end to end in all three languages the
//! paper targets (EN/FR/ES) — synthetic world generation, term
//! extraction and semantic linkage are language-parametric throughout.

use bio_onto_enrich::corpus::context::ContextScope;
use bio_onto_enrich::corpus::{CorpusBuilder, OccurrenceIndex};
use bio_onto_enrich::eval::exp_linkage_precision;
use bio_onto_enrich::eval::world::{World, WorldConfig};
use bio_onto_enrich::ontology::OntologyBuilder;
use bio_onto_enrich::textkit::normalize::match_key;
use bio_onto_enrich::textkit::Language;
use bio_onto_enrich::workflow::diagnostics::DetectorOutcome;
use bio_onto_enrich::workflow::linkage::{terms_in_corpus, OntologyTermInventory};
use bio_onto_enrich::workflow::termex::candidates::CandidateOptions;
use bio_onto_enrich::workflow::termex::{TermExtractor, TermMeasure};
use bio_onto_enrich::workflow::{EnrichmentPipeline, PipelineConfig};

fn world(lang: Language) -> World {
    World::generate(&WorldConfig {
        lang,
        n_concepts: 70,
        n_holdout: 8,
        abstracts_per_concept: 4,
        seed: 0xFADE,
        ..Default::default()
    })
}

#[test]
fn extraction_finds_concept_labels_in_every_language() {
    for lang in Language::ALL {
        let w = world(lang);
        let extractor = TermExtractor::new(&w.corpus, CandidateOptions::default());
        let top: Vec<String> = extractor
            .top(&w.corpus, TermMeasure::LidfValue, 300)
            .into_iter()
            .map(|t| t.surface)
            .collect();
        // A decent share of ontology concept labels must surface among
        // the extracted candidates.
        let found = w
            .full_ontology
            .concepts()
            .iter()
            .filter(|c| top.contains(&c.preferred))
            .count();
        assert!(
            found >= w.full_ontology.len() / 4,
            "{lang}: only {found}/{} labels extracted",
            w.full_ontology.len()
        );
    }
}

#[test]
fn linkage_precision_holds_in_french_and_spanish() {
    for lang in [Language::French, Language::Spanish] {
        let w = world(lang);
        let r = exp_linkage_precision::run(&w, 200, true);
        assert!(
            r.at[3] >= 0.5,
            "{lang}: top-10 precision {} too low",
            r.at[3]
        );
        assert!(r.at[0] <= r.at[3], "{lang}: non-monotone");
    }
}

#[test]
fn romance_labels_follow_noun_adjective_order() {
    let w = world(Language::French);
    for h in &w.holdout {
        let words: Vec<&str> = h.surface.split(' ').collect();
        assert_eq!(words.len(), 2, "{}", h.surface);
        // The generator composes FR labels as "<noun> <adjective>"; the
        // noun carries a nominal suffix.
        assert!(
            !words[0].ends_with("ique") && !words[0].ends_with("eux"),
            "adjective-first label {:?}",
            h.surface
        );
    }
}

/// Step II trains on every ontology term the corpus contains, accented
/// French and Spanish surfaces included: the ontology indexes terms by
/// accent-folded match key, the corpus keeps the accents.
#[test]
fn detector_trains_on_every_ontology_term_in_the_corpus() {
    for lang in [Language::French, Language::Spanish] {
        let w = World::generate(&WorldConfig {
            lang,
            n_concepts: 70,
            n_holdout: 8,
            abstracts_per_concept: 4,
            n_shared_synonyms: 6,
            seed: 0xFADE,
            ..Default::default()
        });
        let onto = &w.reduced_ontology;
        // A naive scan: a term counts when any raw surface with its key
        // occurs as a token run inside one sentence.
        let occurs = |raw: &str| {
            let Some(ids) = w.corpus.phrase_ids(raw) else {
                return false;
            };
            w.corpus.docs().iter().any(|d| {
                d.sentences
                    .iter()
                    .any(|s| s.tokens.windows(ids.len()).any(|run| run == ids))
            })
        };
        let in_corpus: Vec<&str> = onto
            .terms()
            .into_iter()
            .map(|(key, _)| key)
            .filter(|key| {
                onto.concepts()
                    .iter()
                    .flat_map(|c| c.terms())
                    .any(|raw| match_key(raw) == *key && occurs(raw))
            })
            .collect();
        assert!(
            in_corpus
                .iter()
                .any(|key| w.corpus.phrase_ids(key).is_none()),
            "{lang}: some term in the corpus must be written with accents"
        );
        let report = EnrichmentPipeline::new(PipelineConfig::default())
            .run(&w.corpus, onto)
            .expect("valid input");
        match report.diagnostics.detector {
            DetectorOutcome::Trained { examples, .. } => {
                assert_eq!(
                    examples,
                    in_corpus.len(),
                    "{lang}: ontology terms in the corpus"
                )
            }
            other => panic!("{lang}: the detector must train, got {other:?}"),
        }
        // Step IV's inventory finds the same terms.
        let inventory = OntologyTermInventory::build(
            &w.corpus,
            onto,
            &[],
            ContextScope::Document,
            &OccurrenceIndex::build(&w.corpus),
        );
        let linked: Vec<&str> = inventory.terms().iter().map(|t| t.key.as_str()).collect();
        assert_eq!(linked, in_corpus, "{lang}: inventory keys");
    }
}

/// A key whose first raw surface is absent from the corpus is still
/// found through a later one, by Step II and Step IV alike: "kératite"
/// (concept A's preferred term) and "keratite" (concept B's synonym)
/// share the key `keratite`, and the corpus writes only "keratite".
#[test]
fn a_key_is_found_through_any_of_its_surfaces_in_steps_ii_and_iv() {
    let mut ob = OntologyBuilder::new("t", Language::French);
    ob.add_concept("kératite", vec![]);
    ob.add_concept("inflammation oculaire", vec!["keratite".to_owned()]);
    for term in ["cornée", "rétine", "vision"] {
        ob.add_concept(term, vec![]);
    }
    let onto = ob.build().expect("valid");
    let mut cb = CorpusBuilder::new(Language::French);
    for _ in 0..3 {
        cb.add_text("la keratite touche la cornée. la vision baisse.");
        cb.add_text("une inflammation oculaire atteint la rétine.");
    }
    let corpus = cb.build();
    let keratite = corpus.phrase_ids("keratite").expect("in the corpus");
    assert!(corpus.phrase_ids("kératite").is_none());

    // Step II: one row per key found; `keratite`, on two concepts, is
    // the only polysemic one.
    let report = EnrichmentPipeline::new(PipelineConfig::default())
        .run(&corpus, &onto)
        .expect("valid input");
    assert_eq!(
        report.diagnostics.detector,
        DetectorOutcome::Trained {
            examples: 5,
            positives: 1
        }
    );
    // Step IV: the inventory holds `keratite` under the tokens of the
    // one surface that occurs, as the shared resolver gives them.
    let occ = OccurrenceIndex::build(&corpus);
    let inventory = OntologyTermInventory::build(&corpus, &onto, &[], ContextScope::Document, &occ);
    let linked = inventory.get("keratite").expect("keratite is linked");
    assert_eq!(
        (linked.surface.as_str(), &linked.tokens),
        ("keratite", &keratite)
    );
    assert_eq!(inventory.len(), 5);
    let found = terms_in_corpus(&corpus, &onto, &[], &occ);
    let resolved = found
        .iter()
        .find(|t| t.key == "keratite")
        .expect("resolved");
    assert_eq!(resolved.tokens, keratite);
}
