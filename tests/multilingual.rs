//! Integration: the workflow runs end to end in all three languages the
//! paper targets (EN/FR/ES) — synthetic world generation, term
//! extraction and semantic linkage are language-parametric throughout.

use bio_onto_enrich::eval::exp_linkage_precision;
use bio_onto_enrich::eval::world::{World, WorldConfig};
use bio_onto_enrich::textkit::normalize::match_key;
use bio_onto_enrich::textkit::Language;
use bio_onto_enrich::workflow::diagnostics::DetectorOutcome;
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
    }
}
