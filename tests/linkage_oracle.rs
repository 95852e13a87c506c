//! Step IV against its reference: `SemanticLinker::propose` must return
//! exactly the propositions of the straightforward implementation kept
//! in `oracle/linkage.rs` — same terms, concepts and origins in the same
//! order, same cosine bits.
//!
//! Covered: every Step I candidate plus the held-out terms of EN/FR/ES
//! worlds, at document and sentence scope, with hierarchy expansion on
//! and off, with and without extra proposable corpus terms, with the
//! linker built and queried at 1 and 8 threads.
//!
//! The thread-count override is process-global, so only one test here
//! changes it; the results do not depend on it anyway.

use bio_onto_enrich::corpus::context::ContextScope;
use bio_onto_enrich::corpus::{Corpus, CorpusBuilder, OccurrenceIndex};
use bio_onto_enrich::eval::world::{World, WorldConfig};
use bio_onto_enrich::ontology::{Ontology, OntologyBuilder};
use bio_onto_enrich::par as boe_par;
use bio_onto_enrich::textkit::Language;
use bio_onto_enrich::workflow::linkage::{LinkerConfig, SemanticLinker};
use bio_onto_enrich::workflow::termex::candidates::CandidateOptions;
use bio_onto_enrich::workflow::termex::{TermExtractor, TermMeasure};
use std::sync::Arc;

#[path = "oracle/linkage.rs"]
mod oracle;

use oracle::{assert_same_propositions, LinkageOracle};

/// Ontology: eye diseases ⊃ corneal diseases ⊃ corneal ulcer; candidate
/// "corneal injuries" co-occurs with "corneal diseases".
fn small_world() -> (Corpus, Ontology) {
    let mut ob = OntologyBuilder::new("t", Language::English);
    let eye = ob.add_concept("eye diseases", vec![]);
    let cd = ob.add_concept("corneal diseases", vec![]);
    let cu = ob.add_concept("corneal ulcer", vec![]);
    ob.add_is_a(cd, eye);
    ob.add_is_a(cu, cd);
    let onto = ob.build().expect("valid");
    let mut cb = CorpusBuilder::new(Language::English);
    for _ in 0..4 {
        cb.add_text("corneal injuries resemble corneal diseases in the epithelium stroma tissue.");
        cb.add_text("corneal diseases affect the epithelium stroma tissue.");
        cb.add_text("corneal ulcer damages the epithelium stroma tissue.");
        cb.add_text("eye diseases involve the retina macula nerve.");
    }
    (cb.build(), onto)
}

#[test]
fn inverted_index_matches_naive_scan_exactly() {
    let (c, o) = small_world();
    for expand_hierarchy in [true, false] {
        let config = LinkerConfig {
            expand_hierarchy,
            ..Default::default()
        };
        let linker = SemanticLinker::with_candidates(
            &c,
            &o,
            config,
            &["epithelium".to_owned(), "stroma".to_owned()],
        );
        let reference = LinkageOracle::new(&c, &o, linker.inventory(), config);
        for candidate in ["corneal injuries", "epithelium", "nonexistent term"] {
            assert_same_propositions(
                &linker.propose(candidate),
                &reference.propose(candidate),
                candidate,
            );
        }
        assert!(!linker.propose("corneal injuries").is_empty());
    }
}

fn world(lang: Language) -> World {
    World::generate(&WorldConfig {
        lang,
        n_concepts: 40,
        n_holdout: 6,
        abstracts_per_concept: 3,
        seed: 0x11AC,
        ..Default::default()
    })
}

#[test]
fn every_candidate_matches_the_oracle() {
    for lang in [Language::English, Language::French, Language::Spanish] {
        let w = world(lang);
        let (corpus, onto) = (&w.corpus, &w.reduced_ontology);
        let extractor = TermExtractor::new(corpus, CandidateOptions::default());
        let mut candidates: Vec<String> = extractor
            .candidates()
            .terms
            .iter()
            .map(|t| t.surface.clone())
            .collect();
        candidates.extend(w.holdout.iter().map(|h| h.surface.clone()));
        let extras: Vec<String> = extractor
            .top(corpus, TermMeasure::LidfValue, 40)
            .into_iter()
            .map(|t| t.surface)
            .collect();
        assert!(candidates.len() > 200, "{lang:?}: {}", candidates.len());

        for scope in [ContextScope::Document, ContextScope::Sentence] {
            for expand_hierarchy in [true, false] {
                let config = LinkerConfig {
                    expand_hierarchy,
                    scope,
                    ..Default::default()
                };
                for extra in [&[][..], &extras[..]] {
                    let what = format!(
                        "{lang:?} {scope:?} expand={expand_hierarchy} extras={}",
                        extra.len()
                    );
                    let mut expected = None;
                    let mut proposed = 0;
                    for threads in [1, 8] {
                        boe_par::set_threads(Some(threads));
                        let linker = SemanticLinker::with_candidates_indexed(
                            corpus,
                            onto,
                            config,
                            extra,
                            Arc::new(OccurrenceIndex::build(corpus)),
                        );
                        let got = boe_par::par_map(&candidates, |c| linker.propose(c));
                        let want = expected.get_or_insert_with(|| {
                            let reference =
                                LinkageOracle::new(corpus, onto, linker.inventory(), config);
                            candidates
                                .iter()
                                .map(|c| reference.propose(c))
                                .collect::<Vec<_>>()
                        });
                        for ((c, g), w) in candidates.iter().zip(&got).zip(want.iter()) {
                            let at = format!("{what} threads={threads}: {c}");
                            assert_same_propositions(g, w, &at);
                        }
                        proposed = got.iter().filter(|p| !p.is_empty()).count();
                    }
                    assert!(
                        proposed * 2 > candidates.len(),
                        "{what}: only {proposed} candidates got propositions — vacuous"
                    );
                }
            }
        }
    }
    boe_par::set_threads(None);
}
