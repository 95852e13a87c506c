//! Re-place held-out "new" terms in a MeSH-like ontology — the paper's
//! §3(ii) scenario end to end, including applying the winning proposition
//! as an actual enrichment edit.
//!
//! ```text
//! cargo run --release --example enrich_ontology
//! ```

use bio_onto_enrich::eval::exp_linkage_case;
use bio_onto_enrich::eval::world::{World, WorldConfig};
use bio_onto_enrich::ontology::edit::{apply, EnrichmentOp};
use bio_onto_enrich::workflow::linkage::{LinkerConfig, SemanticLinker};
use bio_onto_enrich::workflow::termex::candidates::CandidateOptions;
use bio_onto_enrich::workflow::termex::{TermExtractor, TermMeasure};
use std::sync::Arc;

fn main() {
    let world = World::generate(&WorldConfig {
        n_concepts: 150,
        n_holdout: 10,
        abstracts_per_concept: 5,
        ..Default::default()
    });
    println!(
        "world: {} concepts ({} held out), corpus of {} abstracts / {} tokens\n",
        world.full_ontology.len(),
        world.holdout.len(),
        world.corpus.len(),
        world.corpus.token_count()
    );

    // Table-3 style case study for the first held-out term.
    let case = exp_linkage_case::run(&world, 0, 200);
    println!("{}", exp_linkage_case::render(&case));

    // Apply the best concept-bearing proposition as a real edit: add the
    // candidate as a son of the proposed concept.
    let extractor = TermExtractor::new(&world.corpus, CandidateOptions::default());
    let candidates: Vec<String> = extractor
        .top(&world.corpus, TermMeasure::LidfValue, 200)
        .into_iter()
        .map(|t| t.surface)
        .collect();
    let linker = SemanticLinker::with_candidates_indexed(
        &world.corpus,
        &world.reduced_ontology,
        LinkerConfig::default(),
        &candidates,
        Arc::clone(extractor.index()),
    );
    let held = &world.holdout[0];
    let props = linker.propose(&held.surface);
    let Some(best) = props.iter().find(|p| !p.concepts.is_empty()) else {
        println!("no concept-bearing proposition for {:?}", held.surface);
        return;
    };
    let op = EnrichmentOp::AddChild {
        parent: best.concepts[0],
        preferred: held.surface.clone(),
        synonyms: vec![],
    };
    let (enriched, log) = apply(&world.reduced_ontology, &[op]).expect("edit applies");
    println!(
        "applied: added {:?} under {:?} (new concept {}, ontology now {} concepts)",
        held.surface,
        best.term,
        log[0].concept,
        enriched.len()
    );
    assert!(enriched.contains_term(&held.surface));
}
