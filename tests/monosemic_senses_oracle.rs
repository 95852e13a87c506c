//! Step III's k = 1 path against a reference kept in this file.
//!
//! For a term Step II did not flag, [`SenseInducer::induce`] takes its
//! one concept from the sum of the term's contexts; under bag-of-words
//! it reads that sum from the occurrence index's context cache without
//! building one vector per occurrence. The reference here builds every
//! occurrence's context (bag-of-words from scratch with
//! [`context_vector`], graph through [`build_representation`]), repairs
//! the ones the `term.induce` chaos site corrupts, and labels the
//! one-cluster solution with [`induce_concepts`]. Both must agree bit
//! for bit (k, concepts with support and feature bits, assignments,
//! repaired count):
//!
//! * under both representations, at sentence and document scope;
//! * on EN, FR and ES worlds, at 1 and 8 threads, each on a fresh
//!   world and index so the stem map and the context cache are built
//!   under that thread count;
//! * for a term whose every context is empty (one concept, no
//!   features) and a term with no occurrences (no concept);
//! * under a `term.induce` corrupt plan, where corrupted contexts are
//!   left out, and counted as repaired unless they were empty.
//!
//! The tests hold [`GLOBALS`], because the thread count and the chaos
//! plan are process-global and the harness runs the `#[test]`s of one
//! binary concurrently.

use bio_onto_enrich::chaos::{self, ChaosPlan, Corruption, FaultMode};
use bio_onto_enrich::cluster::features::induce_concepts;
use bio_onto_enrich::cluster::ClusterSolution;
use bio_onto_enrich::corpus::context::{context_vector, ContextOptions, ContextScope};
use bio_onto_enrich::corpus::{Corpus, CorpusBuilder, OccurrenceIndex, SparseVector};
use bio_onto_enrich::eval::world::{World, WorldConfig};
use bio_onto_enrich::par as boe_par;
use bio_onto_enrich::textkit::{Language, TokenId};
use bio_onto_enrich::workflow::senses::{
    build_representation, InducedSenses, Representation, SenseInducer, SenseInducerConfig,
};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Held by each test while it sets the thread count or a chaos plan.
static GLOBALS: Mutex<()> = Mutex::new(());

/// Features the inducer keeps per concept.
const TOP_FEATURES: usize = 10;

const SCOPES: [ContextScope; 2] = [ContextScope::Sentence, ContextScope::Document];

fn world(lang: Language) -> World {
    World::generate(&WorldConfig {
        lang,
        n_concepts: 60,
        n_holdout: 8,
        abstracts_per_concept: 3,
        seed: 0x5E45E,
        ..Default::default()
    })
}

/// The terms checked on a world: every ontology surface the corpus
/// holds as a phrase, held-out terms included.
fn world_terms(w: &World) -> Vec<Vec<TokenId>> {
    let mut terms: Vec<Vec<TokenId>> = w
        .full_ontology
        .concepts()
        .iter()
        .flat_map(|c| c.terms())
        .filter_map(|t| w.corpus.phrase_ids(t))
        .collect();
    terms.sort();
    terms.dedup();
    terms
}

/// The `term.induce` verdict for context `i` of `phrase`: the inducer's
/// key is FNV-1a over the token ids, mixed with the context position.
fn corruption(phrase: &[TokenId], i: usize) -> Option<Corruption> {
    let mut h = 0xcbf29ce484222325u64;
    for t in phrase {
        h = (h ^ u64::from(t.0)).wrapping_mul(0x100000001B3);
    }
    let key = h ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
    chaos::corruption(chaos::sites::TERM_INDUCE, key)
}

/// The reference k = 1 result: one context per occurrence, corrupted
/// and repaired as the clustering path does, labelled as one cluster.
fn reference(
    c: &Corpus,
    ox: &OccurrenceIndex,
    phrase: &[TokenId],
    repr: Representation,
    scope: ContextScope,
) -> InducedSenses {
    let opts = ContextOptions {
        window: None,
        stemmed: true,
        scope,
    };
    let mut ctxs: Vec<SparseVector> = match repr {
        Representation::BagOfWords => ox
            .find_occurrences(c, phrase)
            .into_iter()
            .map(|o| context_vector(c, o, phrase.len(), opts))
            .collect(),
        Representation::Graph => build_representation(c, ox, phrase, repr, scope),
    };
    for (i, v) in ctxs.iter_mut().enumerate() {
        match corruption(phrase, i) {
            Some(Corruption::MakeNan) => v.map_values(|_| f64::NAN),
            Some(Corruption::MakeEmpty) => v.map_values(|_| f64::INFINITY),
            None => {}
        }
    }
    let repaired = ctxs
        .iter_mut()
        .map(|v| v.sanitize())
        .filter(|&n| n > 0)
        .count();
    if ctxs.is_empty() {
        return InducedSenses {
            k: 1,
            concepts: Vec::new(),
            assignments: Vec::new(),
            repaired,
        };
    }
    let solution = ClusterSolution::new(vec![0; ctxs.len()], 1);
    InducedSenses {
        k: 1,
        concepts: induce_concepts(&solution, &ctxs, TOP_FEATURES),
        assignments: solution.assignments().to_vec(),
        repaired,
    }
}

/// Everything a k = 1 result holds, feature weights as bit patterns.
fn signature(s: &InducedSenses) -> String {
    let mut out = format!(
        "k={} repaired={} assignments={:?}",
        s.k, s.repaired, s.assignments
    );
    for c in &s.concepts {
        let _ = write!(out, " | cluster={} support={}", c.cluster, c.support);
        for &(d, w) in &c.features {
            let _ = write!(out, " {d}:{:016x}", w.to_bits());
        }
    }
    out
}

/// Checks every term under every representation and scope; returns
/// how many results had a concept and how many contexts were repaired.
fn check(c: &Corpus, terms: &[Vec<TokenId>], what: &str) -> (usize, usize) {
    let ox = Arc::new(OccurrenceIndex::build(c));
    let (mut with_concept, mut repaired) = (0, 0);
    for representation in Representation::ALL {
        for scope in SCOPES {
            let config = SenseInducerConfig {
                representation,
                scope,
                ..Default::default()
            };
            let inducer = SenseInducer::with_index(c, config, Arc::clone(&ox));
            for phrase in terms {
                let got = inducer.induce(phrase, false);
                let want = reference(c, &ox, phrase, representation, scope);
                assert_eq!(
                    signature(&got),
                    signature(&want),
                    "{what}, {representation} at {scope:?}: {phrase:?}"
                );
                with_concept += usize::from(!got.concepts.is_empty());
                repaired += got.repaired;
            }
        }
    }
    (with_concept, repaired)
}

#[test]
fn monosemic_senses_equal_the_one_cluster_reference() {
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    chaos::install(None);
    for lang in Language::ALL {
        for threads in [1, 8] {
            boe_par::set_threads(Some(threads));
            let w = world(lang);
            let terms = world_terms(&w);
            assert!(terms.len() > 20, "{lang}: only {} terms", terms.len());
            let (with_concept, repaired) = check(&w.corpus, &terms, &format!("{lang} {threads}t"));
            assert!(
                with_concept > 20 * 4,
                "{lang}: {with_concept} results had a concept"
            );
            assert_eq!(repaired, 0, "{lang}: repairs without chaos");
        }
    }
    boe_par::set_threads(None);
}

/// Occurrences of "target" in [`target_corpus`].
const TARGETS: usize = 12;

/// "target" once per document, always alone with stopwords and
/// punctuation, so all its contexts are empty at either scope; "alpha
/// gamma" never occurs as a phrase.
fn target_corpus() -> (Corpus, Vec<TokenId>, Vec<TokenId>) {
    let mut b = CorpusBuilder::new(Language::English);
    for i in 0..TARGETS {
        b.add_text(["The target.", "It is the target!", "A target."][i % 3]);
    }
    b.add_text("Alpha beta gamma delta.");
    let c = b.build();
    let target = c.phrase_ids("target").expect("known");
    let absent = c.phrase_ids("alpha gamma").expect("known words");
    (c, target, absent)
}

#[test]
fn empty_contexts_give_one_featureless_concept_and_absent_terms_none() {
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    chaos::install(None);
    let (c, target, absent) = target_corpus();
    for threads in [1, 8] {
        boe_par::set_threads(Some(threads));
        check(
            &c,
            &[target.clone(), absent.clone()],
            &format!("{threads}t"),
        );
        let ox = Arc::new(OccurrenceIndex::build(&c));
        for representation in Representation::ALL {
            for scope in SCOPES {
                let config = SenseInducerConfig {
                    representation,
                    scope,
                    ..Default::default()
                };
                let inducer = SenseInducer::with_index(&c, config, Arc::clone(&ox));
                let empty = inducer.induce(&target, false);
                assert_eq!(empty.k, 1);
                assert_eq!(empty.assignments, vec![0; TARGETS]);
                assert_eq!(empty.concepts.len(), 1, "{representation} at {scope:?}");
                assert_eq!(empty.concepts[0].support, TARGETS);
                assert!(empty.concepts[0].features.is_empty());
                let none = inducer.induce(&absent, false);
                assert_eq!(none.k, 1);
                assert!(none.concepts.is_empty() && none.assignments.is_empty());
            }
        }
    }
    boe_par::set_threads(None);
}

#[test]
fn corrupted_contexts_are_left_out_and_counted_as_repaired() {
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let w = world(Language::English);
    let terms = world_terms(&w);
    let (c, target, absent) = target_corpus();
    let mut plan = ChaosPlan::new(chaos::sites::TERM_INDUCE, FaultMode::Corrupt);
    plan.seed = 0xC0FFEE;
    for threads in [1, 8] {
        boe_par::set_threads(Some(threads));
        chaos::install(Some(plan.clone()));
        let (_, repaired) = check(&w.corpus, &terms, &format!("chaos {threads}t"));
        // A corrupted empty context is no repair.
        let (_, empty_repaired) = check(&c, &[target.clone(), absent.clone()], "chaos, empty");
        let corrupted_empty = (0..TARGETS)
            .filter(|&i| corruption(&target, i).is_some())
            .count();
        chaos::install(None);
        assert!(repaired > 0, "the plan corrupted no context");
        assert!(corrupted_empty > 0, "the plan corrupted no empty context");
        assert_eq!(empty_repaired, 0);
    }
    boe_par::set_threads(None);
}
