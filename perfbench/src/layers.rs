//! The traced run: the pipeline rebuilt from each layer's public
//! functions in `EnrichmentPipeline::run`'s order (Step I -> occurrence
//! index -> Step II training -> Steps III/IV setup -> per-term fan-out),
//! with a span around every call. Nothing inside the library is
//! instrumented; every span is taken from outside, around a call.
//!
//! The rebuild must reproduce the pipeline's report exactly (same
//! digest). A probe after it rebuilds Step II's graph context from its
//! parts, to split the context build into co-occurrence counting and
//! graph building, to time `graph_features` alone on the training rows,
//! and to count the distinct head nodes those rows share.

use crate::stats::median;
use crate::trace::{self_times_ns, Recorder, Span, SpanId};
use crate::workload::{Inputs, Workload};
use boe_core::linkage::SemanticLinker;
use boe_core::polysemy::detector::{FeatureContext, PolysemyDetector};
use boe_core::polysemy::{graph_features, TermGraphContext};
use boe_core::report::{EnrichmentReport, TermReport};
use boe_core::senses::SenseInducer;
use boe_core::termex::TermExtractor;
use boe_core::PipelineConfig;
use boe_corpus::stats::CoocCounts;
use boe_corpus::{Corpus, OccurrenceIndex};
use boe_ontology::Ontology;
use boe_textkit::TokenId;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Root spans: set-up, the pipeline's work, and the probe.
const SETUP: &str = "setup";
const ENRICH: &str = "enrich";
const PROBE: &str = "probe";
/// Parent of the per-term spans.
const FANOUT: &str = "fanout";

/// Spans reported as `<span>_ms`: their self time, summed over the
/// same-named spans of a repetition (so the per-term spans add up to busy
/// time across workers).
const TIMED_SPANS: [&str; 16] = [
    "corpus.ingest",
    "ontology.parse",
    "occurrence.index_build",
    "termex.extract",
    "termex.rank",
    "polysemy.context_build",
    "polysemy.cooc",
    "polysemy.graph_build",
    "polysemy.train_features",
    "polysemy.graph_features",
    "polysemy.fit",
    "polysemy.classify",
    "senses.setup",
    "senses.induce",
    "linkage.setup",
    "linkage.propose",
];

/// Per-layer metrics, reported with `--trace 1`: name and unit.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("corpus.ingest_ms", "ms"),
    ("corpus.docs", "count"),
    ("corpus.tokens", "count"),
    ("ontology.parse_ms", "ms"),
    ("occurrence.index_build_ms", "ms"),
    ("termex.extract_ms", "ms"),
    ("termex.rank_ms", "ms"),
    ("termex.candidates", "count"),
    ("termex.new_terms", "count"),
    ("termex.known_terms", "count"),
    ("polysemy.context_build_ms", "ms"),
    ("polysemy.cooc_ms", "ms"),
    ("polysemy.graph_build_ms", "ms"),
    ("polysemy.train_features_ms", "ms"),
    ("polysemy.graph_features_ms", "ms"),
    ("polysemy.train_rows", "count"),
    ("polysemy.distinct_heads", "count"),
    ("polysemy.head_reuse", "ratio"),
    ("polysemy.max_head_degree", "count"),
    ("polysemy.rows_used_ratio", "ratio"),
    ("polysemy.fit_ms", "ms"),
    ("polysemy.classify_ms", "ms"),
    ("polysemy.flagged", "count"),
    ("senses.setup_ms", "ms"),
    ("senses.induce_ms", "ms"),
    ("senses.multi_sense_terms", "count"),
    ("linkage.setup_ms", "ms"),
    ("linkage.propose_ms", "ms"),
    ("linkage.inventory_terms", "count"),
    ("linkage.propositions", "count"),
    ("fanout.wall_ms", "ms"),
    ("fanout.busy_ms", "ms"),
    ("fanout.idle_ms", "ms"),
    ("fanout.efficiency", "ratio"),
    ("trace.layers_ms", "ms"),
    ("trace.gap_ms", "ms"),
];

/// Deterministic counters of one traced run. They must be equal across
/// repetitions and thread counts, or the run is wrong.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    pub docs: usize,
    pub tokens: usize,
    pub candidates: usize,
    pub new_terms: usize,
    pub known_terms: usize,
    pub train_rows: usize,
    pub positives: usize,
    pub distinct_heads: usize,
    pub max_head_degree: usize,
    pub trained: bool,
    pub flagged: usize,
    pub multi_sense_terms: usize,
    pub inventory_terms: usize,
    pub propositions: usize,
}

/// One traced repetition.
pub struct TracedRun {
    pub report: EnrichmentReport,
    pub counters: Counters,
    pub spans: Vec<Span>,
}

/// Set up and run the pipeline layer by layer under spans, then probe
/// Step II's graph context. Spans share `origin`'s timeline.
pub fn traced_run(w: &Workload, inputs: &Inputs, origin: Instant) -> Result<TracedRun, String> {
    let rec = Recorder::new(origin);
    let cfg = w.pipeline_config();
    let mut c = Counters::default();
    let (corpus, onto) = rec.span(SETUP, None, |at| -> Result<_, String> {
        let onto = rec.span("ontology.parse", Some(at), |_| inputs.parse_ontology())?;
        let corpus = rec.span("corpus.ingest", Some(at), |_| {
            inputs.ingest(onto.language())
        });
        Ok((corpus, onto))
    })?;
    c.docs = corpus.len();
    c.tokens = corpus.token_count();
    let (report, train_phrases) = rec.span(ENRICH, None, |at| {
        enrich(&rec, at, &cfg, &corpus, &onto, &mut c)
    })?;
    rec.span(PROBE, None, |at| {
        probe(&rec, at, &corpus, &train_phrases, &mut c)
    });
    Ok(TracedRun {
        report,
        counters: c,
        spans: rec.into_spans(),
    })
}

/// The pipeline's four steps, called layer by layer; returns the report
/// and the token ids of the Step II training rows.
fn enrich(
    rec: &Recorder,
    at: SpanId,
    cfg: &PipelineConfig,
    corpus: &Corpus,
    onto: &Ontology,
    c: &mut Counters,
) -> Result<(EnrichmentReport, Vec<Vec<TokenId>>), String> {
    let at = Some(at);
    // Step I; candidates already in the ontology are set aside.
    let extractor = rec.span("termex.extract", at, |_| {
        TermExtractor::new(corpus, cfg.candidates)
    });
    let ranked = rec.span("termex.rank", at, |_| {
        extractor.top(corpus, cfg.measure, cfg.top_terms)
    });
    let (known, new_terms): (Vec<_>, Vec<_>) = ranked
        .into_iter()
        .partition(|r| onto.contains_term(&r.surface));
    c.candidates = extractor.candidates().len();
    c.known_terms = known.len();
    c.new_terms = new_terms.len();

    let occ = rec.span("occurrence.index_build", at, |_| {
        Arc::new(OccurrenceIndex::build(corpus))
    });

    // Step II: one training row per ontology term found in the corpus,
    // labelled polysemic iff the term sits on two or more concepts.
    let features = rec.span("polysemy.context_build", at, |_| {
        FeatureContext::build_with_index(corpus, Arc::clone(&occ))
    });
    let (rows, labels, phrases) = rec.span("polysemy.train_features", at, |_| {
        let (mut rows, mut labels, mut phrases) = (Vec::new(), Vec::new(), Vec::new());
        for (surface, concepts) in onto.terms() {
            let Some(tokens) = corpus.phrase_ids(surface) else {
                continue;
            };
            if !occ.contains(corpus, &tokens) {
                continue;
            }
            rows.push(features.features(&tokens, surface));
            labels.push(concepts.len() >= 2);
            phrases.push(tokens);
        }
        (rows, labels, phrases)
    });
    c.train_rows = rows.len();
    c.positives = labels.iter().filter(|&&l| l).count();
    let detector = rec.span("polysemy.fit", at, |_| {
        // The pipeline's class-balance rule: both classes, at least 4 rows.
        let pos = labels.iter().filter(|&&l| l).count();
        let trainable = pos > 0 && pos < labels.len() && labels.len() >= 4;
        trainable.then(|| PolysemyDetector::train(cfg.polysemy_model, rows, labels))
    });
    c.trained = detector.is_some();

    // Steps III/IV setup, shared by every term.
    let inducer = rec.span("senses.setup", at, |_| {
        SenseInducer::with_index(corpus, cfg.senses, Arc::clone(&occ))
    });
    let linker = rec.span("linkage.setup", at, |_| {
        SemanticLinker::with_candidates_indexed(corpus, onto, cfg.linker, &[], Arc::clone(&occ))
    });
    c.inventory_terms = linker.inventory().len();

    // Steps II-IV per term, fanned out on boe-par as the pipeline does.
    let terms = rec.span(FANOUT, at, |fan| {
        let fan = Some(fan);
        boe_par::par_map(&new_terms, |r| {
            let tokens = corpus.phrase_ids(&r.surface)?;
            let polysemic = rec.span("polysemy.classify", fan, |_| {
                detector
                    .as_ref()
                    .is_some_and(|d| d.is_polysemic(&features.features(&tokens, &r.surface)))
            });
            let senses = rec.span("senses.induce", fan, |_| inducer.induce(&tokens, polysemic));
            let propositions = rec.span("linkage.propose", fan, |_| linker.propose(&r.surface));
            Some(TermReport {
                surface: r.surface.clone(),
                term_score: r.score,
                polysemic,
                senses,
                propositions,
                truncated: false,
            })
        })
    });
    let terms: Vec<TermReport> = terms
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("a candidate's tokens are missing from the corpus vocabulary")?;
    if let Some(t) = terms.iter().find(|t| t.senses.repaired > 0) {
        return Err(format!("{:?}: context vectors needed repair", t.surface));
    }
    c.flagged = terms.iter().filter(|t| t.polysemic).count();
    c.multi_sense_terms = terms.iter().filter(|t| t.senses.k >= 2).count();
    c.propositions = terms.iter().map(|t| t.propositions.len()).sum();
    let report = EnrichmentReport {
        terms,
        already_known: known.into_iter().map(|r| r.surface).collect(),
        diagnostics: Default::default(),
    };
    Ok((report, phrases))
}

/// Step II's graph context rebuilt from its parts, with the parameters
/// `FeatureContext::build_with_index` uses (a 5-token co-occurrence
/// window, edges of count >= 1), then `graph_features` alone on the
/// training rows.
fn probe(rec: &Recorder, at: SpanId, corpus: &Corpus, phrases: &[Vec<TokenId>], c: &mut Counters) {
    let at = Some(at);
    let cooc = rec.span("polysemy.cooc", at, |_| CoocCounts::from_corpus(corpus, 5));
    let graph = rec.span("polysemy.graph_build", at, |_| {
        TermGraphContext::build(corpus, &cooc, 1)
    });
    rec.span("polysemy.graph_features", at, |_| {
        for p in phrases {
            black_box(graph_features(&graph, p));
        }
    });
    // The head node graph_features analyses: the phrase's word of highest
    // degree.
    let g = graph.graph();
    let heads: BTreeSet<_> = phrases
        .iter()
        .filter_map(|p| {
            p.iter()
                .filter_map(|&t| graph.node(t))
                .max_by_key(|&n| g.degree(n))
        })
        .collect();
    c.distinct_heads = heads.len();
    c.max_head_degree = heads.iter().map(|&n| g.degree(n)).max().unwrap_or(0);
}

/// Times of one traced repetition, from its spans.
struct LayerTimes {
    /// Self time per span name (roots excluded), summed over same-named
    /// spans, ms.
    self_ms: BTreeMap<&'static str, f64>,
    fanout_wall_ms: f64,
    /// Sum of the per-term spans' durations across workers.
    fanout_busy_ms: f64,
    /// The part of the enrich span its layer spans cover, on the wall
    /// clock.
    layers_ms: f64,
}

impl LayerTimes {
    fn of(spans: &[Span]) -> Self {
        let self_ns = self_times_ns(spans);
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut t = LayerTimes {
            self_ms: BTreeMap::new(),
            fanout_wall_ms: 0.0,
            fanout_busy_ms: 0.0,
            layers_ms: 0.0,
        };
        for (s, &own) in spans.iter().zip(&self_ns) {
            match s.name {
                ENRICH => t.layers_ms = ms(s.duration_ns() - own),
                FANOUT => t.fanout_wall_ms = ms(s.duration_ns()),
                _ => {}
            }
            let Some(p) = s.parent else { continue };
            *t.self_ms.entry(s.name).or_insert(0.0) += ms(own);
            if spans[p].name == FANOUT {
                t.fanout_busy_ms += ms(s.duration_ns());
            }
        }
        t
    }

    fn self_ms(&self, span: &str) -> f64 {
        self.self_ms.get(span).copied().unwrap_or(0.0)
    }
}

/// The per-layer metrics over the repetitions (medians of times; the
/// counters are equal in every repetition). `threads` is the fan-out's
/// worker count and `enrich_ms` the untraced `enrich_s` median, in ms.
pub fn per_layer(reps: &[TracedRun], threads: usize, enrich_ms: f64) -> BTreeMap<String, f64> {
    let times: Vec<LayerTimes> = reps.iter().map(|r| LayerTimes::of(&r.spans)).collect();
    let med = |f: &dyn Fn(&LayerTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let lanes = threads as f64;
    let mut v = BTreeMap::new();
    for span in TIMED_SPANS {
        v.insert(format!("{span}_ms"), med(&|t: &LayerTimes| t.self_ms(span)));
    }
    v.insert(
        "fanout.wall_ms".into(),
        med(&|t: &LayerTimes| t.fanout_wall_ms),
    );
    v.insert(
        "fanout.busy_ms".into(),
        med(&|t: &LayerTimes| t.fanout_busy_ms),
    );
    v.insert(
        "fanout.idle_ms".into(),
        med(&|t: &LayerTimes| lanes * t.fanout_wall_ms - t.fanout_busy_ms),
    );
    v.insert(
        "fanout.efficiency".into(),
        med(&|t: &LayerTimes| t.fanout_busy_ms / (lanes * t.fanout_wall_ms)),
    );
    let layers_ms = med(&|t: &LayerTimes| t.layers_ms);
    v.insert("trace.layers_ms".into(), layers_ms);
    // What no layer span explains, plus the tracing overhead.
    v.insert("trace.gap_ms".into(), enrich_ms - layers_ms);

    let c = &reps[0].counters;
    for (name, n) in [
        ("corpus.docs", c.docs),
        ("corpus.tokens", c.tokens),
        ("termex.candidates", c.candidates),
        ("termex.new_terms", c.new_terms),
        ("termex.known_terms", c.known_terms),
        ("polysemy.train_rows", c.train_rows),
        ("polysemy.distinct_heads", c.distinct_heads),
        ("polysemy.max_head_degree", c.max_head_degree),
        ("polysemy.flagged", c.flagged),
        ("senses.multi_sense_terms", c.multi_sense_terms),
        ("linkage.inventory_terms", c.inventory_terms),
        ("linkage.propositions", c.propositions),
    ] {
        v.insert(name.into(), n as f64);
    }
    // Rows per distinct head node: the ceiling on what a per-head memo
    // of the graph features can save.
    let reuse = if c.distinct_heads == 0 {
        0.0
    } else {
        c.train_rows as f64 / c.distinct_heads as f64
    };
    v.insert("polysemy.head_reuse".into(), reuse);
    // 1 when the detector trains on the rows, 0 when they are discarded.
    v.insert(
        "polysemy.rows_used_ratio".into(),
        if c.trained { 1.0 } else { 0.0 },
    );
    v
}

/// Median self time per span name over the repetitions, largest first.
pub fn median_self_ms(reps: &[TracedRun]) -> Vec<(&'static str, f64)> {
    let times: Vec<LayerTimes> = reps.iter().map(|r| LayerTimes::of(&r.spans)).collect();
    let mut out: Vec<(&'static str, f64)> = times[0]
        .self_ms
        .keys()
        .map(|&name| {
            let xs: Vec<f64> = times.iter().map(|t| t.self_ms(name)).collect();
            (name, median(&xs))
        })
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::report_digest;
    use boe_core::EnrichmentPipeline;

    #[test]
    fn layer_times_split_wall_busy_and_self() {
        let s = |name, parent, start_ns, end_ns| Span {
            name,
            parent,
            tid: 1,
            start_ns,
            end_ns,
        };
        let spans = vec![
            s(ENRICH, None, 0, 10_000_000),
            s("termex.extract", Some(0), 0, 2_000_000),
            s(FANOUT, Some(0), 3_000_000, 9_000_000),
            s("senses.induce", Some(2), 3_000_000, 8_000_000),
            s("senses.induce", Some(2), 3_500_000, 9_000_000),
        ];
        let t = LayerTimes::of(&spans);
        assert_eq!(t.fanout_wall_ms, 6.0);
        assert_eq!(t.fanout_busy_ms, 10.5);
        assert_eq!(t.layers_ms, 8.0);
        assert_eq!(t.self_ms("senses.induce"), 10.5);
        assert_eq!(t.self_ms(FANOUT), 0.0);
        assert_eq!(t.self_ms(ENRICH), 0.0, "roots are not layers");
    }

    #[test]
    fn traced_rebuild_reproduces_the_pipeline_at_one_and_two_threads() {
        for trains in [true, false] {
            let w = crate::workload::tiny(trains);
            let inputs = Inputs::generate(&w, 5);
            let (corpus, onto) = inputs.setup().expect("generated inputs parse");
            let piped = EnrichmentPipeline::new(w.pipeline_config())
                .run(&corpus, &onto)
                .expect("pipeline runs");
            for threads in [1, 2] {
                boe_par::set_threads(Some(threads));
                let traced = traced_run(&w, &inputs, Instant::now()).expect("traced run");
                assert_eq!(
                    report_digest(&traced.report),
                    report_digest(&piped),
                    "trains {trains}, {threads} thread(s)"
                );
                assert_eq!(traced.counters.trained, trains);
                let per_layer = per_layer(&[traced], threads, 1.0);
                for (name, _) in PER_LAYER {
                    assert!(per_layer.contains_key(name), "{name}");
                }
            }
            boe_par::set_threads(None);
        }
    }
}
