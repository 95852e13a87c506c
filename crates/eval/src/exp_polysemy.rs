//! Experiment E4 — §2(II): polysemy detection with 23 features.
//!
//! Builds a balanced labelled term set from a synthetic corpus (polysemic
//! terms genuinely occur in k ≥ 2 disjoint context families, monosemic in
//! one), extracts the 23 features, and reports stratified 10-fold CV
//! precision/recall/F-measure per classifier family — the paper reports
//! an overall F-measure of 98%. An ablation compares direct-only,
//! graph-only and full feature sets.

use crate::table::{f3, Table};
use boe_core::polysemy::detector::{FeatureContext, PolysemyModel};
use boe_corpus::corpus::CorpusBuilder;
use boe_corpus::synth::topic::{AbstractGenerator, ConceptProfile};
use boe_corpus::synth::vocabgen::LexiconPools;
use boe_corpus::Corpus;
use boe_ml::dataset::Dataset;
use boe_ml::eval::{cross_validate, Confusion};
use boe_rng::StdRng;
use boe_textkit::pos::PosTag;
use boe_textkit::Language;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct PolysemyExpConfig {
    /// Number of polysemic terms (and equally many monosemic).
    pub n_terms_per_class: usize,
    /// Context snippets per sense.
    pub snippets_per_sense: usize,
    /// CV folds.
    pub folds: usize,
    /// Classifier families to evaluate.
    pub models: Vec<PolysemyModel>,
    /// Seed.
    pub seed: u64,
}

impl Default for PolysemyExpConfig {
    fn default() -> Self {
        PolysemyExpConfig {
            n_terms_per_class: 60,
            snippets_per_sense: 20,
            folds: 10,
            models: PolysemyModel::ALL.to_vec(),
            seed: 0xF00D,
        }
    }
}

impl PolysemyExpConfig {
    /// A scaled-down configuration for debug builds.
    pub fn quick() -> Self {
        PolysemyExpConfig {
            n_terms_per_class: 20,
            snippets_per_sense: 10,
            folds: 5,
            models: vec![PolysemyModel::Forest, PolysemyModel::LogReg],
            seed: 0xF00D,
        }
    }
}

/// Which feature subset to use (ablation A-features).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSubset {
    /// Only the 11 direct features.
    DirectOnly,
    /// Only the 12 graph features.
    GraphOnly,
    /// All 23.
    All,
}

impl FeatureSubset {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FeatureSubset::DirectOnly => "direct-11",
            FeatureSubset::GraphOnly => "graph-12",
            FeatureSubset::All => "all-23",
        }
    }

    fn select(self, full: &[f64]) -> Vec<f64> {
        match self {
            FeatureSubset::DirectOnly => full[..11].to_vec(),
            FeatureSubset::GraphOnly => full[11..].to_vec(),
            FeatureSubset::All => full.to_vec(),
        }
    }
}

/// The labelled term set: corpus + (surface, is_polysemic) pairs.
pub fn generate_term_set(config: &PolysemyExpConfig) -> (Corpus, Vec<(String, bool)>) {
    let lang = Language::English;
    let pools = LexiconPools::generate(lang);
    let generator = AbstractGenerator::new(lang);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut builder = CorpusBuilder::new(lang);
    let mut terms = Vec::new();
    for i in 0..config.n_terms_per_class {
        // Polysemic term: two sense profiles sharing one surface.
        let poly_surface = format!("polyx{i}gram");
        for sense in 0..2 {
            let mut p = ConceptProfile::with_exclusive_pools(
                i * 3 + sense,
                i * 3 + sense,
                vec![(poly_surface.clone(), PosTag::Noun)],
                &pools,
                10,
                5,
            );
            p.mention = vec![(poly_surface.clone(), PosTag::Noun)];
            for _ in 0..config.snippets_per_sense {
                let n = rng.gen_range(1..=2);
                let mut sents = vec![generator.sentence(&mut rng, &p, Some(&p.mention))];
                for _ in 1..n {
                    sents.push(generator.sentence(&mut rng, &p, None));
                }
                builder.add_tokenized(sents);
            }
        }
        terms.push((poly_surface, true));
        // Monosemic term: one profile, twice the snippets (same total
        // frequency as the polysemic terms, so frequency alone cannot
        // separate the classes).
        let mono_surface = format!("monox{i}gram");
        let mut p = ConceptProfile::with_exclusive_pools(
            i * 3 + 2,
            i * 3 + 2,
            vec![(mono_surface.clone(), PosTag::Noun)],
            &pools,
            10,
            5,
        );
        p.mention = vec![(mono_surface.clone(), PosTag::Noun)];
        for _ in 0..2 * config.snippets_per_sense {
            let n = rng.gen_range(1..=2);
            let mut sents = vec![generator.sentence(&mut rng, &p, Some(&p.mention))];
            for _ in 1..n {
                sents.push(generator.sentence(&mut rng, &p, None));
            }
            builder.add_tokenized(sents);
        }
        terms.push((mono_surface, false));
    }
    (builder.build(), terms)
}

/// One model's cross-validated result.
#[derive(Debug, Clone)]
pub struct ModelResult {
    /// The classifier family.
    pub model: PolysemyModel,
    /// Feature subset used.
    pub subset: FeatureSubset,
    /// Pooled CV confusion matrix.
    pub confusion: Confusion,
}

/// Run the experiment for the given subset.
pub fn run_subset(config: &PolysemyExpConfig, subset: FeatureSubset) -> Vec<ModelResult> {
    let (corpus, terms) = generate_term_set(config);
    let features = FeatureContext::build(&corpus);
    let rows: Vec<Vec<f64>> = terms
        .iter()
        .map(|(t, _)| {
            let ids = corpus.phrase_ids(t).expect("term interned");
            subset.select(&features.features(&ids, t))
        })
        .collect();
    let labels: Vec<bool> = terms.iter().map(|(_, l)| *l).collect();
    let data = Dataset::new(rows, labels);
    let scaler = boe_ml::scale::StandardScaler::fit(&data);
    let scaled = scaler.transform(&data);
    config
        .models
        .iter()
        .map(|&model| ModelResult {
            model,
            subset,
            confusion: cross_validate(&scaled, config.folds, || model.build()),
        })
        .collect()
}

/// Run with all 23 features (the paper's setting).
pub fn run(config: &PolysemyExpConfig) -> Vec<ModelResult> {
    run_subset(config, FeatureSubset::All)
}

/// Best F-measure across models.
pub fn best_f1(results: &[ModelResult]) -> f64 {
    results.iter().map(|r| r.confusion.f1()).fold(0.0, f64::max)
}

/// Render per-model P/R/F1.
pub fn render(results: &[ModelResult]) -> String {
    format!(
        "Polysemy detection, stratified CV (paper: F-measure 98%)\n{}\nbest F-measure: {}\n",
        render_rows(results),
        f3(best_f1(results))
    )
}

/// The P/R/F1 table alone, one row per result (model and feature set).
pub fn render_rows(results: &[ModelResult]) -> String {
    let mut t = Table::new(&["model", "features", "precision", "recall", "F-measure"]);
    for r in results {
        t.row(vec![
            r.model.name().to_owned(),
            r.subset.name().to_owned(),
            f3(r.confusion.precision()),
            f3(r.confusion.recall()),
            f3(r.confusion.f1()),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_reaches_high_f_measure() {
        let cfg = PolysemyExpConfig::quick();
        let results = run(&cfg);
        let best = best_f1(&results);
        assert!(best > 0.85, "best F1 {best}");
    }

    #[test]
    fn full_features_beat_or_match_single_families() {
        let cfg = PolysemyExpConfig {
            n_terms_per_class: 16,
            snippets_per_sense: 8,
            folds: 4,
            models: vec![PolysemyModel::Forest],
            seed: 5,
        };
        let all = best_f1(&run_subset(&cfg, FeatureSubset::All));
        let direct = best_f1(&run_subset(&cfg, FeatureSubset::DirectOnly));
        let graph = best_f1(&run_subset(&cfg, FeatureSubset::GraphOnly));
        assert!(all + 0.1 >= direct, "all {all} vs direct {direct}");
        assert!(all + 0.1 >= graph, "all {all} vs graph {graph}");
    }

    #[test]
    fn term_set_is_balanced_and_interned() {
        let cfg = PolysemyExpConfig::quick();
        let (corpus, terms) = generate_term_set(&cfg);
        let pos = terms.iter().filter(|(_, l)| *l).count();
        assert_eq!(pos * 2, terms.len());
        for (t, _) in &terms {
            assert!(corpus.phrase_ids(t).is_some(), "{t} missing");
        }
    }

    #[test]
    fn render_lists_models() {
        let cfg = PolysemyExpConfig::quick();
        let results = run(&cfg);
        let s = render(&results);
        assert!(s.contains("F-measure"));
        assert!(s.contains("forest"));
    }
}
