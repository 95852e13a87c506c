//! Experiment E3 — §3(i): prediction of the sense number.
//!
//! The paper clusters each MSH-WSD entity's contexts for k ∈ \[2,5\] with
//! five CLUTO algorithms under two corpus representations, scores each k
//! with the Table-2 indexes, and reports accuracy of the predicted k
//! (best: 93.1% with max(f_k)). This experiment regenerates the full
//! accuracy matrix on the MSH-WSD-like dataset, plus the majority-k=2
//! baseline the skewed sense distribution implies.

use crate::table::{pct, Table};
use boe_cluster::{Algorithm, InternalIndex, KSweep, UnitVectors};
use boe_core::senses::{build_representation, Representation};
use boe_corpus::context::ContextScope;
use boe_corpus::occurrence::OccurrenceIndex;
use boe_corpus::synth::mshwsd::{AmbiguousEntity, MshWsdConfig, MshWsdDataset};
use boe_textkit::Language;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct SenseNumberConfig {
    /// MSH-WSD-like generator parameters.
    pub dataset: MshWsdConfig,
    /// Cap on contexts per entity (keeps agglo/graph tractable; MSH WSD
    /// itself has ~100 per sense).
    pub max_contexts: usize,
    /// Algorithms to sweep.
    pub algorithms: Vec<Algorithm>,
    /// Representations to sweep.
    pub representations: Vec<Representation>,
    /// Indexes to evaluate.
    pub indexes: Vec<InternalIndex>,
    /// Clustering seed.
    pub seed: u64,
}

impl Default for SenseNumberConfig {
    fn default() -> Self {
        SenseNumberConfig {
            dataset: MshWsdConfig::default(),
            max_contexts: 120,
            algorithms: Algorithm::ALL.to_vec(),
            representations: Representation::ALL.to_vec(),
            indexes: InternalIndex::ALL.to_vec(),
            seed: 7,
        }
    }
}

impl SenseNumberConfig {
    /// A scaled-down configuration that finishes quickly in debug builds.
    pub fn quick() -> Self {
        SenseNumberConfig {
            dataset: MshWsdConfig {
                n_entities: 24,
                snippets_per_sense: 25,
                ..Default::default()
            },
            max_contexts: 60,
            algorithms: vec![Algorithm::Direct, Algorithm::Rbr],
            representations: Representation::ALL.to_vec(),
            indexes: InternalIndex::ALL.to_vec(),
            seed: 7,
        }
    }
}

/// One cell of the accuracy matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyCell {
    /// Clustering algorithm.
    pub algorithm: Algorithm,
    /// Corpus representation.
    pub representation: Representation,
    /// Internal index.
    pub index: InternalIndex,
    /// Fraction of entities whose k was predicted exactly.
    pub accuracy: f64,
}

/// The experiment result.
#[derive(Debug, Clone)]
pub struct SenseNumberResult {
    /// Every (algorithm × representation × index) cell.
    pub cells: Vec<AccuracyCell>,
    /// Accuracy of always predicting k = 2 (the skew baseline).
    pub majority_baseline: f64,
    /// Number of entities evaluated.
    pub n_entities: usize,
}

impl SenseNumberResult {
    /// The best cell.
    pub fn best(&self) -> &AccuracyCell {
        self.cells
            .iter()
            .max_by(|a, b| {
                a.accuracy
                    .partial_cmp(&b.accuracy)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("nonempty matrix")
    }

    /// Best accuracy for one index across algorithms/representations.
    pub fn best_for_index(&self, index: InternalIndex) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.index == index)
            .map(|c| c.accuracy)
            .fold(0.0, f64::max)
    }
}

/// The MSH-WSD-like dataset of a configuration and its occurrence index,
/// built once and shared by [`run`] and [`clustering_quality`].
#[derive(Debug)]
pub struct SenseNumberData {
    data: MshWsdDataset,
    occ: OccurrenceIndex,
}

impl SenseNumberData {
    /// Generate `config.dataset` (in English) and index its corpus.
    pub fn generate(config: &SenseNumberConfig) -> Self {
        let data = MshWsdDataset::generate(Language::English, &config.dataset);
        let occ = OccurrenceIndex::build(&data.corpus);
        SenseNumberData { data, occ }
    }

    /// `entity`'s contexts under `repr` as one unit set for every
    /// algorithm and index, and the gold sense of each. Contexts arrive
    /// in snippet order, grouped by sense, so plain truncation would
    /// drop whole senses: above `max_contexts` both are subsampled with
    /// one even stride.
    fn contexts(
        &self,
        entity: &AmbiguousEntity,
        repr: Representation,
        max_contexts: usize,
    ) -> (UnitVectors, Vec<usize>) {
        let corpus = &self.data.corpus;
        let surface = corpus.vocab().get(entity.surface_text());
        let surface = surface.expect("entity surface interned");
        let all = build_representation(corpus, &self.occ, &[surface], repr, ContextScope::Document);
        assert_eq!(all.len(), entity.snippets.len(), "one context per snippet");
        let stride = (all.len() as f64 / max_contexts as f64).max(1.0);
        let kept: Vec<usize> = (0..all.len().min(max_contexts))
            .map(|i| (i as f64 * stride) as usize)
            .collect();
        let gold = kept.iter().map(|&j| entity.snippets[j].1).collect();
        (UnitVectors::new(kept.iter().map(|&j| &all[j])), gold)
    }
}

/// Run the experiment on `data`, generated from `config`.
pub fn run(config: &SenseNumberConfig, data: &SenseNumberData) -> SenseNumberResult {
    let entities = &data.data.entities;
    let n = entities.len();
    let majority = entities.iter().filter(|e| e.k == 2).count() as f64 / n as f64;

    // Per entity × representation: one unit set, one similarity matrix
    // at most, shared by every algorithm and index.
    let mut correct: std::collections::HashMap<(usize, usize, usize), usize> =
        std::collections::HashMap::new();
    for entity in entities {
        for (ri, &repr) in config.representations.iter().enumerate() {
            let (unit, _) = data.contexts(entity, repr, config.max_contexts);
            for (ai, &alg) in config.algorithms.iter().enumerate() {
                // Cluster once per k; score every index on the same
                // solutions.
                let Some(sweep) = KSweep::run(&unit, alg, (2, 5), config.seed) else {
                    continue;
                };
                for (ii, &index) in config.indexes.iter().enumerate() {
                    if sweep.predict(index).k == entity.k {
                        *correct.entry((ai, ri, ii)).or_insert(0) += 1;
                    }
                }
            }
        }
    }
    let mut cells = Vec::new();
    for (ai, &alg) in config.algorithms.iter().enumerate() {
        for (ri, &repr) in config.representations.iter().enumerate() {
            for (ii, &index) in config.indexes.iter().enumerate() {
                let c = correct.get(&(ai, ri, ii)).copied().unwrap_or(0);
                cells.push(AccuracyCell {
                    algorithm: alg,
                    representation: repr,
                    index,
                    accuracy: c as f64 / n as f64,
                });
            }
        }
    }
    SenseNumberResult {
        cells,
        majority_baseline: majority,
        n_entities: n,
    }
}

/// External clustering quality at the *gold* k: how well do the produced
/// clusters match the gold senses? Reports mean purity / NMI / adjusted
/// Rand over all entities for one algorithm × representation (sanity
/// check of the clustering substrate; uses `boe_cluster::external`), on
/// `data`, generated from `config`.
pub fn clustering_quality(
    config: &SenseNumberConfig,
    data: &SenseNumberData,
    algorithm: Algorithm,
    representation: Representation,
) -> (f64, f64, f64) {
    let mut sums = (0.0, 0.0, 0.0);
    let mut n = 0usize;
    for entity in &data.data.entities {
        let (unit, gold) = data.contexts(entity, representation, config.max_contexts);
        if unit.len() < entity.k {
            continue;
        }
        let sol = algorithm.cluster(&unit, entity.k, config.seed);
        sums.0 += boe_cluster::external::purity(&sol, &gold);
        sums.1 += boe_cluster::external::nmi(&sol, &gold);
        sums.2 += boe_cluster::external::adjusted_rand(&sol, &gold);
        n += 1;
    }
    let nf = n.max(1) as f64;
    (sums.0 / nf, sums.1 / nf, sums.2 / nf)
}

/// Render the accuracy matrix (rows: algorithm × representation, columns:
/// indexes).
pub fn render(config: &SenseNumberConfig, result: &SenseNumberResult) -> String {
    let mut header: Vec<String> = vec!["algorithm".into(), "repr".into()];
    header.extend(config.indexes.iter().map(|i| i.name().to_owned()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    for &alg in &config.algorithms {
        for &repr in &config.representations {
            let mut row = vec![alg.name().to_owned(), repr.name().to_owned()];
            for &index in &config.indexes {
                let cell = result
                    .cells
                    .iter()
                    .find(|c| c.algorithm == alg && c.representation == repr && c.index == index)
                    .expect("cell exists");
                row.push(pct(cell.accuracy));
            }
            t.row(row);
        }
    }
    let best = result.best();
    format!(
        "Sense-number prediction accuracy over {} entities (paper: 93.1% with max(fk))\n{}\nmajority (always k=2) baseline: {}\nbest: {} with {} / {} / {}\n",
        result.n_entities,
        t.render(),
        pct(result.majority_baseline),
        pct(best.accuracy),
        best.index.name(),
        best.algorithm.name(),
        best.representation.name(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (SenseNumberConfig, SenseNumberResult) {
        let cfg = SenseNumberConfig {
            dataset: MshWsdConfig {
                n_entities: 10,
                snippets_per_sense: 12,
                ..Default::default()
            },
            max_contexts: 40,
            algorithms: vec![Algorithm::Direct],
            representations: vec![Representation::BagOfWords],
            indexes: vec![InternalIndex::Ek, InternalIndex::Fk],
            seed: 3,
        };
        let res = run(&cfg, &SenseNumberData::generate(&cfg));
        (cfg, res)
    }

    #[test]
    fn matrix_is_complete_and_bounded() {
        let (cfg, res) = tiny();
        assert_eq!(
            res.cells.len(),
            cfg.algorithms.len() * cfg.representations.len() * cfg.indexes.len()
        );
        for c in &res.cells {
            assert!((0.0..=1.0).contains(&c.accuracy));
        }
        assert_eq!(res.n_entities, 10);
    }

    #[test]
    fn ek_beats_majority_baseline() {
        let (_, res) = tiny();
        let ek = res.best_for_index(InternalIndex::Ek);
        assert!(
            ek >= res.majority_baseline,
            "ek {} < baseline {}",
            ek,
            res.majority_baseline
        );
        assert!(ek > 0.7, "ek accuracy {ek}");
    }

    #[test]
    fn clustering_quality_is_high_at_gold_k() {
        let cfg = SenseNumberConfig {
            dataset: MshWsdConfig {
                n_entities: 8,
                snippets_per_sense: 15,
                ..Default::default()
            },
            max_contexts: 40,
            algorithms: vec![Algorithm::Direct],
            representations: vec![Representation::BagOfWords],
            indexes: vec![InternalIndex::Ek],
            seed: 3,
        };
        let data = SenseNumberData::generate(&cfg);
        let (purity, nmi, ari) =
            clustering_quality(&cfg, &data, Algorithm::Direct, Representation::BagOfWords);
        assert!(purity > 0.85, "purity {purity}");
        assert!(nmi > 0.7, "nmi {nmi}");
        assert!(ari > 0.7, "ari {ari}");
    }

    #[test]
    fn render_mentions_best_cell() {
        let (cfg, res) = tiny();
        let s = render(&cfg, &res);
        assert!(s.contains("majority"));
        assert!(s.contains("direct"));
        assert!(s.contains("max(ek)"));
    }
}
