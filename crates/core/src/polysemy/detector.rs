//! The polysemy detector: 23 features → binary classifier.

use crate::polysemy::direct_features::direct_features;
use crate::polysemy::graph_features::{graph_features, TermGraphContext};
use crate::polysemy::N_FEATURES;
use boe_corpus::occurrence::OccurrenceIndex;
use boe_corpus::stats::CoocCounts;
use boe_corpus::Corpus;
use boe_ml::boost::AdaBoost;
use boe_ml::dataset::Dataset;
use boe_ml::forest::RandomForest;
use boe_ml::knn::KNearest;
use boe_ml::logreg::LogisticRegression;
use boe_ml::model::Classifier;
use boe_ml::naive_bayes::GaussianNb;
use boe_ml::scale::StandardScaler;
use boe_ml::svm::LinearSvm;
use boe_ml::tree::DecisionTree;
use boe_textkit::TokenId;
use std::sync::Arc;

/// The classifier families the paper tries ("several machine learning
/// algorithms").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolysemyModel {
    /// Logistic regression.
    LogReg,
    /// Gaussian naive Bayes.
    NaiveBayes,
    /// CART decision tree.
    Tree,
    /// Random forest.
    Forest,
    /// k-nearest neighbours (k = 5).
    Knn,
    /// Linear SVM (Pegasos).
    Svm,
    /// AdaBoost over decision stumps.
    Boost,
}

impl PolysemyModel {
    /// All model families.
    pub const ALL: [PolysemyModel; 7] = [
        PolysemyModel::LogReg,
        PolysemyModel::NaiveBayes,
        PolysemyModel::Tree,
        PolysemyModel::Forest,
        PolysemyModel::Knn,
        PolysemyModel::Svm,
        PolysemyModel::Boost,
    ];

    /// Instantiate an unfitted classifier.
    pub fn build(self) -> Box<dyn Classifier> {
        match self {
            PolysemyModel::LogReg => Box::new(LogisticRegression::new()),
            PolysemyModel::NaiveBayes => Box::new(GaussianNb::new()),
            PolysemyModel::Tree => Box::new(DecisionTree::new()),
            PolysemyModel::Forest => Box::new(RandomForest::new()),
            PolysemyModel::Knn => Box::new(KNearest::new(5)),
            PolysemyModel::Svm => Box::new(LinearSvm::new()),
            PolysemyModel::Boost => Box::new(AdaBoost::new()),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PolysemyModel::LogReg => "logreg",
            PolysemyModel::NaiveBayes => "naive-bayes",
            PolysemyModel::Tree => "tree",
            PolysemyModel::Forest => "forest",
            PolysemyModel::Knn => "knn",
            PolysemyModel::Svm => "svm",
            PolysemyModel::Boost => "adaboost",
        }
    }
}

impl std::fmt::Display for PolysemyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Feature extraction context bundling the shared corpus analyses.
#[derive(Debug)]
pub struct FeatureContext<'c> {
    corpus: &'c Corpus,
    occ: Arc<OccurrenceIndex>,
    cooc: CoocCounts,
    graph: TermGraphContext,
}

impl<'c> FeatureContext<'c> {
    /// Build the shared analyses once for a corpus (indexes it in the
    /// process).
    pub fn build(corpus: &'c Corpus) -> Self {
        Self::build_with_index(corpus, Arc::new(OccurrenceIndex::build(corpus)))
    }

    /// Build the shared analyses, resolving occurrences through a shared
    /// [`OccurrenceIndex`] (one per pipeline run).
    pub fn build_with_index(corpus: &'c Corpus, occ: Arc<OccurrenceIndex>) -> Self {
        let cooc = CoocCounts::from_corpus(corpus, 5);
        let graph = TermGraphContext::build(corpus, &cooc, 1);
        FeatureContext {
            corpus,
            occ,
            cooc,
            graph,
        }
    }

    /// The induced word graph the 12 graph features come from.
    pub(crate) fn graph(&self) -> &TermGraphContext {
        &self.graph
    }

    /// The full 23-feature vector of one term.
    pub fn features(&self, phrase: &[TokenId], surface: &str) -> Vec<f64> {
        let d = direct_features(self.corpus, &self.occ, &self.cooc, phrase, surface);
        let g = graph_features(&self.graph, phrase);
        let mut out = Vec::with_capacity(N_FEATURES);
        out.extend_from_slice(&d);
        out.extend_from_slice(&g);
        out
    }
}

/// A trained polysemy detector (scaler + classifier).
pub struct PolysemyDetector {
    scaler: StandardScaler,
    model: Box<dyn Classifier>,
}

impl std::fmt::Debug for PolysemyDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolysemyDetector")
            .field("model", &self.model.name())
            .finish()
    }
}

impl PolysemyDetector {
    /// Train on labelled `(features, is_polysemic)` rows.
    pub fn train(model: PolysemyModel, rows: Vec<Vec<f64>>, labels: Vec<bool>) -> Self {
        let data = Dataset::new(rows, labels);
        let scaler = StandardScaler::fit(&data);
        let scaled = scaler.transform(&data);
        let mut classifier = model.build();
        classifier.fit(&scaled);
        PolysemyDetector {
            scaler,
            model: classifier,
        }
    }

    /// Is the term with this feature vector polysemic?
    pub fn is_polysemic(&self, features: &[f64]) -> bool {
        let mut row = features.to_vec();
        self.scaler.transform_row(&mut row);
        self.model.predict(&row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boe_corpus::corpus::CorpusBuilder;
    use boe_textkit::Language;

    /// Corpus where `polyN` words appear in two disjoint context families
    /// and `monoN` words in one.
    fn labelled_corpus(n_each: usize) -> (Corpus, Vec<(String, bool)>) {
        let mut b = CorpusBuilder::new(Language::English);
        let mut terms = Vec::new();
        for i in 0..n_each {
            let mono = format!("monoterm{i}");
            let poly = format!("polyterm{i}");
            for _ in 0..4 {
                b.add_text(&format!("{mono} alphaw{i} betaw{i} gammaw{i}."));
                b.add_text(&format!("{poly} alphaw{i} betaw{i} gammaw{i}."));
                b.add_text(&format!("{poly} omegaw{i} sigmaw{i} thetaw{i}."));
            }
            terms.push((mono, false));
            terms.push((poly, true));
        }
        (b.build(), terms)
    }

    #[test]
    fn detector_separates_synthetic_poly_and_mono() {
        let (corpus, terms) = labelled_corpus(12);
        let ctx = FeatureContext::build(&corpus);
        let rows: Vec<Vec<f64>> = terms
            .iter()
            .map(|(t, _)| {
                let ids = corpus.phrase_ids(t).expect("known");
                ctx.features(&ids, t)
            })
            .collect();
        let labels: Vec<bool> = terms.iter().map(|(_, l)| *l).collect();
        let det = PolysemyDetector::train(PolysemyModel::Forest, rows.clone(), labels.clone());
        let correct = rows
            .iter()
            .zip(&labels)
            .filter(|(r, &l)| det.is_polysemic(r) == l)
            .count();
        let acc = correct as f64 / rows.len() as f64;
        assert!(acc > 0.9, "training accuracy {acc}");
    }

    #[test]
    fn all_model_families_instantiate_and_train() {
        let (corpus, terms) = labelled_corpus(3);
        let ctx = FeatureContext::build(&corpus);
        let rows: Vec<Vec<f64>> = terms
            .iter()
            .map(|(t, _)| ctx.features(&corpus.phrase_ids(t).expect("known"), t))
            .collect();
        let labels: Vec<bool> = terms.iter().map(|(_, l)| *l).collect();
        for m in PolysemyModel::ALL {
            let det = PolysemyDetector::train(m, rows.clone(), labels.clone());
            let _ = det.is_polysemic(&rows[0]);
        }
    }

    #[test]
    fn feature_vectors_have_23_dimensions() {
        let (corpus, terms) = labelled_corpus(1);
        let ctx = FeatureContext::build(&corpus);
        let (t, _) = &terms[0];
        let f = ctx.features(&corpus.phrase_ids(t).expect("known"), t);
        assert_eq!(f.len(), 23);
    }
}
