//! Random forests: bootstrap-aggregated CART trees with per-tree feature
//! subsampling.

use crate::dataset::Dataset;
use crate::model::Classifier;
use crate::tree::DecisionTree;
use boe_rng::StdRng;

/// Random-forest classifier.
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// Number of trees.
    pub n_trees: usize,
    /// Depth cap per tree.
    pub max_depth: usize,
    /// Features considered per node (default `sqrt(d)` at fit time when
    /// `None`).
    pub max_features: Option<usize>,
    /// RNG seed for bootstrap sampling.
    pub seed: u64,
    trees: Vec<DecisionTree>,
}

impl Default for RandomForest {
    fn default() -> Self {
        RandomForest {
            n_trees: 30,
            max_depth: 8,
            max_features: None,
            seed: 0,
            trees: Vec::new(),
        }
    }
}

impl RandomForest {
    /// New forest with default hyperparameters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, train: &Dataset) {
        self.trees.clear();
        if train.is_empty() {
            return;
        }
        let n = train.len();
        let d = train.n_features();
        let m = self
            .max_features
            .unwrap_or_else(|| (d as f64).sqrt().ceil() as usize)
            .max(1);
        let mut rng = StdRng::seed_from_u64(self.seed);
        for t in 0..self.n_trees {
            let sample: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let boot = train.subset(&sample);
            let mut tree = DecisionTree::with_params(self.max_depth, Some(m), t);
            tree.fit(&boot);
            self.trees.push(tree);
        }
    }

    fn predict(&self, row: &[f64]) -> bool {
        self.predict_proba(row) >= 0.5
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().map(|t| t.predict_proba(row)).sum::<f64>() / self.trees.len() as f64
    }

    fn name(&self) -> &'static str {
        "random-forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::predict_all;

    fn noisy_separable(n: usize) -> Dataset {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let a = (i % 13) as f64;
            let b = ((i * 7 + 3) % 13) as f64;
            let noise = ((i * 31) % 5) as f64 * 0.01;
            rows.push(vec![a + noise, b - noise, ((i * 11) % 3) as f64]);
            labels.push(a > b);
        }
        Dataset::new(rows, labels)
    }

    #[test]
    fn fits_and_predicts_well() {
        let d = noisy_separable(150);
        let mut f = RandomForest::new();
        f.fit(&d);
        let preds = predict_all(&f, &d);
        let acc =
            preds.iter().zip(d.labels()).filter(|(p, l)| p == l).count() as f64 / d.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
        assert_eq!(f.trees.len(), 30);
    }

    #[test]
    fn deterministic_per_seed() {
        let d = noisy_separable(60);
        let mut a = RandomForest::new();
        let mut b = RandomForest::new();
        a.fit(&d);
        b.fit(&d);
        for i in 0..d.len() {
            assert_eq!(a.predict_proba(d.row(i)), b.predict_proba(d.row(i)));
        }
    }

    #[test]
    fn averaged_probabilities_are_soft() {
        let d = noisy_separable(100);
        let mut f = RandomForest::new();
        f.fit(&d);
        let p = f.predict_proba(&[6.0, 6.0, 1.0]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn empty_training_is_safe() {
        let mut f = RandomForest::new();
        f.fit(&Dataset::new(vec![], vec![]));
        assert!(!f.predict(&[0.0]));
        assert_eq!(f.trees.len(), 0);
    }
}
