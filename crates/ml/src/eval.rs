//! Evaluation: confusion matrices, precision/recall/F-measure, and
//! stratified k-fold cross-validation — the protocol behind the paper's
//! "98% F-measure" polysemy-detection claim.

use crate::dataset::Dataset;
use crate::model::{predict_all, Classifier};

/// A binary confusion matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Confusion {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Confusion {
    /// Tally predictions against gold labels.
    pub fn from_predictions(gold: &[bool], pred: &[bool]) -> Self {
        assert_eq!(gold.len(), pred.len(), "length mismatch");
        let mut c = Confusion::default();
        for (&g, &p) in gold.iter().zip(pred) {
            match (g, p) {
                (true, true) => c.tp += 1,
                (false, true) => c.fp += 1,
                (false, false) => c.tn += 1,
                (true, false) => c.fn_ += 1,
            }
        }
        c
    }

    /// Accuracy.
    pub fn accuracy(&self) -> f64 {
        let total = self.tp + self.fp + self.tn + self.fn_;
        if total == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }

    /// Precision of the positive class (0 when nothing was predicted
    /// positive).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall of the positive class.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 measure.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Merge two confusion matrices (for CV aggregation).
    pub fn merge(&self, other: &Confusion) -> Confusion {
        Confusion {
            tp: self.tp + other.tp,
            fp: self.fp + other.fp,
            tn: self.tn + other.tn,
            fn_: self.fn_ + other.fn_,
        }
    }
}

/// Stratified fold assignment: positives and negatives are distributed
/// round-robin so every fold keeps the class balance.
pub fn stratified_folds(labels: &[bool], k: usize) -> Vec<usize> {
    assert!(k >= 2, "need at least 2 folds");
    let mut fold = vec![0usize; labels.len()];
    let mut next = [0usize; 2];
    for (i, &l) in labels.iter().enumerate() {
        let c = usize::from(l);
        fold[i] = next[c] % k;
        next[c] += 1;
    }
    fold
}

/// Run stratified k-fold cross-validation with a fresh model per fold
/// (supplied by `make_model`, boxed so a `dyn Classifier` factory fits);
/// returns the pooled confusion matrix.
pub fn cross_validate<C, F>(data: &Dataset, k: usize, mut make_model: F) -> Confusion
where
    C: Classifier + ?Sized,
    F: FnMut() -> Box<C>,
{
    let folds = stratified_folds(data.labels(), k);
    let mut pooled = Confusion::default();
    for f in 0..k {
        let train_idx: Vec<usize> = (0..data.len()).filter(|&i| folds[i] != f).collect();
        let test_idx: Vec<usize> = (0..data.len()).filter(|&i| folds[i] == f).collect();
        if test_idx.is_empty() || train_idx.is_empty() {
            continue;
        }
        let train = data.subset(&train_idx);
        let test = data.subset(&test_idx);
        let mut model = make_model();
        model.fit(&train);
        let preds = predict_all(&*model, &test);
        pooled = pooled.merge(&Confusion::from_predictions(test.labels(), &preds));
    }
    pooled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logreg::LogisticRegression;

    #[test]
    fn confusion_counts() {
        let gold = [true, true, false, false, true];
        let pred = [true, false, false, true, true];
        let c = Confusion::from_predictions(&gold, &pred);
        assert_eq!((c.tp, c.fp, c.tn, c.fn_), (2, 1, 1, 1));
        assert!((c.accuracy() - 0.6).abs() < 1e-12);
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_metrics_are_zero_not_nan() {
        let c = Confusion::default();
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn stratified_folds_balance_classes() {
        let labels: Vec<bool> = (0..100).map(|i| i % 4 == 0).collect(); // 25% positive
        let folds = stratified_folds(&labels, 5);
        for f in 0..5 {
            let pos = labels
                .iter()
                .zip(&folds)
                .filter(|(&l, &ff)| l && ff == f)
                .count();
            assert_eq!(pos, 5, "fold {f} has {pos} positives");
        }
    }

    #[test]
    fn cross_validation_on_separable_data() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let a = (i % 10) as f64;
            let b = ((i * 3 + 1) % 10) as f64;
            rows.push(vec![a, b]);
            labels.push(a > b);
        }
        let d = Dataset::new(rows, labels);
        let c = cross_validate(&d, 10, || Box::new(LogisticRegression::new()));
        assert!(c.f1() > 0.9, "f1 {}", c.f1());
        assert_eq!(c.tp + c.fp + c.tn + c.fn_, 200, "every row tested once");
    }

    #[test]
    fn merge_adds_counts() {
        let a = Confusion {
            tp: 1,
            fp: 2,
            tn: 3,
            fn_: 4,
        };
        let b = a;
        let m = a.merge(&b);
        assert_eq!((m.tp, m.fp, m.tn, m.fn_), (2, 4, 6, 8));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_fold_panics() {
        let _ = stratified_folds(&[true], 1);
    }
}
