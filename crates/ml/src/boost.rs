//! AdaBoost over decision stumps (Freund & Schapire 1997, discrete
//! AdaBoost with the standard 1/2·ln((1−ε)/ε) vote weights).

use crate::dataset::Dataset;
use crate::model::Classifier;

/// One axis-aligned stump: `feature ≤ threshold → left_label`.
#[derive(Debug, Clone, Copy)]
struct Stump {
    feature: usize,
    threshold: f64,
    /// Label predicted on the `≤ threshold` side.
    left_positive: bool,
    /// Vote weight α.
    alpha: f64,
}

impl Stump {
    fn predict(&self, row: &[f64]) -> bool {
        if row[self.feature] <= self.threshold {
            self.left_positive
        } else {
            !self.left_positive
        }
    }
}

/// AdaBoost classifier.
#[derive(Debug, Clone)]
pub struct AdaBoost {
    /// Number of boosting rounds.
    pub rounds: usize,
    stumps: Vec<Stump>,
}

impl Default for AdaBoost {
    fn default() -> Self {
        AdaBoost {
            rounds: 40,
            stumps: Vec::new(),
        }
    }
}

impl AdaBoost {
    /// New model with default hyperparameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The weighted vote margin (positive ⇒ positive class).
    pub fn decision(&self, row: &[f64]) -> f64 {
        self.stumps
            .iter()
            .map(|s| if s.predict(row) { s.alpha } else { -s.alpha })
            .sum()
    }

    /// Best stump under example weights `w`; returns (stump, weighted
    /// error).
    fn best_stump(train: &Dataset, w: &[f64]) -> (Stump, f64) {
        let d = train.n_features();
        let n = train.len();
        let mut best = (
            Stump {
                feature: 0,
                threshold: 0.0,
                left_positive: true,
                alpha: 0.0,
            },
            f64::INFINITY,
        );
        for f in 0..d {
            // Candidate thresholds: midpoints of sorted distinct values.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                train.row(a)[f]
                    .partial_cmp(&train.row(b)[f])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            // Sweep: with the threshold below every value, all points sit
            // on the right, so "left positive" predicts negative
            // everywhere and errs exactly on the positives' weight.
            let mut err_left_pos: f64 = order
                .iter()
                .filter(|&&i| train.label(i))
                .map(|&i| w[i])
                .sum();
            let consider = |thr: f64, err_lp: f64, feature: usize, best: &mut (Stump, f64)| {
                for (left_positive, err) in [(true, err_lp), (false, 1.0 - err_lp)] {
                    if err < best.1 {
                        best.0 = Stump {
                            feature,
                            threshold: thr,
                            left_positive,
                            alpha: 0.0,
                        };
                        best.1 = err;
                    }
                }
            };
            let below = train.row(order[0])[f] - 1.0;
            consider(below, err_left_pos, f, &mut best);
            for (pos, &i) in order.iter().enumerate() {
                // Move example i to the left side.
                if train.label(i) {
                    err_left_pos -= w[i];
                } else {
                    err_left_pos += w[i];
                }
                let v = train.row(i)[f];
                let next_v = order.get(pos + 1).map(|&j| train.row(j)[f]);
                if next_v != Some(v) {
                    let thr = match next_v {
                        Some(nv) => (v + nv) / 2.0,
                        None => v + 1.0,
                    };
                    consider(thr, err_left_pos, f, &mut best);
                }
            }
        }
        best
    }
}

impl Classifier for AdaBoost {
    fn fit(&mut self, train: &Dataset) {
        self.stumps.clear();
        let n = train.len();
        if n == 0 {
            return;
        }
        let mut w = vec![1.0 / n as f64; n];
        for _ in 0..self.rounds {
            let (mut stump, err) = Self::best_stump(train, &w);
            let err = err.clamp(1e-10, 1.0 - 1e-10);
            if err >= 0.5 {
                break; // no better than chance under current weights
            }
            stump.alpha = 0.5 * ((1.0 - err) / err).ln();
            // Reweight: misclassified up, correct down; renormalize.
            let mut total = 0.0;
            for (i, wi) in w.iter_mut().enumerate() {
                let correct = stump.predict(train.row(i)) == train.label(i);
                *wi *= if correct {
                    (-stump.alpha).exp()
                } else {
                    stump.alpha.exp()
                };
                total += *wi;
            }
            for x in &mut w {
                *x /= total;
            }
            let perfect = err < 1e-9;
            self.stumps.push(stump);
            if perfect {
                break;
            }
        }
    }

    fn predict(&self, row: &[f64]) -> bool {
        self.decision(row) >= 0.0
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        // Logistic squash of the margin (monotone, not calibrated).
        1.0 / (1.0 + (-2.0 * self.decision(row)).exp())
    }

    fn name(&self) -> &'static str {
        "adaboost-stumps"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::predict_all;

    /// Positive iff x lies in the middle interval — a single stump tops
    /// out at 75%, but two boosted thresholds solve it exactly.
    fn interval_data() -> Dataset {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let x = i as f64 / 4.0;
            rows.push(vec![x, (i % 3) as f64]);
            labels.push((3.0..7.0).contains(&x));
        }
        Dataset::new(rows, labels)
    }

    #[test]
    fn single_stump_solves_threshold_problem() {
        let d = Dataset::new(
            vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
            vec![false, false, true, true],
        );
        let mut m = AdaBoost::new();
        m.fit(&d);
        assert_eq!(predict_all(&m, &d), d.labels());
        assert!(!m.stumps.is_empty());
    }

    #[test]
    fn boosting_learns_an_interval() {
        // No single stump can represent "x in [3, 7)"; boosting must
        // combine opposite-direction thresholds.
        let d = interval_data();
        let mut m = AdaBoost::new();
        m.fit(&d);
        let acc = predict_all(&m, &d)
            .iter()
            .zip(d.labels())
            .filter(|(p, l)| p == l)
            .count() as f64
            / d.len() as f64;
        assert!(acc >= 0.95, "accuracy {acc}");
        assert!(m.stumps.len() > 1);
    }

    #[test]
    fn noisy_separable_data() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..120 {
            let a = (i % 12) as f64;
            let b = ((i * 5 + 2) % 12) as f64;
            rows.push(vec![a, b, ((i * 7) % 3) as f64]);
            labels.push(a > b);
        }
        let d = Dataset::new(rows, labels);
        let mut m = AdaBoost::new();
        m.fit(&d);
        let acc = predict_all(&m, &d)
            .iter()
            .zip(d.labels())
            .filter(|(p, l)| p == l)
            .count() as f64
            / d.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn proba_is_monotone_in_margin() {
        let d = interval_data();
        let mut m = AdaBoost::new();
        m.fit(&d);
        let p = m.predict_proba(&[1.0, 0.0]);
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(m.predict(&[1.0, 0.0]), p >= 0.5);
    }

    #[test]
    fn empty_training_is_safe() {
        let mut m = AdaBoost::new();
        m.fit(&Dataset::new(vec![], vec![]));
        assert!(m.predict(&[1.0])); // zero margin ⇒ non-negative
        assert!(m.stumps.is_empty());
    }

    #[test]
    fn deterministic() {
        let d = interval_data();
        let mut a = AdaBoost::new();
        let mut b = AdaBoost::new();
        a.fit(&d);
        b.fit(&d);
        assert_eq!(a.decision(&[0.3, 0.9]), b.decision(&[0.3, 0.9]));
    }
}
