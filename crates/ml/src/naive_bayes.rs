//! Gaussian naive Bayes.
//!
//! The cheapest baseline family: per-class feature Gaussians with variance
//! smoothing (sklearn's `var_smoothing` scheme, floored at the data's
//! resolution), log-likelihood scoring, and softmax-normalized
//! probabilities.

use crate::Classifier;

/// A fitted Gaussian naive Bayes model.
#[derive(Debug, Clone)]
pub struct GaussianNb {
    /// `theta[c][f]` — per-class feature means.
    theta: Vec<Vec<f64>>,
    /// `var[c][f]` — smoothed per-class feature variances.
    var: Vec<Vec<f64>>,
    /// Log class priors.
    log_prior: Vec<f64>,
}

impl GaussianNb {
    /// Fit per-class Gaussians.
    pub fn fit(x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Self {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty());
        let width = x[0].len();

        let mut count = vec![0usize; n_classes];
        let mut sum = vec![vec![0.0; width]; n_classes];
        for (xi, &yi) in x.iter().zip(y) {
            count[yi] += 1;
            for (s, &v) in sum[yi].iter_mut().zip(xi) {
                *s += v;
            }
        }
        let theta: Vec<Vec<f64>> = sum
            .iter()
            .zip(&count)
            .map(|(s, &c)| {
                s.iter()
                    .map(|&v| if c > 0 { v / c as f64 } else { 0.0 })
                    .collect()
            })
            .collect();

        let mut var = vec![vec![0.0; width]; n_classes];
        for (xi, &yi) in x.iter().zip(y) {
            for f in 0..width {
                let d = xi[f] - theta[yi][f];
                var[yi][f] += d * d;
            }
        }
        // Global max feature variance for smoothing (sklearn: 1e-9 × max).
        let mut global = vec![0.0f64; width];
        {
            // Compute global per-feature variance.
            let n = x.len() as f64;
            let mut mean = vec![0.0; width];
            for xi in x {
                for (m, &v) in mean.iter_mut().zip(xi) {
                    *m += v / n;
                }
            }
            for xi in x {
                for f in 0..width {
                    let d = xi[f] - mean[f];
                    global[f] += d * d / n;
                }
            }
        }
        let eps = 1e-9 * global.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
        // No class is narrower than the finest spread the data shows
        // within a class: a class seen at one value (a single row, or one
        // dictionary key per label) would otherwise get an `eps`-wide
        // spike that every query misses, and any wider class would win
        // every point. Floor each feature's variance at the square of
        // its smallest gap between two distinct values of one class.
        let floor: Vec<f64> = (0..width)
            .map(|f| {
                let mut col: Vec<(usize, f64)> =
                    x.iter().zip(y).map(|(xi, &yi)| (yi, xi[f])).collect();
                col.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
                col.windows(2)
                    .filter(|w| w[0].0 == w[1].0 && w[1].1 > w[0].1)
                    .map(|w| (w[1].1 - w[0].1).powi(2))
                    .min_by(f64::total_cmp)
                    .unwrap_or(0.0)
            })
            .collect();
        for (class_var, &c) in var.iter_mut().zip(&count) {
            for (v, &fl) in class_var.iter_mut().zip(&floor) {
                *v = if c > 0 {
                    (*v / c as f64 + eps).max(fl)
                } else {
                    1.0
                };
            }
        }

        let n = x.len() as f64;
        let log_prior = count
            .iter()
            .map(|&c| {
                if c == 0 {
                    f64::NEG_INFINITY
                } else {
                    (c as f64 / n).ln()
                }
            })
            .collect();

        Self {
            theta,
            var,
            log_prior,
        }
    }
}

impl Classifier for GaussianNb {
    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let log_joint: Vec<f64> = self
            .theta
            .iter()
            .zip(&self.var)
            .zip(&self.log_prior)
            .map(|((t, v), &lp)| {
                if lp == f64::NEG_INFINITY {
                    return f64::NEG_INFINITY;
                }
                let mut ll = lp;
                for f in 0..row.len() {
                    let d = row[f] - t[f];
                    ll += -0.5 * ((2.0 * std::f64::consts::PI * v[f]).ln() + d * d / v[f]);
                }
                ll
            })
            .collect();
        // Softmax with log-sum-exp stabilization.
        let max = log_joint.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exp: Vec<f64> = log_joint.iter().map(|&l| (l - max).exp()).collect();
        let z: f64 = exp.iter().sum();
        exp.into_iter().map(|e| e / z).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_util::rng::SplitMix64;

    fn blobs(n_per: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = SplitMix64::new(seed);
        let (mut x, mut y) = (Vec::new(), Vec::new());
        for (c, center) in [(0usize, -5.0), (1, 5.0)] {
            for _ in 0..n_per {
                x.push(vec![center + rng.next_gaussian(), rng.next_gaussian()]);
                y.push(c);
            }
        }
        (x, y)
    }

    #[test]
    fn separable_classes() {
        let (x, y) = blobs(100, 1);
        let nb = GaussianNb::fit(&x, &y, 2);
        let (xt, yt) = blobs(50, 2);
        let acc = xt
            .iter()
            .zip(&yt)
            .filter(|(xi, &yi)| nb.predict(xi) == yi)
            .count() as f64
            / xt.len() as f64;
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn proba_normalized_and_confident() {
        let (x, y) = blobs(100, 3);
        let nb = GaussianNb::fit(&x, &y, 2);
        let p = nb.predict_proba(&[-5.0, 0.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[0] > 0.99);
        let mid = nb.predict_proba(&[0.0, 0.0]);
        assert!(mid[0] < 0.9 && mid[1] < 0.9, "{mid:?}");
    }

    #[test]
    fn empty_class_gets_zero_probability() {
        let (x, y) = blobs(20, 4);
        let nb = GaussianNb::fit(&x, &y, 3); // class 2 never observed
        let p = nb.predict_proba(&[0.0, 0.0]);
        assert_eq!(p[2], 0.0);
    }

    #[test]
    fn a_one_value_class_still_claims_its_neighborhood() {
        // Dictionary-shaped rows: class 0 seen at one key, class 1 spread
        // over three. A point 15 off class 0's key is class 0's.
        let x = vec![
            vec![6000.0],
            vec![6000.0],
            vec![7100.0],
            vec![7500.0],
            vec![7600.0],
        ];
        let y = vec![0, 0, 1, 1, 1];
        let nb = GaussianNb::fit(&x, &y, 2);
        let p = nb.predict_proba(&[6015.0]);
        assert!(p[0] > 0.99, "{p:?}");
    }

    #[test]
    fn constant_features_do_not_nan() {
        let x = vec![
            vec![1.0, 5.0],
            vec![1.0, 5.0],
            vec![2.0, 5.0],
            vec![2.0, 5.0],
        ];
        let y = vec![0, 0, 1, 1];
        let nb = GaussianNb::fit(&x, &y, 2);
        let p = nb.predict_proba(&[1.0, 5.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!(p[0] > 0.5);
    }
}
