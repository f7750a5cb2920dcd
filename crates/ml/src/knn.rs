//! Brute-force k-nearest-neighbors.
//!
//! One of the classifier families Taxonomist evaluated. Distances are
//! Euclidean; callers should z-score features first ([`crate::Scaler`]) —
//! raw telemetry magnitudes span nine orders of magnitude and would let a
//! single meminfo column dominate.

use crate::Classifier;

/// A fitted kNN model (stores the training set).
#[derive(Debug, Clone)]
pub struct KNearestNeighbors {
    k: usize,
    x: Vec<Vec<f64>>,
    y: Vec<usize>,
    n_classes: usize,
}

impl KNearestNeighbors {
    /// "Fit" = store the training data.
    pub fn fit(k: usize, x: Vec<Vec<f64>>, y: Vec<usize>, n_classes: usize) -> Self {
        assert!(k >= 1);
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty());
        Self { k, x, y, n_classes }
    }

    fn neighbors(&self, row: &[f64]) -> Vec<(f64, usize)> {
        let mut d: Vec<(f64, usize)> = self
            .x
            .iter()
            .zip(&self.y)
            .map(|(xi, &yi)| {
                let dist: f64 = xi.iter().zip(row).map(|(a, b)| (a - b) * (a - b)).sum();
                (dist, yi)
            })
            .collect();
        let k = self.k.min(d.len());
        d.select_nth_unstable_by(k - 1, |a, b| a.0.partial_cmp(&b.0).unwrap());
        d.truncate(k);
        d
    }
}

impl Classifier for KNearestNeighbors {
    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut votes = vec![0.0; self.n_classes];
        let nn = self.neighbors(row);
        for &(_, c) in &nn {
            votes[c] += 1.0;
        }
        let total: f64 = votes.iter().sum();
        for v in &mut votes {
            *v /= total;
        }
        votes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> (Vec<Vec<f64>>, Vec<usize>) {
        // class 0 near origin, class 1 near (10, 10)
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..5 {
            x.push(vec![i as f64 * 0.1, i as f64 * 0.1]);
            y.push(0);
            x.push(vec![10.0 + i as f64 * 0.1, 10.0]);
            y.push(1);
        }
        (x, y)
    }

    #[test]
    fn nearest_blob_wins() {
        let (x, y) = grid();
        let knn = KNearestNeighbors::fit(3, x, y, 2);
        assert_eq!(knn.predict(&[0.2, 0.0]), 0);
        assert_eq!(knn.predict(&[9.8, 10.1]), 1);
    }

    #[test]
    fn proba_counts_votes() {
        let (x, y) = grid();
        let knn = KNearestNeighbors::fit(4, x, y, 2);
        let p = knn.predict_proba(&[0.0, 0.0]);
        assert_eq!(p, vec![1.0, 0.0]);
        let p = knn.predict_proba(&[5.0, 5.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![0, 1];
        let knn = KNearestNeighbors::fit(10, x, y, 2);
        let p = knn.predict_proba(&[0.1]);
        assert_eq!(p, vec![0.5, 0.5]);
    }

    #[test]
    fn exact_match_dominates_k1() {
        let (x, y) = grid();
        let knn = KNearestNeighbors::fit(1, x.clone(), y.clone(), 2);
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(knn.predict(xi), yi);
        }
    }
}
