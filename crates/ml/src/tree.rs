//! CART decision trees (Gini impurity).
//!
//! Supports the classic exhaustive-threshold search and the randomized
//! "extra trees" variant (one random threshold per candidate feature),
//! plus per-node feature subsampling — the building blocks
//! [`crate::forest`] composes into the Taxonomist baseline's classifier.

use efd_util::rng::{derive_seed, SplitMix64};

use crate::Classifier;

/// Tree construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features considered per split (`None` = all).
    pub max_features: Option<usize>,
    /// Extra-trees mode: one uniform-random threshold per feature instead
    /// of the exhaustive scan.
    pub random_thresholds: bool,
    /// Seed for feature subsampling / random thresholds.
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 24,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            random_thresholds: false,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        dist: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A trained CART decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
}

impl DecisionTree {
    /// Fit on all rows of `x`.
    pub fn fit(params: TreeParams, x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Self {
        let indices: Vec<usize> = (0..x.len()).collect();
        Self::fit_on(params, x, y, n_classes, indices)
    }

    /// Fit on a subset (possibly with repetition — bootstrap samples).
    pub fn fit_on(
        params: TreeParams,
        x: &[Vec<f64>],
        y: &[usize],
        n_classes: usize,
        indices: Vec<usize>,
    ) -> Self {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!indices.is_empty(), "cannot fit on zero samples");
        assert!(n_classes >= 1);
        let width = x[0].len();
        let mut tree = Self {
            nodes: Vec::new(),
            n_classes,
        };
        let mut rng = SplitMix64::new(derive_seed(params.seed, &[0x7EE5]));
        tree.build(&params, x, y, indices, 0, width, &mut rng);
        tree
    }

    /// Number of nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth (diagnostics).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    fn class_counts(&self, y: &[usize], indices: &[usize]) -> Vec<f64> {
        let mut counts = vec![0.0; self.n_classes];
        for &i in indices {
            counts[y[i]] += 1.0;
        }
        counts
    }

    fn make_leaf(&mut self, counts: Vec<f64>) -> usize {
        let total: f64 = counts.iter().sum();
        let dist = counts.iter().map(|c| c / total).collect();
        self.nodes.push(Node::Leaf { dist });
        self.nodes.len() - 1
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        params: &TreeParams,
        x: &[Vec<f64>],
        y: &[usize],
        indices: Vec<usize>,
        depth: usize,
        width: usize,
        rng: &mut SplitMix64,
    ) -> usize {
        let counts = self.class_counts(y, &indices);
        let n = indices.len();
        let pure = counts.iter().filter(|&&c| c > 0.0).count() <= 1;
        if pure || depth >= params.max_depth || n < params.min_samples_split {
            return self.make_leaf(counts);
        }

        // Candidate features (subsampled without replacement).
        let k = params.max_features.unwrap_or(width).min(width).max(1);
        let features: Vec<usize> = if k == width {
            (0..width).collect()
        } else {
            let mut pool: Vec<usize> = (0..width).collect();
            for i in 0..k {
                let j = i + rng.next_below((width - i) as u64) as usize;
                pool.swap(i, j);
            }
            pool.truncate(k);
            pool
        };

        let parent_gini = gini(&counts, n as f64);
        let mut best: Option<(f64, usize, f64)> = None; // (impurity, feature, threshold)
        let mut scratch: Vec<(f64, usize)> = Vec::with_capacity(n);

        for &f in &features {
            scratch.clear();
            scratch.extend(indices.iter().map(|&i| (x[i][f], y[i])));
            scratch.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            if scratch[0].0 == scratch[n - 1].0 {
                continue; // constant feature
            }

            if params.random_thresholds {
                let (lo, hi) = (scratch[0].0, scratch[n - 1].0);
                let t = lo + rng.next_f64() * (hi - lo);
                if let Some(imp) =
                    split_impurity_at(&scratch, t, self.n_classes, params.min_samples_leaf)
                {
                    if best.is_none_or(|b| imp < b.0) {
                        best = Some((imp, f, t));
                    }
                }
            } else {
                // Exhaustive scan over midpoints of distinct neighbors.
                let mut left = vec![0.0f64; self.n_classes];
                let mut right = counts.clone();
                for s in 0..n - 1 {
                    left[scratch[s].1] += 1.0;
                    right[scratch[s].1] -= 1.0;
                    if scratch[s].0 == scratch[s + 1].0 {
                        continue;
                    }
                    let nl = (s + 1) as f64;
                    let nr = (n - s - 1) as f64;
                    if (nl as usize) < params.min_samples_leaf
                        || (nr as usize) < params.min_samples_leaf
                    {
                        continue;
                    }
                    let imp = (nl * gini(&left, nl) + nr * gini(&right, nr)) / n as f64;
                    if best.is_none_or(|b| imp < b.0) {
                        let t = 0.5 * (scratch[s].0 + scratch[s + 1].0);
                        best = Some((imp, f, t));
                    }
                }
            }
        }

        let Some((imp, feature, threshold)) = best else {
            return self.make_leaf(counts);
        };
        if imp >= parent_gini {
            return self.make_leaf(counts); // no impurity improvement
        }

        let (li, ri): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| x[i][feature] <= threshold);
        if li.is_empty() || ri.is_empty() {
            return self.make_leaf(counts);
        }

        let node = self.nodes.len();
        self.nodes.push(Node::Split {
            feature,
            threshold,
            left: 0,
            right: 0,
        });
        let left = self.build(params, x, y, li, depth + 1, width, rng);
        let right = self.build(params, x, y, ri, depth + 1, width, rng);
        if let Node::Split {
            left: l, right: r, ..
        } = &mut self.nodes[node]
        {
            *l = left;
            *r = right;
        }
        node
    }
}

impl Classifier for DecisionTree {
    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { dist } => return dist.clone(),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Gini impurity of class counts summing to `total`.
fn gini(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c / total;
            p * p
        })
        .sum::<f64>()
}

/// Weighted impurity of a fixed-threshold split over sorted (value, class)
/// pairs; None if a side violates `min_leaf`.
fn split_impurity_at(
    sorted: &[(f64, usize)],
    threshold: f64,
    n_classes: usize,
    min_leaf: usize,
) -> Option<f64> {
    let mut left = vec![0.0f64; n_classes];
    let mut right = vec![0.0f64; n_classes];
    let mut nl = 0.0f64;
    for &(v, c) in sorted {
        if v <= threshold {
            left[c] += 1.0;
            nl += 1.0;
        } else {
            right[c] += 1.0;
        }
    }
    let n = sorted.len() as f64;
    let nr = n - nl;
    if (nl as usize) < min_leaf || (nr as usize) < min_leaf {
        return None;
    }
    Some((nl * gini(&left, nl) + nr * gini(&right, nr)) / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_util::rng::SplitMix64;

    /// Three Gaussian blobs in 2-D.
    fn blobs(n_per: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let centers = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)];
        let mut rng = SplitMix64::new(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per {
                x.push(vec![cx + rng.next_gaussian(), cy + rng.next_gaussian()]);
                y.push(c);
            }
        }
        (x, y)
    }

    #[test]
    fn separable_blobs_are_learned() {
        let (x, y) = blobs(50, 1);
        let tree = DecisionTree::fit(TreeParams::default(), &x, &y, 3);
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| tree.predict(xi) == yi)
            .count();
        assert!(correct as f64 / x.len() as f64 > 0.98);

        let (xt, yt) = blobs(30, 2);
        let correct = xt
            .iter()
            .zip(&yt)
            .filter(|(xi, &yi)| tree.predict(xi) == yi)
            .count();
        assert!(
            correct as f64 / xt.len() as f64 > 0.95,
            "test accuracy {}",
            correct as f64 / xt.len() as f64
        );
    }

    #[test]
    fn proba_sums_to_one() {
        let (x, y) = blobs(20, 3);
        let tree = DecisionTree::fit(TreeParams::default(), &x, &y, 3);
        for xi in &x {
            let p = tree.predict_proba(xi);
            assert_eq!(p.len(), 3);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn max_depth_limits_tree() {
        let (x, y) = blobs(100, 4);
        let stump = DecisionTree::fit(
            TreeParams {
                max_depth: 1,
                ..TreeParams::default()
            },
            &x,
            &y,
            3,
        );
        assert!(stump.depth() <= 2);
        assert!(stump.node_count() <= 3);
    }

    #[test]
    fn constant_features_become_leaf() {
        let x = vec![vec![1.0, 2.0]; 10];
        let y: Vec<usize> = (0..10).map(|i| i % 2).collect();
        let tree = DecisionTree::fit(TreeParams::default(), &x, &y, 2);
        assert_eq!(tree.node_count(), 1);
        let p = tree.predict_proba(&[1.0, 2.0]);
        assert!((p[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pure_node_short_circuits() {
        let (x, y) = blobs(10, 5);
        let y_const = vec![1usize; y.len()];
        let tree = DecisionTree::fit(TreeParams::default(), &x, &y_const, 3);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&x[0]), 1);
    }

    #[test]
    fn extra_trees_mode_still_learns() {
        let (x, y) = blobs(50, 6);
        let tree = DecisionTree::fit(
            TreeParams {
                random_thresholds: true,
                seed: 9,
                ..TreeParams::default()
            },
            &x,
            &y,
            3,
        );
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| tree.predict(xi) == yi)
            .count();
        assert!(correct as f64 / x.len() as f64 > 0.9);
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = blobs(30, 7);
        let p = TreeParams {
            max_features: Some(1),
            seed: 11,
            ..TreeParams::default()
        };
        let a = DecisionTree::fit(p, &x, &y, 3);
        let b = DecisionTree::fit(p, &x, &y, 3);
        for xi in &x {
            assert_eq!(a.predict(xi), b.predict(xi));
        }
    }

    #[test]
    fn bootstrap_subset_fit() {
        let (x, y) = blobs(30, 8);
        let idx: Vec<usize> = (0..30).collect(); // first blob only
        let tree = DecisionTree::fit_on(TreeParams::default(), &x, &y, 3, idx);
        assert_eq!(tree.predict(&x[0]), 0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = blobs(10, 9);
        let tree = DecisionTree::fit(
            TreeParams {
                min_samples_leaf: 10,
                ..TreeParams::default()
            },
            &x,
            &y,
            3,
        );
        // 30 samples, leaves >= 10 → at most 3 leaves.
        assert!(tree.node_count() <= 5);
    }

    #[test]
    fn gini_basics() {
        assert_eq!(gini(&[10.0, 0.0], 10.0), 0.0);
        assert!((gini(&[5.0, 5.0], 10.0) - 0.5).abs() < 1e-12);
    }
}
