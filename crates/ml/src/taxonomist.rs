//! The assembled Taxonomist-style baseline.
//!
//! Pipeline per the paper's comparator (Ates et al. 2018): statistical
//! features of **all** metrics over the **whole** execution, per node; a
//! supervised classifier (random forest, their best performer); per-node
//! confidence thresholding for unknown detection ("Taxonomist evaluates
//! and labels individual nodes, whereas the EFD evaluates the entire
//! execution" — paper §5); and a majority vote to lift node labels to an
//! execution verdict, so both systems can be scored on the same
//! per-execution ground truth.

use crate::features::FeatureMatrix;
use crate::forest::{RandomForest, RandomForestParams};
use crate::metrics::UNKNOWN_LABEL;
use crate::tree::TreeParams;
use crate::Classifier;

/// Baseline configuration.
#[derive(Debug, Clone, Copy)]
pub struct TaxonomistConfig {
    /// Trees in the forest.
    pub n_trees: usize,
    /// Max tree depth.
    pub max_depth: usize,
    /// A node prediction below this confidence becomes
    /// [`UNKNOWN_LABEL`] (Taxonomist's unknown-application detection).
    pub confidence_threshold: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for TaxonomistConfig {
    fn default() -> Self {
        Self {
            n_trees: 100,
            max_depth: 24,
            confidence_threshold: 0.55,
            seed: 0x7A40,
        }
    }
}

/// A trained Taxonomist baseline.
#[derive(Debug, Clone)]
pub struct Taxonomist {
    cfg: TaxonomistConfig,
    classes: Vec<String>,
    forest: RandomForest,
}

impl Taxonomist {
    /// Train on node-labeled features.
    pub fn fit(cfg: TaxonomistConfig, features: &FeatureMatrix) -> Self {
        assert!(!features.is_empty(), "empty training set");
        let mut classes: Vec<String> = features.labels.clone();
        classes.sort();
        classes.dedup();
        let y: Vec<usize> = features
            .labels
            .iter()
            .map(|l| classes.iter().position(|c| c == l).unwrap())
            .collect();
        let forest = RandomForest::fit(
            RandomForestParams {
                n_trees: cfg.n_trees,
                tree: TreeParams {
                    max_depth: cfg.max_depth,
                    ..TreeParams::default()
                },
                seed: cfg.seed,
                bootstrap: true,
            },
            &features.rows,
            &y,
            classes.len(),
        );
        Self {
            cfg,
            classes,
            forest,
        }
    }

    /// Known class names (sorted).
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Classify one node sample: `(label-or-unknown, confidence)`.
    pub fn predict_node(&self, row: &[f64]) -> (String, f64) {
        let p = self.forest.predict_proba(row);
        let (best, conf) =
            p.iter().enumerate().fold(
                (0usize, 0.0f64),
                |acc, (i, &v)| {
                    if v > acc.1 {
                        (i, v)
                    } else {
                        acc
                    }
                },
            );
        if conf < self.cfg.confidence_threshold {
            (UNKNOWN_LABEL.to_string(), conf)
        } else {
            (self.classes[best].clone(), conf)
        }
    }

    /// Lift node predictions to an execution verdict: majority vote over
    /// node labels; ties broken by total confidence.
    pub fn predict_execution(&self, rows: &[Vec<f64>]) -> String {
        assert!(!rows.is_empty(), "execution with no node rows");
        let mut tally: Vec<(String, usize, f64)> = Vec::new();
        for row in rows {
            let (label, conf) = self.predict_node(row);
            match tally.iter_mut().find(|(l, _, _)| *l == label) {
                Some((_, n, c)) => {
                    *n += 1;
                    *c += conf;
                }
                None => tally.push((label, 1, conf)),
            }
        }
        tally
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(a.2.partial_cmp(&b.2).unwrap()))
            .map(|(l, _, _)| l)
            .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_util::rng::SplitMix64;

    /// Synthetic node features: 3 apps with distinct feature centers,
    /// 4 nodes per execution.
    fn node_features(execs_per_app: usize, seed: u64) -> FeatureMatrix {
        let mut rng = SplitMix64::new(seed);
        let mut fm = FeatureMatrix::default();
        let mut exec = 0usize;
        for (app, center) in [("ft", 0.0), ("sp", 8.0), ("lu", -8.0)] {
            for _ in 0..execs_per_app {
                for _node in 0..4 {
                    fm.rows.push(vec![
                        center + rng.next_gaussian(),
                        center * 2.0 + rng.next_gaussian(),
                        rng.next_gaussian(),
                    ]);
                    fm.labels.push(app.to_string());
                    fm.exec_of_row.push(exec);
                }
                exec += 1;
            }
        }
        fm
    }

    fn quick_cfg() -> TaxonomistConfig {
        TaxonomistConfig {
            n_trees: 15,
            ..Default::default()
        }
    }

    #[test]
    fn recognizes_known_apps() {
        let train = node_features(10, 1);
        let model = Taxonomist::fit(quick_cfg(), &train);
        assert_eq!(model.classes(), &["ft", "lu", "sp"]);

        let test = node_features(3, 2);
        let mut correct = 0;
        let mut total = 0;
        for exec in 0..9 {
            let rows: Vec<Vec<f64>> = test
                .rows_of_exec(exec)
                .into_iter()
                .map(|i| test.rows[i].clone())
                .collect();
            if rows.is_empty() {
                continue;
            }
            let truth = &test.labels[test.rows_of_exec(exec)[0]];
            if &model.predict_execution(&rows) == truth {
                correct += 1;
            }
            total += 1;
        }
        assert!(correct as f64 / total as f64 > 0.9, "{correct}/{total}");
    }

    #[test]
    fn low_confidence_becomes_unknown() {
        let train = node_features(10, 3);
        let model = Taxonomist::fit(
            TaxonomistConfig {
                n_trees: 25,
                confidence_threshold: 0.9,
                ..Default::default()
            },
            &train,
        );
        // A point between ft (0) and sp (8) centers: low confidence.
        let (label, conf) = model.predict_node(&[4.0, 8.0, 0.0]);
        assert_eq!(label, UNKNOWN_LABEL, "confidence was {conf}");
    }

    #[test]
    fn execution_majority_overrides_one_bad_node() {
        let train = node_features(10, 4);
        let model = Taxonomist::fit(quick_cfg(), &train);
        let rows = vec![
            vec![0.1, 0.0, 0.0],  // ft-ish
            vec![-0.2, 0.1, 0.0], // ft-ish
            vec![0.0, -0.1, 0.0], // ft-ish
            vec![8.0, 16.0, 0.0], // sp-ish straggler
        ];
        assert_eq!(model.predict_execution(&rows), "ft");
    }

    #[test]
    fn deterministic_per_seed() {
        let train = node_features(5, 5);
        let a = Taxonomist::fit(quick_cfg(), &train);
        let b = Taxonomist::fit(quick_cfg(), &train);
        let probe = vec![0.0, 0.0, 0.0];
        assert_eq!(a.predict_node(&probe), b.predict_node(&probe));
    }
}
