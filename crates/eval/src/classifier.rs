//! One interface over both recognition systems.
//!
//! The experiments only need two operations — *fit on a training subset*
//! and *predict an application name (or unknown) for a test run* — so both
//! the EFD and the Taxonomist baseline implement [`ExecutionClassifier`].
//!
//! Both implementations cache their per-run reductions (window means for
//! the EFD; whole-window feature rows for the baseline) on first use:
//! the five experiments refit dozens of times on subsets of the same runs,
//! and telemetry regeneration — not model fitting — would otherwise
//! dominate. A classifier instance is therefore tied to the dataset it
//! first saw (asserted).

use std::sync::OnceLock;

use efd_core::observation::LabeledObservation;
use efd_core::training::{Efd, EfdConfig};
use efd_ml::features::FeatureMatrix;
use efd_ml::taxonomist::{Taxonomist, TaxonomistConfig};
use efd_telemetry::trace::MetricSelection;
use efd_telemetry::{Interval, MetricId};
use efd_util::parallel_map;
use efd_workload::Dataset;

use crate::engine::EngineClassifier;

/// A system that learns from labeled runs and predicts application names.
pub trait ExecutionClassifier {
    /// Display name for reports.
    fn name(&self) -> &str;

    /// Learn from the given run indices of `dataset`.
    fn fit(&mut self, dataset: &Dataset, train_idx: &[usize]);

    /// Predict application names (or
    /// [`UNKNOWN_LABEL`](efd_ml::metrics::UNKNOWN_LABEL)) for test runs.
    fn predict_batch(&self, dataset: &Dataset, test_idx: &[usize]) -> Vec<String>;
}

/// The EFD under test: one metric over `interval` (the paper's
/// `[60:120]` in every experiment, others in the interval ablation), auto
/// depth, reported as "EFD".
pub fn efd_classifier(
    metric: MetricId,
    interval: Interval,
) -> EngineClassifier<Efd, impl Fn(&[LabeledObservation]) -> Efd> {
    EngineClassifier::with_interval("EFD", metric, interval, move |train| {
        Efd::fit(
            EfdConfig {
                metrics: vec![metric],
                intervals: vec![interval],
                depth: efd_core::training::DepthPolicy::default(),
            },
            train,
        )
    })
}

/// The Taxonomist baseline: all catalog metrics × whole-execution features
/// × random forest with confidence thresholding.
pub struct TaxonomistClassifier {
    cfg: TaxonomistConfig,
    /// Cached node-feature matrix over the whole dataset.
    features: OnceLock<FeatureMatrix>,
    model: Option<Taxonomist>,
    display_name: String,
}

impl TaxonomistClassifier {
    /// Baseline with the given configuration.
    pub fn new(cfg: TaxonomistConfig) -> Self {
        Self {
            cfg,
            features: OnceLock::new(),
            model: None,
            display_name: "Taxonomist".to_string(),
        }
    }

    fn features_for(&self, dataset: &Dataset) -> &FeatureMatrix {
        self.features.get_or_init(|| {
            let selection = MetricSelection::new(dataset.catalog().ids().collect());
            let idx: Vec<usize> = (0..dataset.len()).collect();
            // Extract per-run in parallel (each run materializes its own
            // trace and drops it immediately), then merge.
            let parts = parallel_map(&idx, |&i| {
                let trace = dataset.materialize(i, &selection);
                let mut fm = FeatureMatrix::default();
                fm.push_trace(&trace, i, None);
                fm
            });
            let mut merged = FeatureMatrix::default();
            for p in parts {
                merged.rows.extend(p.rows);
                merged.labels.extend(p.labels);
                merged.exec_of_row.extend(p.exec_of_row);
            }
            merged
        })
    }
}

impl ExecutionClassifier for TaxonomistClassifier {
    fn name(&self) -> &str {
        &self.display_name
    }

    fn fit(&mut self, dataset: &Dataset, train_idx: &[usize]) {
        let all = self.features_for(dataset);
        let train_set: efd_util::FxHashSet<usize> = train_idx.iter().copied().collect();
        let mut subset = FeatureMatrix::default();
        for (row, (label, &exec)) in all.rows.iter().zip(all.labels.iter().zip(&all.exec_of_row)) {
            if train_set.contains(&exec) {
                subset.rows.push(row.clone());
                subset.labels.push(label.clone());
                subset.exec_of_row.push(exec);
            }
        }
        self.model = Some(Taxonomist::fit(self.cfg, &subset));
    }

    fn predict_batch(&self, dataset: &Dataset, test_idx: &[usize]) -> Vec<String> {
        let model = self.model.as_ref().expect("fit() before predict");
        let all = self.features_for(dataset);
        test_idx
            .iter()
            .map(|&i| {
                let rows: Vec<Vec<f64>> = all
                    .rows_of_exec(i)
                    .into_iter()
                    .map(|r| all.rows[r].clone())
                    .collect();
                model.predict_execution(&rows)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_ml::metrics::UNKNOWN_LABEL;
    use efd_telemetry::catalog::small_catalog;
    use efd_workload::{DatasetSpec, SubsetKind};

    fn tiny_dataset() -> Dataset {
        // Public subset but with the 9-metric catalog: fast.
        let spec = DatasetSpec {
            subset: SubsetKind::Public,
            ..DatasetSpec::default()
        };
        Dataset::with_catalog(spec, small_catalog())
    }

    #[test]
    fn efd_classifier_end_to_end() {
        let d = tiny_dataset();
        let metric = d.catalog().id("nr_mapped_vmstat").unwrap();
        let mut c = efd_classifier(metric, Interval::PAPER_DEFAULT);
        let train: Vec<usize> = (0..d.len()).filter(|i| i % 5 != 0).collect();
        let test: Vec<usize> = (0..d.len()).filter(|i| i % 5 == 0).collect();
        c.fit(&d, &train);
        let preds = c.predict_batch(&d, &test);
        let labels = d.labels();
        let correct = test
            .iter()
            .zip(&preds)
            .filter(|(&i, p)| &labels[i].app == *p)
            .count();
        assert!(
            correct as f64 / test.len() as f64 > 0.9,
            "EFD accuracy {}/{}",
            correct,
            test.len()
        );
    }

    #[test]
    fn taxonomist_classifier_end_to_end() {
        let d = tiny_dataset();
        let mut c = TaxonomistClassifier::new(TaxonomistConfig {
            n_trees: 10,
            ..Default::default()
        });
        let train: Vec<usize> = (0..d.len()).filter(|i| i % 5 != 0).collect();
        let test: Vec<usize> = (0..d.len()).filter(|i| i % 5 == 0).collect();
        c.fit(&d, &train);
        let preds = c.predict_batch(&d, &test);
        let labels = d.labels();
        let correct = test
            .iter()
            .zip(&preds)
            .filter(|(&i, p)| &labels[i].app == *p)
            .count();
        assert!(
            correct as f64 / test.len() as f64 > 0.8,
            "baseline accuracy {}/{}",
            correct,
            test.len()
        );
    }

    #[test]
    fn efd_unknown_for_unseen_app() {
        let d = tiny_dataset();
        let metric = d.catalog().id("nr_mapped_vmstat").unwrap();
        let mut c = efd_classifier(metric, Interval::PAPER_DEFAULT);
        let labels = d.labels();
        // Train without kripke.
        let train: Vec<usize> = (0..d.len())
            .filter(|&i| labels[i].app != "kripke")
            .collect();
        let kripke: Vec<usize> = (0..d.len())
            .filter(|&i| labels[i].app == "kripke")
            .collect();
        c.fit(&d, &train);
        let preds = c.predict_batch(&d, &kripke);
        let unknown = preds.iter().filter(|p| *p == UNKNOWN_LABEL).count();
        assert!(
            unknown as f64 / preds.len() as f64 > 0.7,
            "only {unknown}/{} kripke runs flagged unknown",
            preds.len()
        );
    }
}
