//! Engine → classifier adapter: one harness over every recognizer.
//!
//! The malware-detection companion paper (Jakobsche & Ciorba, 2024) swaps
//! classifiers over the *same* telemetry; SIREN argues a recognition
//! pipeline should treat identification methods as interchangeable. The
//! backend registry, [`efd_serve::Backend`], builds every recognizer —
//! the dictionary stores and the ml baselines (kNN, Gaussian naive
//! Bayes, the Taxonomist-style forest) — behind one [`Recognize`]
//! interface. [`EngineClassifier`] is the other direction: it wraps any
//! [`Recognize`] engine built from a training set as an
//! [`ExecutionClassifier`], so engine backends run under the paper's
//! five-experiment evaluation harness next to [`crate::efd_classifier`]
//! and [`crate::TaxonomistClassifier`].

use std::sync::OnceLock;

use efd_core::engine::{Recognize, VoteScratch};
use efd_core::observation::{LabeledObservation, Query};
use efd_ml::metrics::UNKNOWN_LABEL;
use efd_telemetry::trace::MetricSelection;
use efd_telemetry::{Interval, MetricId};
use efd_workload::Dataset;

use crate::classifier::ExecutionClassifier;

/// Any engine behind the evaluation harness.
///
/// Adapts a [`Recognize`] engine into an [`ExecutionClassifier`]: `fit`
/// reduces the training runs to their window means over one
/// metric/interval and has the factory build a fitted engine from those
/// observations, and `predict_batch` recognizes each test run, scoring
/// [`efd_core::Recognition::best`] (or [`UNKNOWN_LABEL`]). Per-run means are
/// cached, since experiments refit dozens of times on subsets of the same
/// runs.
///
/// ```no_run
/// use efd_core::{EfdDictionary, RoundingDepth};
/// use efd_eval::engine::EngineClassifier;
/// use efd_eval::{run_experiment, EvalOptions, ExperimentKind};
/// use efd_serve::Backend;
/// use efd_telemetry::MetricId;
/// # let dataset: efd_workload::Dataset = unimplemented!();
///
/// // The EFD and a kNN classifier under the *same* experiment harness:
/// let mut efd = EngineClassifier::new("EFD(engine)", MetricId(0), |train| {
///     let mut dict = EfdDictionary::new(RoundingDepth::new(2));
///     dict.learn_all(train);
///     dict
/// });
/// let mut knn = EngineClassifier::new("kNN(engine)", MetricId(0), |train| {
///     Backend::Knn { k: 5 }.fit(train, RoundingDepth::new(2), 0.5).unwrap()
/// });
/// for c in [&mut efd as &mut dyn efd_eval::ExecutionClassifier, &mut knn] {
///     let r = run_experiment(ExperimentKind::NormalFold, c, &dataset,
///                            &EvalOptions::default());
///     println!("{}: {:.3}", r.classifier, r.mean_f1);
/// }
/// ```
pub struct EngineClassifier<E, F> {
    display_name: String,
    metric: MetricId,
    interval: Interval,
    factory: F,
    engine: Option<E>,
    /// Cached per-run node means: `means[run][node]`.
    means: OnceLock<Vec<Vec<f64>>>,
    dataset_fingerprint: OnceLock<u64>,
}

impl<E, F> EngineClassifier<E, F>
where
    E: Recognize,
    F: Fn(&[LabeledObservation]) -> E,
{
    /// Classifier over `metric` with the paper's `[60:120]` window; each
    /// `fit` has `factory` build a fitted engine from the training
    /// observations.
    pub fn new(name: impl Into<String>, metric: MetricId, factory: F) -> Self {
        Self::with_interval(name, metric, Interval::PAPER_DEFAULT, factory)
    }

    /// [`EngineClassifier::new`] with a custom window.
    pub fn with_interval(
        name: impl Into<String>,
        metric: MetricId,
        interval: Interval,
        factory: F,
    ) -> Self {
        Self {
            display_name: name.into(),
            metric,
            interval,
            factory,
            engine: None,
            means: OnceLock::new(),
            dataset_fingerprint: OnceLock::new(),
        }
    }

    /// The engine of the most recent [`ExecutionClassifier::fit`].
    pub fn engine(&self) -> Option<&E> {
        self.engine.as_ref()
    }

    fn means_for(&self, dataset: &Dataset) -> &Vec<Vec<f64>> {
        let fp = self
            .dataset_fingerprint
            .get_or_init(|| dataset.spec().master_seed ^ dataset.len() as u64);
        assert_eq!(
            *fp,
            dataset.spec().master_seed ^ dataset.len() as u64,
            "classifier reused across datasets"
        );
        self.means.get_or_init(|| {
            let sel = MetricSelection::single(self.metric);
            dataset
                .window_means_all(&sel, self.interval)
                .into_iter()
                .map(|per_node| per_node.into_iter().map(|m| m[0]).collect())
                .collect()
        })
    }
}

impl<E, F> ExecutionClassifier for EngineClassifier<E, F>
where
    E: Recognize,
    F: Fn(&[LabeledObservation]) -> E,
{
    fn name(&self) -> &str {
        &self.display_name
    }

    fn fit(&mut self, dataset: &Dataset, train_idx: &[usize]) {
        let means = self.means_for(dataset);
        let labels = dataset.labels();
        let observations: Vec<LabeledObservation> = train_idx
            .iter()
            .map(|&i| LabeledObservation {
                label: labels[i].clone(),
                query: Query::from_node_means(self.metric, self.interval, &means[i]),
            })
            .collect();
        self.engine = Some((self.factory)(&observations));
    }

    fn predict_batch(&self, dataset: &Dataset, test_idx: &[usize]) -> Vec<String> {
        let engine = self.engine.as_ref().expect("fit() before predict");
        let means = self.means_for(dataset);
        let mut scratch = VoteScratch::default();
        test_idx
            .iter()
            .map(|&i| {
                let q = Query::from_node_means(self.metric, self.interval, &means[i]);
                engine
                    .recognize_into(&q, &mut scratch)
                    .best()
                    .map(str::to_string)
                    .unwrap_or_else(|| UNKNOWN_LABEL.to_string())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use efd_core::{EfdDictionary, RoundingDepth, Verdict};
    use efd_serve::Backend;
    use efd_telemetry::catalog::small_catalog;
    use efd_telemetry::AppLabel;
    use efd_workload::{DatasetSpec, SubsetKind};

    const M: MetricId = MetricId(0);
    const W: Interval = Interval::PAPER_DEFAULT;

    fn obs(app: &str, mean: f64) -> LabeledObservation {
        LabeledObservation {
            label: AppLabel::new(app, "X"),
            query: Query::from_node_means(M, W, &[mean; 4]),
        }
    }

    fn families() -> [Backend; 3] {
        [Backend::Forest, Backend::Knn { k: 3 }, Backend::GaussianNb]
    }

    /// `family` trained on `train` through the registry.
    fn fit(
        family: Backend,
        min_confidence: f64,
        train: &[LabeledObservation],
    ) -> Arc<dyn Recognize + Send + Sync> {
        family
            .fit(train, RoundingDepth::new(2), min_confidence)
            .expect("an ml backend always fits")
    }

    #[test]
    fn every_family_learns_and_recognizes() {
        let train: Vec<LabeledObservation> = [("ft", 6020.0), ("cg", 8110.0), ("lu", 4320.0)]
            .into_iter()
            .map(|(app, mean)| obs(app, mean))
            .collect();
        for family in families() {
            let b = fit(family, 0.5, &train);
            for (app, mean) in [("ft", 6015.0), ("cg", 8100.0), ("lu", 4310.0)] {
                let q = Query::from_node_means(M, W, &[mean; 4]);
                let r = b.recognize(&q);
                assert_eq!(r.best(), Some(app), "{family:?}");
                assert_eq!(r.total_points, 4);
                assert_eq!(r.matched_points, 4, "{family:?}");
            }
        }
    }

    #[test]
    fn fit_on_no_observations_answers_unknown() {
        for family in families() {
            let b = fit(family, 0.5, &[]);
            let r = b.recognize(&Query::from_node_means(M, W, &[1.0; 2]));
            assert_eq!(r.verdict, Verdict::Unknown, "{family:?}");
            assert_eq!(r.total_points, 2);
        }
    }

    #[test]
    fn low_confidence_abstains_into_unknown() {
        // Gaussian NB halfway between two symmetric classes is ~50/50 —
        // below the 90% threshold every point abstains (the Taxonomist
        // unknown-application safeguard, ported to the engine API).
        let train = [
            obs("ft", 6000.0),
            obs("ft", 6040.0),
            obs("cg", 8100.0),
            obs("cg", 8140.0),
        ];
        let b = fit(Backend::GaussianNb, 0.9, &train);
        let r = b.recognize(&Query::from_node_means(M, W, &[7070.0; 4]));
        assert_eq!(r.verdict, Verdict::Unknown, "votes: {:?}", r.app_votes);
        assert_eq!(r.matched_points, 0);
        // Near a learned level the same backend stays confident.
        let r = b.recognize(&Query::from_node_means(M, W, &[6010.0; 4]));
        assert_eq!(r.best(), Some("ft"));
    }

    #[test]
    fn engine_classifier_runs_efd_and_ml_under_eval_harness() {
        let spec = DatasetSpec {
            subset: SubsetKind::Public,
            ..DatasetSpec::default()
        };
        let d = Dataset::with_catalog(spec, small_catalog());
        let metric = d.catalog().id("nr_mapped_vmstat").unwrap();
        let train: Vec<usize> = (0..d.len()).filter(|i| i % 5 != 0).collect();
        let test: Vec<usize> = (0..d.len()).filter(|i| i % 5 == 0).collect();
        let labels = d.labels();

        let mut efd = EngineClassifier::new("EFD(engine)", metric, |train| {
            let mut dict = EfdDictionary::new(RoundingDepth::new(3));
            dict.learn_all(train);
            dict
        });
        let mut knn = EngineClassifier::new("kNN(engine)", metric, |train| {
            fit(Backend::Knn { k: 5 }, 0.5, train)
        });
        let classifiers: [&mut dyn ExecutionClassifier; 2] = [&mut efd, &mut knn];
        for c in classifiers {
            c.fit(&d, &train);
            let preds = c.predict_batch(&d, &test);
            let correct = test
                .iter()
                .zip(&preds)
                .filter(|(&i, p)| &labels[i].app == *p)
                .count();
            assert!(
                correct * 10 >= test.len() * 8,
                "{}: {correct}/{}",
                c.name(),
                test.len()
            );
        }
    }
}
