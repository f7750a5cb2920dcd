//! Engine ↔ classifier adapters: one harness over every recognizer.
//!
//! The malware-detection companion paper (Jakobsche & Ciorba, 2024) swaps
//! classifiers over the *same* telemetry; SIREN argues a recognition
//! pipeline should treat identification methods as interchangeable. This
//! module provides the two adapters that make that real here:
//!
//! * [`MlBackend`] — runs the ml baseline families (random forest à la
//!   Taxonomist, kNN, Gaussian naive Bayes) as engine backends: it
//!   implements [`Learn`]/[`Recognize`], so a feature classifier can be
//!   dropped anywhere a dictionary backend goes (conformance harness,
//!   `recognize_batch_parallel`, a `Box<dyn Recognize>` behind the CLI).
//! * [`EngineClassifier`] — the reverse direction: wraps **any**
//!   `Learn + Recognize` engine as an [`ExecutionClassifier`], so engine
//!   backends run under the paper's five-experiment evaluation harness
//!   next to [`crate::EfdClassifier`] and
//!   [`crate::TaxonomistClassifier`].
//!
//! Together: the EFD, Taxonomist-style forests, kNN, and GaussianNb all
//! answer through one `Recognize` interface *and* all score under one
//! evaluation harness.

use std::sync::{Arc, Mutex, OnceLock};

use efd_core::dictionary::AppNameId;
use efd_core::engine::{Learn, Recognize, VoteScratch};
use efd_core::observation::{LabeledObservation, Query};
use efd_core::Recognition;
use efd_ml::metrics::UNKNOWN_LABEL;
use efd_ml::taxonomist::TaxonomistConfig;
use efd_ml::{Classifier, GaussianNb, KNearestNeighbors, RandomForest, RandomForestParams};
use efd_telemetry::trace::MetricSelection;
use efd_telemetry::{Interval, MetricId};
use efd_workload::Dataset;

use crate::classifier::ExecutionClassifier;

/// Which ml family an [`MlBackend`] trains.
#[derive(Debug, Clone, Copy)]
pub enum MlFamily {
    /// Bagged random forest with Taxonomist's tree/threshold settings.
    Forest(TaxonomistConfig),
    /// Brute-force k-nearest-neighbors with `k` neighbors.
    Knn {
        /// Neighbor count.
        k: usize,
    },
    /// Gaussian naive Bayes.
    GaussianNb,
}

impl MlFamily {
    fn name(&self) -> &'static str {
        match self {
            MlFamily::Forest(_) => "forest",
            MlFamily::Knn { .. } => "knn",
            MlFamily::GaussianNb => "gaussian-nb",
        }
    }
}

/// A model fitted over everything learned so far.
struct Fitted {
    /// Sorted application names; class `c` is `classes[c]`.
    classes: Vec<String>,
    model: Box<dyn Classifier + Send + Sync>,
}

/// An ml classifier family behind the engine API.
///
/// [`Learn`] buffers each observation point as one single-feature row
/// (`[window mean]`) labeled with the observation's application;
/// [`Recognize`] classifies every query point and lets confident
/// predictions vote, Taxonomist-style — a prediction whose probability
/// falls below the confidence threshold abstains (the unknown-application
/// safeguard), and a query where every point abstains is
/// [`efd_core::Verdict::Unknown`].
///
/// Fitting is lazy: the model is (re)trained on first recognition after a
/// learn, so `learn_all` over a large corpus costs one fit, not N.
///
/// ```
/// use efd_core::engine::{Learn, Recognize};
/// use efd_core::{LabeledObservation, Query};
/// use efd_eval::engine::MlBackend;
/// use efd_telemetry::{AppLabel, Interval, MetricId};
///
/// let mut knn = MlBackend::knn(3, 0.5);
/// for (app, mean) in [("ft", 6020.0), ("cg", 8110.0)] {
///     knn.learn(&LabeledObservation {
///         label: AppLabel::new(app, "X"),
///         query: Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT,
///                                       &[mean; 4]),
///     });
/// }
/// let q = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[8100.0; 4]);
/// assert_eq!(Recognize::recognize(&knn, &q).best(), Some("cg"));
/// ```
pub struct MlBackend {
    family: MlFamily,
    /// Below this per-point confidence a prediction abstains.
    confidence_threshold: f64,
    rows: Vec<Vec<f64>>,
    apps: Vec<String>,
    /// Fitted-model cache, invalidated by learning (interior mutability:
    /// `Recognize` takes `&self`).
    fitted: Mutex<Option<Arc<Fitted>>>,
}

impl std::fmt::Debug for MlBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MlBackend")
            .field("family", &self.family)
            .field("rows", &self.rows.len())
            .finish_non_exhaustive()
    }
}

impl MlBackend {
    /// A backend training `family`, abstaining below
    /// `confidence_threshold`.
    pub fn new(family: MlFamily, confidence_threshold: f64) -> Self {
        Self {
            family,
            confidence_threshold,
            rows: Vec::new(),
            apps: Vec::new(),
            fitted: Mutex::new(None),
        }
    }

    /// Random-forest backend with Taxonomist's configuration (the
    /// threshold comes from `cfg.confidence_threshold`).
    pub fn forest(cfg: TaxonomistConfig) -> Self {
        Self::new(MlFamily::Forest(cfg), cfg.confidence_threshold)
    }

    /// kNN backend (`k` neighbors, abstain below `confidence_threshold`).
    pub fn knn(k: usize, confidence_threshold: f64) -> Self {
        Self::new(MlFamily::Knn { k }, confidence_threshold)
    }

    /// Gaussian-naive-Bayes backend.
    pub fn gaussian_nb(confidence_threshold: f64) -> Self {
        Self::new(MlFamily::GaussianNb, confidence_threshold)
    }

    /// Family display name (`forest` / `knn` / `gaussian-nb`).
    pub fn family_name(&self) -> &'static str {
        self.family.name()
    }

    /// Training rows buffered so far.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Fit (or reuse) the model over everything learned so far.
    fn fitted(&self) -> Option<Arc<Fitted>> {
        if self.rows.is_empty() {
            return None;
        }
        let mut guard = self.fitted.lock().expect("fitted cache poisoned");
        if let Some(f) = guard.as_ref() {
            return Some(Arc::clone(f));
        }
        let mut classes = self.apps.clone();
        classes.sort();
        classes.dedup();
        let y: Vec<usize> = self
            .apps
            .iter()
            .map(|a| classes.binary_search(a).expect("class interned"))
            .collect();
        let model: Box<dyn Classifier + Send + Sync> = match self.family {
            MlFamily::Forest(cfg) => Box::new(RandomForest::fit(
                RandomForestParams {
                    n_trees: cfg.n_trees,
                    tree: efd_ml::TreeParams {
                        max_depth: cfg.max_depth,
                        ..efd_ml::TreeParams::default()
                    },
                    seed: cfg.seed,
                    bootstrap: true,
                },
                &self.rows,
                &y,
                classes.len(),
            )),
            MlFamily::Knn { k } => Box::new(KNearestNeighbors::fit(
                k,
                self.rows.clone(),
                y,
                classes.len(),
            )),
            MlFamily::GaussianNb => Box::new(GaussianNb::fit(&self.rows, &y, classes.len())),
        };
        let fitted = Arc::new(Fitted { classes, model });
        *guard = Some(Arc::clone(&fitted));
        Some(fitted)
    }
}

impl Learn for MlBackend {
    fn learn(&mut self, obs: &LabeledObservation) {
        for p in &obs.query.points {
            if !p.mean.is_finite() {
                continue;
            }
            self.rows.push(vec![p.mean]);
            self.apps.push(obs.label.app.clone());
        }
        // Invalidate the fitted model; the next recognition refits.
        *self.fitted.get_mut().expect("fitted cache poisoned") = None;
    }
}

impl Recognize for MlBackend {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        let total = query.points.len();
        let Some(fitted) = self.fitted() else {
            return scratch.finish(&[], &[], 0, total);
        };
        scratch.ensure(0, fitted.classes.len());
        let mut matched = 0usize;
        for p in &query.points {
            if !p.mean.is_finite() {
                continue;
            }
            let proba = fitted.model.predict_proba(&[p.mean]);
            let (best, conf) = proba
                .iter()
                .enumerate()
                .fold((0usize, 0.0f64), |acc, (i, &v)| {
                    if v > acc.1 {
                        (i, v)
                    } else {
                        acc
                    }
                });
            if conf < self.confidence_threshold {
                continue; // abstain: the unknown-application safeguard
            }
            matched += 1;
            scratch.vote_app(AppNameId::from_index(best));
        }
        scratch.finish(&[], &fitted.classes, matched, total)
    }
}

/// Any engine behind the evaluation harness.
///
/// Adapts a `Learn + Recognize` backend into an [`ExecutionClassifier`]:
/// `fit` rebuilds a fresh engine (via the factory) and feeds it the
/// training runs' window means over one metric/interval — the same data
/// diet as [`crate::EfdClassifier`] — and `predict_batch` recognizes each
/// test run, scoring [`Recognition::best`] (or [`UNKNOWN_LABEL`]).
/// Per-run means are cached, since experiments refit dozens of times on
/// subsets of the same runs.
///
/// ```no_run
/// use efd_core::{EfdDictionary, RoundingDepth};
/// use efd_eval::engine::{EngineClassifier, MlBackend};
/// use efd_eval::{run_experiment, EvalOptions, ExperimentKind};
/// use efd_telemetry::MetricId;
/// # let dataset: efd_workload::Dataset = unimplemented!();
///
/// // The EFD and a kNN classifier under the *same* experiment harness:
/// let mut efd = EngineClassifier::new("EFD(engine)", MetricId(0), || {
///     EfdDictionary::new(RoundingDepth::new(2))
/// });
/// let mut knn = EngineClassifier::new("kNN(engine)", MetricId(0), || {
///     MlBackend::knn(5, 0.5)
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
    E: Learn + Recognize,
    F: Fn() -> E,
{
    /// Classifier over `metric` with the paper's `[60:120]` window; each
    /// `fit` builds a fresh engine from `factory`.
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
    E: Learn + Recognize,
    F: Fn() -> E,
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
        let mut engine = (self.factory)();
        engine.learn_all(&observations);
        self.engine = Some(engine);
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
    use efd_core::{EfdDictionary, RoundingDepth, Verdict};
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

    fn backends() -> Vec<MlBackend> {
        vec![
            MlBackend::forest(TaxonomistConfig {
                n_trees: 10,
                ..Default::default()
            }),
            MlBackend::knn(3, 0.5),
            MlBackend::gaussian_nb(0.5),
        ]
    }

    #[test]
    fn every_family_learns_and_recognizes() {
        for mut b in backends() {
            for (app, mean) in [("ft", 6020.0), ("cg", 8110.0), ("lu", 4320.0)] {
                b.learn(&obs(app, mean));
            }
            for (app, mean) in [("ft", 6015.0), ("cg", 8100.0), ("lu", 4310.0)] {
                let q = Query::from_node_means(M, W, &[mean; 4]);
                let r = Recognize::recognize(&b, &q);
                assert_eq!(r.best(), Some(app), "{}", b.family_name());
                assert_eq!(r.total_points, 4);
                assert_eq!(r.matched_points, 4, "{}", b.family_name());
            }
        }
    }

    #[test]
    fn unfitted_backend_answers_unknown() {
        let b = MlBackend::knn(1, 0.5);
        let r = Recognize::recognize(&b, &Query::from_node_means(M, W, &[1.0; 2]));
        assert_eq!(r.verdict, Verdict::Unknown);
        assert_eq!(r.total_points, 2);
    }

    #[test]
    fn learning_invalidates_the_fitted_model() {
        let mut b = MlBackend::knn(1, 0.5);
        b.learn(&obs("ft", 6020.0));
        let q = Query::from_node_means(M, W, &[9000.0; 4]);
        assert_eq!(Recognize::recognize(&b, &q).best(), Some("ft"));
        b.learn(&obs("hpcg", 9000.0));
        assert_eq!(Recognize::recognize(&b, &q).best(), Some("hpcg"));
    }

    #[test]
    fn low_confidence_abstains_into_unknown() {
        // Gaussian NB halfway between two symmetric classes is ~50/50 —
        // below the 90% threshold every point abstains (the Taxonomist
        // unknown-application safeguard, ported to the engine API).
        let mut b = MlBackend::gaussian_nb(0.9);
        b.learn(&obs("ft", 6000.0));
        b.learn(&obs("ft", 6040.0));
        b.learn(&obs("cg", 8100.0));
        b.learn(&obs("cg", 8140.0));
        let r = Recognize::recognize(&b, &Query::from_node_means(M, W, &[7070.0; 4]));
        assert_eq!(r.verdict, Verdict::Unknown, "votes: {:?}", r.app_votes);
        assert_eq!(r.matched_points, 0);
        // Near a learned level the same backend stays confident.
        let r = Recognize::recognize(&b, &Query::from_node_means(M, W, &[6010.0; 4]));
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

        let mut efd = EngineClassifier::new("EFD(engine)", metric, || {
            EfdDictionary::new(RoundingDepth::new(3))
        });
        let mut knn = EngineClassifier::new("kNN(engine)", metric, || MlBackend::knn(5, 0.5));
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
