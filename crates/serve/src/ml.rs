//! The ml baselines behind the engine API: a classifier trained on
//! single-point rows and served as a [`Recognize`] backend.
//!
//! [`crate::Backend`] builds every one of them (kNN, Gaussian naive
//! Bayes and the Taxonomist-style forest); this module holds what they
//! share — how training points become rows and how a query's points
//! vote.

use efd_core::dictionary::AppNameId;
use efd_core::engine::{Recognize, VoteScratch};
use efd_core::observation::{LabeledObservation, Query};
use efd_core::Recognition;
use efd_ml::Classifier;

/// An ml classifier behind the engine API.
///
/// [`MlBackend::fit`] trains on each observation point as one
/// single-feature row (`[window mean]`) labeled with the observation's
/// application; [`Recognize`] classifies every query point and lets
/// confident predictions vote, Taxonomist-style — a prediction whose
/// probability falls below the abstention threshold abstains (the
/// unknown-application safeguard), and a query where every point abstains
/// is [`efd_core::Verdict::Unknown`].
pub(crate) struct MlBackend {
    /// Below this per-point confidence a prediction abstains.
    min_confidence: f64,
    /// Sorted application names; class `c` is `classes[c]`.
    classes: Vec<String>,
    /// `None` when the training set held no finite point: every query
    /// is then [`efd_core::Verdict::Unknown`].
    model: Option<Box<dyn Classifier + Send + Sync>>,
}

impl MlBackend {
    /// Train on every finite point of `observations` with `train`
    /// (given the rows, their classes and the class count), abstaining
    /// below `min_confidence`.
    pub(crate) fn fit<C: Classifier + Send + Sync + 'static>(
        observations: &[LabeledObservation],
        min_confidence: f64,
        train: impl FnOnce(Vec<Vec<f64>>, Vec<usize>, usize) -> C,
    ) -> Self {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut apps: Vec<&str> = Vec::new();
        for obs in observations {
            for p in &obs.query.points {
                if p.mean.is_finite() {
                    rows.push(vec![p.mean]);
                    apps.push(&obs.label.app);
                }
            }
        }
        let mut classes = apps.clone();
        classes.sort_unstable();
        classes.dedup();
        let model = (!rows.is_empty()).then(|| {
            let y: Vec<usize> = apps
                .iter()
                .map(|a| classes.binary_search(a).expect("class interned"))
                .collect();
            Box::new(train(rows, y, classes.len())) as Box<dyn Classifier + Send + Sync>
        });
        Self {
            min_confidence,
            classes: classes.into_iter().map(str::to_string).collect(),
            model,
        }
    }
}

impl Recognize for MlBackend {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        let total = query.points.len();
        let Some(model) = &self.model else {
            return scratch.finish(&[], &[], 0, total);
        };
        scratch.ensure(0, self.classes.len());
        let mut matched = 0usize;
        for p in &query.points {
            if !p.mean.is_finite() {
                continue;
            }
            let proba = model.predict_proba(&[p.mean]);
            let (best, conf) = proba
                .iter()
                .enumerate()
                .fold(
                    (0usize, 0.0f64),
                    |acc, (i, &v)| {
                        if v > acc.1 {
                            (i, v)
                        } else {
                            acc
                        }
                    },
                );
            if conf < self.min_confidence {
                continue; // abstain: the unknown-application safeguard
            }
            matched += 1;
            scratch.vote_app(AppNameId::from_index(best));
        }
        scratch.finish(&[], &self.classes, matched, total)
    }
}
