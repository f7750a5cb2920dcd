//! Depth selection and the high-level [`Efd`] facade.
//!
//! > "Rounding depth is the only tunable parameter in the EFD. During the
//! > learning phase we find the optimal rounding depth through cross-fold
//! > validation within the training set."
//!
//! [`Efd::fit`] implements exactly that: for every candidate depth, build
//! dictionaries on inner-fold training splits and score recognition on the
//! inner test splits; keep the depth with the best mean score. The paper
//! does not name the inner criterion; we use recognition accuracy over
//! application names (on these dictionaries it selects the same depth as
//! macro-F1 — the trade-off it navigates is exclusiveness vs repetition,
//! which both criteria see identically). Ties prefer the *smaller* depth:
//! more pruning means more robustness to unseen measurement variation.

use efd_telemetry::trace::ExecutionTrace;
use efd_telemetry::{Interval, MetricId};
use efd_util::split::stratified_k_fold_by;

use crate::dictionary::{EfdDictionary, Recognition};
use crate::observation::{LabeledObservation, Query};
use crate::rounding::RoundingDepth;

/// How the rounding depth is chosen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepthPolicy {
    /// Use a fixed depth (the paper's Table 4 uses 2).
    Fixed(RoundingDepth),
    /// Select by cross-fold validation inside the training set.
    Auto {
        /// Depths to try.
        candidates: Vec<RoundingDepth>,
        /// Inner folds.
        folds: usize,
        /// Shuffle seed for the inner folds.
        seed: u64,
    },
}

impl Default for DepthPolicy {
    fn default() -> Self {
        DepthPolicy::Auto {
            candidates: RoundingDepth::candidates(),
            folds: 5,
            seed: 0x5EED,
        }
    }
}

/// EFD configuration: which metrics and intervals to fingerprint, and how
/// to choose the depth. The paper's configuration is one metric × the
/// `[60:120]` interval × auto depth.
#[derive(Debug, Clone, PartialEq)]
pub struct EfdConfig {
    /// Metrics to fingerprint (usually one).
    pub metrics: Vec<MetricId>,
    /// Intervals to fingerprint (usually `[60:120]`).
    pub intervals: Vec<Interval>,
    /// Depth policy.
    pub depth: DepthPolicy,
}

impl EfdConfig {
    /// The paper's configuration for a given metric.
    pub fn single_metric(metric: MetricId) -> Self {
        Self {
            metrics: vec![metric],
            intervals: vec![Interval::PAPER_DEFAULT],
            depth: DepthPolicy::default(),
        }
    }

    /// Same, with a fixed depth.
    pub fn single_metric_fixed(metric: MetricId, depth: RoundingDepth) -> Self {
        Self {
            metrics: vec![metric],
            intervals: vec![Interval::PAPER_DEFAULT],
            depth: DepthPolicy::Fixed(depth),
        }
    }
}

/// A trained EFD: the dictionary plus the depth that built it.
#[derive(Debug, Clone)]
pub struct Efd {
    config: EfdConfig,
    dictionary: EfdDictionary,
    depth_scores: Vec<(RoundingDepth, f64)>,
}

impl Efd {
    /// Learn from labeled observations, selecting the depth per the
    /// config's policy, then build the final dictionary on *all* of
    /// `train`.
    pub fn fit(config: EfdConfig, train: &[LabeledObservation]) -> Self {
        let (depth, depth_scores) = match &config.depth {
            DepthPolicy::Fixed(d) => (*d, Vec::new()),
            DepthPolicy::Auto {
                candidates,
                folds,
                seed,
            } => select_depth(candidates, *folds, *seed, train),
        };
        let mut dictionary = EfdDictionary::new(depth);
        dictionary.learn_all(train);
        Self {
            config,
            dictionary,
            depth_scores,
        }
    }

    /// Convenience: reduce traces to observations and fit.
    pub fn fit_traces(config: EfdConfig, traces: &[ExecutionTrace]) -> Self {
        let obs: Vec<LabeledObservation> = traces
            .iter()
            .map(|t| LabeledObservation::from_trace(t, &config.metrics, &config.intervals))
            .collect();
        Self::fit(config, &obs)
    }

    /// Recognize a query.
    pub fn recognize(&self, query: &Query) -> Recognition {
        self.dictionary.recognize(query)
    }

    /// Recognize a trace (reduced with this EFD's metrics/intervals).
    pub fn recognize_trace(&self, trace: &ExecutionTrace) -> Recognition {
        let q = Query::from_trace(trace, &self.config.metrics, &self.config.intervals);
        self.recognize(&q)
    }

    /// The trained dictionary.
    pub fn dictionary(&self) -> &EfdDictionary {
        &self.dictionary
    }

    /// The configuration (metrics, intervals, policy).
    pub fn config(&self) -> &EfdConfig {
        &self.config
    }

    /// The depth in effect.
    pub fn depth(&self) -> RoundingDepth {
        self.dictionary.depth()
    }

    /// Mean inner-CV score per candidate depth (empty for fixed policy).
    pub fn depth_scores(&self) -> &[(RoundingDepth, f64)] {
        &self.depth_scores
    }
}

/// Inner cross-validation over candidate depths. Returns the chosen depth
/// and the mean score per candidate.
fn select_depth(
    candidates: &[RoundingDepth],
    folds: usize,
    seed: u64,
    train: &[LabeledObservation],
) -> (RoundingDepth, Vec<(RoundingDepth, f64)>) {
    assert!(!candidates.is_empty(), "no candidate depths");
    let fallback = candidates[0];
    if train.len() < folds.max(2) {
        return (fallback, Vec::new());
    }

    let labels: Vec<String> = train.iter().map(|o| o.label.to_string()).collect();
    let folds = stratified_k_fold_by(&labels, folds, seed);

    let mut scores = Vec::with_capacity(candidates.len());
    for &depth in candidates {
        let mut total_correct = 0usize;
        let mut total = 0usize;
        for fold in &folds {
            if fold.test.is_empty() || fold.train.is_empty() {
                continue;
            }
            let mut dict = EfdDictionary::new(depth);
            for &i in &fold.train {
                dict.learn(&train[i]);
            }
            for &i in &fold.test {
                let r = dict.recognize(&train[i].query);
                if r.best() == Some(train[i].label.app.as_str()) {
                    total_correct += 1;
                }
                total += 1;
            }
        }
        let score = if total == 0 {
            0.0
        } else {
            total_correct as f64 / total as f64
        };
        scores.push((depth, score));
    }

    // Max score; ties prefer the smaller depth (candidates are tried in
    // the given order and `>` keeps the first maximum).
    let mut best = scores[0];
    for &(d, s) in &scores[1..] {
        if s > best.1 {
            best = (d, s);
        }
    }
    (best.0, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_telemetry::{AppLabel, MetricId};
    use efd_util::rng::SplitMix64;

    const M: MetricId = MetricId(0);
    const W: Interval = Interval::PAPER_DEFAULT;

    /// Synthetic training set where depth 2 collides two apps (sp/bt at
    /// ~7520/7540) but depth 3 separates them; depth 4+ overfits (every run
    /// gets a unique key).
    fn training_set(reps: usize) -> Vec<LabeledObservation> {
        let mut rng = SplitMix64::new(42);
        let mut out = Vec::new();
        for rep in 0..reps {
            for (app, base) in [
                ("ft", 6020.0),
                ("mg", 6110.0),
                ("sp", 7520.0),
                ("bt", 7540.0),
                ("lu", 8330.0),
            ] {
                let means: Vec<f64> = (0..4).map(|_| base + rng.next_gaussian() * 2.0).collect();
                out.push(LabeledObservation {
                    label: AppLabel::new(app, "X"),
                    query: Query::from_node_means(M, W, &means),
                });
            }
            let _ = rep;
        }
        out
    }

    #[test]
    fn auto_depth_picks_separating_depth() {
        let train = training_set(10);
        let efd = Efd::fit(EfdConfig::single_metric(M), &train);
        // Depth 2 ties sp/bt (accuracy ~0.8–0.9); depth 3 separates them.
        assert_eq!(efd.depth().get(), 3, "scores: {:?}", efd.depth_scores());
        let scores = efd.depth_scores();
        assert_eq!(scores.len(), 6);
        let s2 = scores.iter().find(|(d, _)| d.get() == 2).unwrap().1;
        let s3 = scores.iter().find(|(d, _)| d.get() == 3).unwrap().1;
        assert!(s3 > s2, "depth 3 ({s3}) should beat depth 2 ({s2})");
    }

    #[test]
    fn fixed_depth_respected() {
        let train = training_set(5);
        let efd = Efd::fit(
            EfdConfig::single_metric_fixed(M, RoundingDepth::new(2)),
            &train,
        );
        assert_eq!(efd.depth().get(), 2);
        assert!(efd.depth_scores().is_empty());
    }

    #[test]
    fn recognizes_after_fit() {
        let train = training_set(10);
        let efd = Efd::fit(EfdConfig::single_metric(M), &train);
        let q = Query::from_node_means(M, W, &[8331.0, 8329.0, 8332.0, 8330.0]);
        assert_eq!(efd.recognize(&q).best(), Some("lu"));
        // sp and bt both recognized at the selected depth.
        let q = Query::from_node_means(M, W, &[7519.0, 7521.0, 7520.0, 7518.0]);
        assert_eq!(efd.recognize(&q).best(), Some("sp"));
        let q = Query::from_node_means(M, W, &[7541.0, 7539.0, 7540.0, 7542.0]);
        assert_eq!(efd.recognize(&q).best(), Some("bt"));
    }

    #[test]
    fn unknown_app_stays_unknown() {
        let train = training_set(10);
        let efd = Efd::fit(EfdConfig::single_metric(M), &train);
        let q = Query::from_node_means(M, W, &[12345.0, 12340.0, 12350.0, 12344.0]);
        assert_eq!(efd.recognize(&q).best(), None);
    }

    #[test]
    fn tiny_training_set_falls_back() {
        let train = training_set(1); // 5 observations < 5 folds? equals; shrink further
        let efd = Efd::fit(EfdConfig::single_metric(M), &train[..3]);
        // Fallback = first candidate.
        assert_eq!(efd.depth().get(), 1);
        // Dictionary still built on everything.
        assert_eq!(efd.dictionary().label_count(), 3);
    }

    #[test]
    fn depth_selection_is_deterministic() {
        let train = training_set(8);
        let a = Efd::fit(EfdConfig::single_metric(M), &train);
        let b = Efd::fit(EfdConfig::single_metric(M), &train);
        assert_eq!(a.depth(), b.depth());
        assert_eq!(a.depth_scores(), b.depth_scores());
    }
}
