//! Reverse lookup: resource-usage prediction (paper future work, §6).
//!
//! > "Populating the dictionary with different time intervals could enable
//! > resource usage prediction, by using the dictionary in reverse, namely
//! > by looking up applications to report potential future resource usage
//! > based on resource usage in the past."
//!
//! Given an application name (e.g. just recognized from its first two
//! minutes), enumerate its stored fingerprints and report the expected
//! per-interval means — a forecast of the rest of the execution.

use efd_telemetry::{Interval, MetricId, NodeId};
use efd_util::FxHashMap;

use crate::dictionary::EfdDictionary;

/// Expected usage of one (metric, node, interval) for an application:
/// every stored fingerprint mean (several, when runs varied).
#[derive(Debug, Clone, PartialEq)]
pub struct UsagePrediction {
    /// Metric.
    pub metric: MetricId,
    /// Node.
    pub node: NodeId,
    /// Interval.
    pub interval: Interval,
    /// Stored fingerprint means, ascending.
    pub means: Vec<f64>,
}

impl UsagePrediction {
    /// Midpoint expectation (mean of stored means).
    pub fn expected(&self) -> f64 {
        self.means.iter().sum::<f64>() / self.means.len() as f64
    }

    /// Spread of stored means (max − min): how consistent past runs were.
    pub fn spread(&self) -> f64 {
        match (self.means.first(), self.means.last()) {
            (Some(lo), Some(hi)) => hi - lo,
            _ => 0.0,
        }
    }
}

/// All predictions for `app`, sorted by (interval, metric, node).
/// Filters by application *name*, aggregating over input sizes unless
/// `input` is given.
pub fn predict_usage(dict: &EfdDictionary, app: &str, input: Option<&str>) -> Vec<UsagePrediction> {
    let mut groups: FxHashMap<(MetricId, NodeId, Interval), Vec<f64>> = FxHashMap::default();
    for (fp, labels) in dict.entries() {
        let matches = labels
            .iter()
            .any(|l| l.app == app && input.is_none_or(|i| l.input == i));
        if matches {
            groups
                .entry((fp.metric, fp.node, fp.interval))
                .or_default()
                .push(fp.mean());
        }
    }
    let mut out: Vec<UsagePrediction> = groups
        .into_iter()
        .map(|((metric, node, interval), mut means)| {
            means.sort_by(|a, b| a.partial_cmp(b).unwrap());
            UsagePrediction {
                metric,
                node,
                interval,
                means,
            }
        })
        .collect();
    out.sort_by_key(|p| (p.interval, p.metric, p.node));
    out
}

/// Per-interval expected usage of one metric for `app`, averaged over
/// nodes — the "future resource usage" time line. Aggregates over all
/// input sizes; prefer [`predict_timeline_for`] when the input size was
/// predicted too (inputs can shift footprints by large factors, e.g.
/// miniAMR L).
pub fn predict_timeline(dict: &EfdDictionary, app: &str, metric: MetricId) -> Vec<(Interval, f64)> {
    predict_timeline_for(dict, app, None, metric)
}

/// Like [`predict_timeline`], restricted to one input size when given.
pub fn predict_timeline_for(
    dict: &EfdDictionary,
    app: &str,
    input: Option<&str>,
    metric: MetricId,
) -> Vec<(Interval, f64)> {
    let mut per_interval: FxHashMap<Interval, (f64, usize)> = FxHashMap::default();
    for p in predict_usage(dict, app, input) {
        if p.metric != metric {
            continue;
        }
        let e = per_interval.entry(p.interval).or_insert((0.0, 0));
        e.0 += p.expected();
        e.1 += 1;
    }
    let mut out: Vec<(Interval, f64)> = per_interval
        .into_iter()
        .map(|(iv, (sum, n))| (iv, sum / n as f64))
        .collect();
    out.sort_by_key(|(iv, _)| *iv);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{LabeledObservation, ObsPoint, Query};
    use crate::rounding::RoundingDepth;
    use efd_telemetry::AppLabel;

    const M: MetricId = MetricId(0);

    fn dict_with_timeline() -> EfdDictionary {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        let tiling = Interval::tiling(60, 240);
        // miniAMR ramps 7800 → 8000 → 8200 → 8400 on both nodes; two runs
        // with slight variation to exercise multi-mean entries.
        for (run, bump) in [(0, 0.0), (1, 60.0)] {
            let _ = run;
            let mut q = Query::default();
            for node in 0..2u16 {
                for (i, &iv) in tiling.iter().enumerate() {
                    q.points.push(ObsPoint {
                        metric: M,
                        node: NodeId(node),
                        interval: iv,
                        mean: 7800.0 + 200.0 * i as f64 + bump,
                    });
                }
            }
            d.learn(&LabeledObservation {
                label: AppLabel::new("miniAMR", "X"),
                query: q,
            });
        }
        // Another app to prove filtering.
        let mut q = Query::default();
        q.points.push(ObsPoint {
            metric: M,
            node: NodeId(0),
            interval: tiling[0],
            mean: 6000.0,
        });
        d.learn(&LabeledObservation {
            label: AppLabel::new("ft", "X"),
            query: q,
        });
        d
    }

    #[test]
    fn predicts_only_requested_app() {
        let d = dict_with_timeline();
        let preds = predict_usage(&d, "miniAMR", None);
        assert!(!preds.is_empty());
        assert!(preds.iter().all(|p| p.metric == M));
        // ft's 6000 must not leak in.
        assert!(preds.iter().all(|p| p.means.iter().all(|&m| m > 7000.0)));
    }

    #[test]
    fn timeline_is_ordered_and_ramps() {
        let d = dict_with_timeline();
        let tl = predict_timeline(&d, "miniAMR", M);
        assert_eq!(tl.len(), 4);
        for w in tl.windows(2) {
            assert!(w[0].0.end <= w[1].0.start);
            assert!(w[0].1 < w[1].1, "expected ramp: {tl:?}");
        }
        // First window expectation ≈ mean of rounded 7800-run and
        // rounded 7860-run (7800 and 7900 at depth 2).
        assert!((tl[0].1 - 7850.0).abs() < 1.0, "{tl:?}");
    }

    #[test]
    fn multi_run_entries_report_spread() {
        let d = dict_with_timeline();
        let preds = predict_usage(&d, "miniAMR", None);
        let with_spread = preds.iter().filter(|p| p.spread() > 0.0).count();
        assert!(with_spread > 0, "run variation should produce spread");
    }

    #[test]
    fn input_filter() {
        let d = dict_with_timeline();
        assert!(!predict_usage(&d, "miniAMR", Some("X")).is_empty());
        assert!(predict_usage(&d, "miniAMR", Some("Z")).is_empty());
    }

    #[test]
    fn unknown_app_predicts_nothing() {
        let d = dict_with_timeline();
        assert!(predict_usage(&d, "cryptominer", None).is_empty());
    }
}
