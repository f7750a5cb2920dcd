//! Executions reduced to fingerprintable points.
//!
//! The dictionary never needs raw series — only *window means* per
//! (metric, node, interval). A [`Query`] is that reduction for an unlabeled
//! execution; a [`LabeledObservation`] adds the ground-truth label for
//! learning. Both can be built from a full [`ExecutionTrace`] or assembled
//! directly from precomputed means (the screening fast path).

use efd_telemetry::trace::ExecutionTrace;
use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};

/// One fingerprintable point: the *raw* (unrounded) window mean of one
/// metric on one node over one interval. Rounding happens at dictionary
/// insertion/lookup so the same observation can be evaluated at any depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsPoint {
    /// Source metric.
    pub metric: MetricId,
    /// Source node.
    pub node: NodeId,
    /// Window the mean covers.
    pub interval: Interval,
    /// Raw mean (NaN if the window had no valid samples).
    pub mean: f64,
}

/// An unlabeled execution reduced to its fingerprintable points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// The points, in (interval, metric, node) construction order.
    pub points: Vec<ObsPoint>,
}

impl Query {
    /// Reduce a trace to window means for the given metrics × intervals.
    /// Metrics absent from the trace's selection are skipped.
    pub fn from_trace(
        trace: &ExecutionTrace,
        metrics: &[MetricId],
        intervals: &[Interval],
    ) -> Self {
        let mut points = Vec::with_capacity(metrics.len() * intervals.len() * trace.node_count());
        for &interval in intervals {
            for &metric in metrics {
                for (node, series) in trace.per_node_series(metric) {
                    points.push(ObsPoint {
                        metric,
                        node,
                        interval,
                        mean: series.window_mean(interval),
                    });
                }
            }
        }
        Self { points }
    }

    /// Build directly from per-node means of a single metric × interval
    /// (nodes numbered 0..n in order).
    pub fn from_node_means(metric: MetricId, interval: Interval, means: &[f64]) -> Self {
        let mut query = Self::default();
        query.set_node_means(metric, interval, means);
        query
    }

    /// Refill in place with per-node means of a single metric × interval
    /// (nodes numbered 0..n in order), as [`Query::from_node_means`]
    /// builds them. The point buffer keeps its capacity, so a server
    /// reusing one `Query` per connection allocates only when a request
    /// brings more nodes than any before it.
    pub fn set_node_means(&mut self, metric: MetricId, interval: Interval, means: &[f64]) {
        self.points.clear();
        self.points
            .extend(means.iter().enumerate().map(|(n, &mean)| ObsPoint {
                metric,
                node: NodeId(n as u16),
                interval,
                mean,
            }));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the query carries no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// A labeled execution (learning input).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledObservation {
    /// Ground truth: application + input size.
    pub label: AppLabel,
    /// The fingerprintable points.
    pub query: Query,
}

impl LabeledObservation {
    /// Reduce a labeled trace.
    pub fn from_trace(
        trace: &ExecutionTrace,
        metrics: &[MetricId],
        intervals: &[Interval],
    ) -> Self {
        Self {
            label: trace.label.clone(),
            query: Query::from_trace(trace, metrics, intervals),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_telemetry::series::TimeSeries;
    use efd_telemetry::trace::{MetricSelection, NodeTrace};

    fn trace_two_metrics() -> ExecutionTrace {
        let sel = MetricSelection::new(vec![MetricId(7), MetricId(9)]);
        ExecutionTrace {
            exec_id: 1,
            label: AppLabel::new("ft", "X"),
            selection: sel,
            nodes: (0..2)
                .map(|n| NodeTrace {
                    node: NodeId(n),
                    series: vec![
                        TimeSeries::from_values(vec![10.0 + n as f64; 200]),
                        TimeSeries::from_values(vec![100.0 + n as f64; 200]),
                    ],
                })
                .collect(),
            duration_s: 200,
        }
    }

    #[test]
    fn from_trace_builds_all_points() {
        let t = trace_two_metrics();
        let q = Query::from_trace(&t, &[MetricId(7), MetricId(9)], &[Interval::PAPER_DEFAULT]);
        assert_eq!(q.len(), 4); // 2 metrics × 2 nodes × 1 interval
        let p = &q.points[0];
        assert_eq!(p.metric, MetricId(7));
        assert_eq!(p.node, NodeId(0));
        assert_eq!(p.mean, 10.0);
        assert_eq!(q.points[3].mean, 101.0);
    }

    #[test]
    fn missing_metric_skipped() {
        let t = trace_two_metrics();
        let q = Query::from_trace(&t, &[MetricId(42)], &[Interval::PAPER_DEFAULT]);
        assert!(q.is_empty());
    }

    #[test]
    fn multiple_intervals_multiply_points() {
        let t = trace_two_metrics();
        let q = Query::from_trace(
            &t,
            &[MetricId(7)],
            &[Interval::new(0, 60), Interval::new(60, 120)],
        );
        assert_eq!(q.len(), 4); // 1 metric × 2 nodes × 2 intervals
    }

    #[test]
    fn window_past_series_end_gives_nan_mean() {
        let t = trace_two_metrics();
        let q = Query::from_trace(&t, &[MetricId(7)], &[Interval::new(500, 600)]);
        assert_eq!(q.len(), 2);
        assert!(q.points[0].mean.is_nan());
    }

    #[test]
    fn from_node_means_orders_nodes() {
        let q = Query::from_node_means(MetricId(3), Interval::PAPER_DEFAULT, &[5.0, 6.0, 7.0]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.points[2].node, NodeId(2));
        assert_eq!(q.points[2].mean, 7.0);
    }

    #[test]
    fn set_node_means_refills_in_place() {
        let mut q = Query::from_node_means(MetricId(3), Interval::PAPER_DEFAULT, &[5.0, 6.0, 7.0]);
        let cap = q.points.capacity();
        q.set_node_means(MetricId(4), Interval::new(0, 60), &[8.0, 9.0]);
        let want = Query::from_node_means(MetricId(4), Interval::new(0, 60), &[8.0, 9.0]);
        assert_eq!(q, want);
        assert_eq!(q.points.capacity(), cap, "refilled in place");
    }

    #[test]
    fn labeled_observation_carries_label() {
        let t = trace_two_metrics();
        let o = LabeledObservation::from_trace(&t, &[MetricId(7)], &[Interval::PAPER_DEFAULT]);
        assert_eq!(o.label.to_string(), "ft X");
        assert_eq!(o.query.len(), 2);
    }
}
