//! Statistical feature extraction (the Taxonomist's data diet).
//!
//! Taxonomist computes statistical features of every metric's time series
//! on every node over the whole execution. We extract eleven statistics per
//! (node, metric): mean, std, min, max, the 5th/25th/50th/75th/95th
//! percentiles, skewness and kurtosis — **streamed** through
//! [`efd_util::OnlineStats`] and [`efd_util::P2Quantile`] so a 562-metric ×
//! full-window extraction never buffers raw series (contrast with the EFD's
//! single 60-sample mean).

use efd_telemetry::trace::ExecutionTrace;
use efd_telemetry::Interval;
use efd_util::stats::{OnlineStats, P2Quantile};

/// Names of the extracted statistics, in row order.
pub const STAT_NAMES: [&str; 11] = [
    "mean", "std", "min", "max", "p05", "p25", "p50", "p75", "p95", "skew", "kurt",
];

/// Number of statistics per metric.
pub const STATS_PER_METRIC: usize = STAT_NAMES.len();

/// A dense labeled feature matrix: one row per node sample.
#[derive(Debug, Clone, Default)]
pub struct FeatureMatrix {
    /// Feature rows.
    pub rows: Vec<Vec<f64>>,
    /// Ground-truth application name per row (Taxonomist labels nodes, not
    /// executions — paper §5 "the impact of node configuration").
    pub labels: Vec<String>,
    /// Execution index each row came from (for per-execution aggregation).
    pub exec_of_row: Vec<usize>,
}

impl FeatureMatrix {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of features per row (0 when empty).
    pub fn width(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// Append all node rows of one execution trace (`exec_idx` is the
    /// caller's identifier for the execution). Features cover `window`
    /// (or the whole series when `None`).
    pub fn push_trace(
        &mut self,
        trace: &ExecutionTrace,
        exec_idx: usize,
        window: Option<Interval>,
    ) {
        for node in &trace.nodes {
            let mut row = Vec::with_capacity(node.series.len() * STATS_PER_METRIC);
            for series in &node.series {
                let values = match window {
                    Some(w) => series.window(w),
                    None => series.values(),
                };
                extract_into(values.iter().copied(), &mut row);
            }
            self.rows.push(row);
            self.labels.push(trace.label.app.clone());
            self.exec_of_row.push(exec_idx);
        }
    }

    /// Row indices belonging to execution `exec_idx`.
    pub fn rows_of_exec(&self, exec_idx: usize) -> Vec<usize> {
        self.exec_of_row
            .iter()
            .enumerate()
            .filter_map(|(i, &e)| (e == exec_idx).then_some(i))
            .collect()
    }
}

/// Stream one value sequence into eleven statistics, appended to `row`.
/// Non-finite samples are skipped; an all-missing stream contributes zeros
/// (classifiers cannot digest NaN).
pub fn extract_into(values: impl Iterator<Item = f64>, row: &mut Vec<f64>) {
    let mut stats = OnlineStats::new();
    let mut quantiles = [
        P2Quantile::new(0.05),
        P2Quantile::new(0.25),
        P2Quantile::new(0.50),
        P2Quantile::new(0.75),
        P2Quantile::new(0.95),
    ];
    for v in values {
        if v.is_finite() {
            stats.push(v);
            for q in &mut quantiles {
                q.push(v);
            }
        }
    }
    if stats.is_empty() {
        row.extend(std::iter::repeat_n(0.0, STATS_PER_METRIC));
        return;
    }
    row.push(stats.mean());
    row.push(stats.stddev());
    row.push(stats.min());
    row.push(stats.max());
    for q in &quantiles {
        row.push(q.estimate());
    }
    row.push(finite_or_zero(stats.skewness()));
    row.push(finite_or_zero(stats.kurtosis()));
}

fn finite_or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Feature names for a metric list: `<metric>.<stat>` per column.
pub fn feature_names(metric_names: &[&str]) -> Vec<String> {
    let mut out = Vec::with_capacity(metric_names.len() * STATS_PER_METRIC);
    for m in metric_names {
        for s in STAT_NAMES {
            out.push(format!("{m}.{s}"));
        }
    }
    out
}

/// Per-column z-score normalization fitted on training rows.
#[derive(Debug, Clone)]
pub struct Scaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Scaler {
    /// Fit column means/stds on training rows.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit scaler on empty data");
        let width = rows[0].len();
        let mut cols = vec![OnlineStats::new(); width];
        for row in rows {
            for (c, &v) in row.iter().enumerate() {
                cols[c].push(v);
            }
        }
        Self {
            mean: cols.iter().map(|s| s.mean()).collect(),
            std: cols
                .iter()
                .map(|s| {
                    let sd = s.stddev();
                    if sd > 0.0 {
                        sd
                    } else {
                        1.0 // constant column: leave centered values at 0
                    }
                })
                .collect(),
        }
    }

    /// Transform one row in place.
    pub fn transform(&self, row: &mut [f64]) {
        for (c, v) in row.iter_mut().enumerate() {
            *v = (*v - self.mean[c]) / self.std[c];
        }
    }

    /// Transform many rows, returning new storage.
    pub fn transform_all(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter()
            .map(|r| {
                let mut r = r.clone();
                self.transform(&mut r);
                r
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_telemetry::series::TimeSeries;
    use efd_telemetry::trace::{MetricSelection, NodeTrace};
    use efd_telemetry::{AppLabel, MetricId, NodeId};

    fn toy_trace(app: &str, level: f64, nodes: u16) -> ExecutionTrace {
        ExecutionTrace {
            exec_id: 0,
            label: AppLabel::new(app, "X"),
            selection: MetricSelection::new(vec![MetricId(0), MetricId(1)]),
            nodes: (0..nodes)
                .map(|n| NodeTrace {
                    node: NodeId(n),
                    series: vec![
                        TimeSeries::from_values(
                            (0..100).map(|i| level + (i % 10) as f64).collect(),
                        ),
                        TimeSeries::from_values(vec![level * 2.0; 100]),
                    ],
                })
                .collect(),
            duration_s: 100,
        }
    }

    #[test]
    fn row_layout() {
        let mut fm = FeatureMatrix::default();
        fm.push_trace(&toy_trace("ft", 100.0, 3), 7, None);
        assert_eq!(fm.len(), 3);
        assert_eq!(fm.width(), 2 * STATS_PER_METRIC);
        assert_eq!(fm.labels, vec!["ft"; 3]);
        assert_eq!(fm.exec_of_row, vec![7; 3]);
        assert_eq!(fm.rows_of_exec(7), vec![0, 1, 2]);
        assert!(fm.rows_of_exec(8).is_empty());
    }

    #[test]
    fn stats_are_plausible() {
        let mut row = Vec::new();
        extract_into((0..=100).map(|i| i as f64), &mut row);
        assert_eq!(row.len(), STATS_PER_METRIC);
        let (mean, std, min, max) = (row[0], row[1], row[2], row[3]);
        assert!((mean - 50.0).abs() < 1e-9);
        assert!((std - 29.15).abs() < 0.05);
        assert_eq!(min, 0.0);
        assert_eq!(max, 100.0);
        let p50 = row[6];
        assert!((p50 - 50.0).abs() < 2.0);
        // uniform: skew ≈ 0, kurtosis ≈ -1.2
        assert!(row[9].abs() < 0.05, "skew {}", row[9]);
        assert!((row[10] + 1.2).abs() < 0.1, "kurt {}", row[10]);
    }

    #[test]
    fn constant_series_has_zero_spread_features() {
        let mut row = Vec::new();
        extract_into(std::iter::repeat_n(7.0, 50), &mut row);
        assert_eq!(row[0], 7.0); // mean
        assert_eq!(row[1], 0.0); // std
        assert_eq!(row[9], 0.0); // skew
        assert_eq!(row[10], 0.0); // kurt
    }

    #[test]
    fn empty_and_nan_streams_yield_zeros() {
        let mut row = Vec::new();
        extract_into(std::iter::empty(), &mut row);
        assert_eq!(row, vec![0.0; STATS_PER_METRIC]);
        row.clear();
        extract_into([f64::NAN, f64::NAN].into_iter(), &mut row);
        assert_eq!(row, vec![0.0; STATS_PER_METRIC]);
    }

    #[test]
    fn windowed_extraction_restricts_range() {
        let mut fm = FeatureMatrix::default();
        let t = toy_trace("mg", 0.0, 1);
        fm.push_trace(&t, 0, Some(Interval::new(0, 10)));
        // window covers exactly one 0..9 ramp: max = 9.
        assert_eq!(fm.rows[0][3], 9.0);
    }

    #[test]
    fn feature_names_layout() {
        let names = feature_names(&["a", "b"]);
        assert_eq!(names.len(), 22);
        assert_eq!(names[0], "a.mean");
        assert_eq!(names[10], "a.kurt");
        assert_eq!(names[11], "b.mean");
    }

    #[test]
    fn scaler_zero_mean_unit_var() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        let s = Scaler::fit(&rows);
        let t = s.transform_all(&rows);
        let col0: Vec<f64> = t.iter().map(|r| r[0]).collect();
        let mean: f64 = col0.iter().sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-12);
        // constant column stays at 0, no NaN.
        assert!(t.iter().all(|r| r[1] == 0.0));
    }
}
