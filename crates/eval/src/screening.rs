//! Per-metric screening: which single metric recognizes best (Table 3).
//!
//! The paper's Table 3 reports normal-fold F-scores of *individual* system
//! metrics — the EFD is built once per metric and scored with the same
//! 5-fold protocol. Means for all metrics are generated in one pass
//! (`[run][node][metric]`), then metrics are screened in parallel.

use efd_core::observation::{LabeledObservation, Query};
use efd_core::training::{DepthPolicy, Efd, EfdConfig};
use efd_ml::metrics::{evaluate, UNKNOWN_LABEL};
use efd_telemetry::trace::MetricSelection;
use efd_telemetry::{Interval, MetricId};
use efd_util::parallel_map;
use efd_workload::splits::stratified_k_fold;
use efd_workload::Dataset;

use crate::experiments::EvalOptions;

/// Normal-fold score of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricScore {
    /// The metric.
    pub metric: MetricId,
    /// Its catalog name.
    pub name: String,
    /// Mean macro F1 over the outer folds.
    pub f1: f64,
}

/// Screen `metrics` (default: the whole catalog) with the normal-fold
/// experiment; returns scores sorted descending (ties alphabetical).
pub fn screen_metrics(
    dataset: &Dataset,
    opts: &EvalOptions,
    metrics: Option<&[MetricId]>,
) -> Vec<MetricScore> {
    let all_ids: Vec<MetricId> = match metrics {
        Some(m) => m.to_vec(),
        None => dataset.catalog().ids().collect(),
    };
    let selection = MetricSelection::new(all_ids.clone());
    // One generation pass for every metric: means[run][node][metric_pos].
    let means = dataset.window_means_all(&selection, Interval::PAPER_DEFAULT);
    let labels = dataset.labels();
    let folds = stratified_k_fold(&labels, opts.folds, opts.seed);

    let positions: Vec<usize> = (0..all_ids.len()).collect();
    let mut scores: Vec<MetricScore> = parallel_map(&positions, |&pos| {
        let metric = all_ids[pos];
        let node_means = |run: usize| -> Vec<f64> {
            means[run]
                .iter()
                .map(|per_metric| per_metric[pos])
                .collect()
        };
        let mut fold_f1 = Vec::with_capacity(folds.len());
        for fold in &folds {
            let train: Vec<LabeledObservation> = fold
                .train
                .iter()
                .map(|&i| LabeledObservation {
                    label: labels[i].clone(),
                    query: Query::from_node_means(metric, Interval::PAPER_DEFAULT, &node_means(i)),
                })
                .collect();
            let efd = Efd::fit(
                EfdConfig {
                    metrics: vec![metric],
                    intervals: vec![Interval::PAPER_DEFAULT],
                    depth: DepthPolicy::default(),
                },
                &train,
            );
            let truth: Vec<&str> = fold.test.iter().map(|&i| labels[i].app.as_str()).collect();
            let preds: Vec<String> = fold
                .test
                .iter()
                .map(|&i| {
                    let q = Query::from_node_means(metric, Interval::PAPER_DEFAULT, &node_means(i));
                    efd.recognize(&q)
                        .best()
                        .map(str::to_string)
                        .unwrap_or_else(|| UNKNOWN_LABEL.to_string())
                })
                .collect();
            fold_f1.push(evaluate(&truth, &preds).macro_f1());
        }
        MetricScore {
            metric,
            name: dataset.catalog().name(metric).to_string(),
            f1: fold_f1.iter().sum::<f64>() / fold_f1.len() as f64,
        }
    });

    scores.sort_by(|a, b| b.f1.partial_cmp(&a.f1).unwrap().then(a.name.cmp(&b.name)));
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_telemetry::catalog::small_catalog;
    use efd_workload::DatasetSpec;

    #[test]
    fn headline_metric_tops_small_catalog() {
        let d = Dataset::with_catalog(DatasetSpec::default(), small_catalog());
        let scores = screen_metrics(&d, &EvalOptions::default(), None);
        assert_eq!(scores.len(), d.catalog().len());
        // Sorted descending.
        for w in scores.windows(2) {
            assert!(w[0].f1 >= w[1].f1);
        }
        // The curated metric must score essentially perfectly…
        let nr_mapped = scores
            .iter()
            .find(|s| s.name == "nr_mapped_vmstat")
            .unwrap();
        assert!(nr_mapped.f1 > 0.95, "nr_mapped F1 {}", nr_mapped.f1);
        // …and clearly beat the weak-tier load average.
        let load = scores.iter().find(|s| s.name == "load1_loadavg").unwrap();
        assert!(
            nr_mapped.f1 > load.f1 + 0.1,
            "nr_mapped {} vs load1 {}",
            nr_mapped.f1,
            load.f1
        );
    }

    #[test]
    fn subset_screening() {
        let d = Dataset::with_catalog(DatasetSpec::default(), small_catalog());
        let ids = [d.catalog().id("nr_mapped_vmstat").unwrap()];
        let scores = screen_metrics(&d, &EvalOptions::default(), Some(&ids));
        assert_eq!(scores.len(), 1);
        assert_eq!(scores[0].name, "nr_mapped_vmstat");
    }
}
