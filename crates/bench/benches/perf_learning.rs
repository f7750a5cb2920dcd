//! Criterion: learning cost — EFD dictionary build vs the Taxonomist
//! baseline's random-forest training. This is the paper's data-diet claim
//! turned into wall-clock: the EFD learns from 338 window means, the
//! baseline from whole-window features of every metric.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use efd_bench::{bench_dataset, headline_metric};
use efd_core::observation::{LabeledObservation, Query};
use efd_core::rounding::RoundingDepth;
use efd_core::training::{DepthPolicy, Efd, EfdConfig};
use efd_ml::features::FeatureMatrix;
use efd_ml::forest::{RandomForest, RandomForestParams};
use efd_telemetry::trace::MetricSelection;
use efd_telemetry::Interval;

fn bench(c: &mut Criterion) {
    let dataset = bench_dataset();
    let metric = headline_metric(&dataset);
    let sel = MetricSelection::single(metric);
    let means: Vec<Vec<f64>> = dataset
        .window_means_all(&sel, Interval::PAPER_DEFAULT)
        .into_iter()
        .map(|per_node| per_node.into_iter().map(|m| m[0]).collect())
        .collect();
    let labels = dataset.labels();
    let observations: Vec<LabeledObservation> = (0..dataset.len())
        .map(|i| LabeledObservation {
            label: labels[i].clone(),
            query: Query::from_node_means(metric, Interval::PAPER_DEFAULT, &means[i]),
        })
        .collect();

    let mut group = c.benchmark_group("learning");
    group.sample_size(20);

    group.bench_function("efd_learn_all_runs_fixed_depth", |b| {
        b.iter(|| {
            let efd = Efd::fit(
                EfdConfig {
                    metrics: vec![metric],
                    intervals: vec![Interval::PAPER_DEFAULT],
                    depth: DepthPolicy::Fixed(RoundingDepth::new(3)),
                },
                black_box(&observations),
            );
            black_box(efd.dictionary().len())
        })
    });

    group.bench_function("efd_learn_all_runs_auto_depth", |b| {
        b.iter(|| {
            let efd = Efd::fit(EfdConfig::single_metric(metric), black_box(&observations));
            black_box(efd.depth().get())
        })
    });

    // Baseline forest on a feature matrix of comparable row count. To keep
    // criterion iterations tractable we restrict to one node sample per
    // run and a 9-metric (99-feature) slice; the full 562-metric fit is
    // measured once by the figure2 bench.
    let small = efd_telemetry::catalog::small_catalog();
    let small_sel = MetricSelection::new(small.ids().collect());
    let small_ds = efd_workload::Dataset::with_catalog(efd_workload::DatasetSpec::default(), small);
    let mut fm = FeatureMatrix::default();
    for i in 0..small_ds.len() {
        let trace = small_ds.materialize(i, &small_sel);
        fm.push_trace(&trace, i, None);
    }
    let classes: Vec<String> = {
        let mut c: Vec<String> = fm.labels.clone();
        c.sort();
        c.dedup();
        c
    };
    let y: Vec<usize> = fm
        .labels
        .iter()
        .map(|l| classes.iter().position(|c| c == l).unwrap())
        .collect();

    group.sample_size(10);
    group.bench_function("forest_train_20_trees_99_features", |b| {
        b.iter(|| {
            let f = RandomForest::fit(
                RandomForestParams {
                    n_trees: 20,
                    ..Default::default()
                },
                black_box(&fm.rows),
                &y,
                classes.len(),
            );
            black_box(f.n_trees())
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
