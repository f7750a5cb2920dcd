//! Regenerates the paper's Figure 2: F-scores of the EFD (1 metric, first
//! 2 minutes) vs the Taxonomist baseline (562 metrics, whole window) on
//! all five experiments, printed next to the paper's reported bars.
//!
//! Set `EFD_WRITE_REPORT=<path>` to also write the EXPERIMENTS.md content
//! (the repository's EXPERIMENTS.md is generated this way).

use efd_bench::{bench_dataset, bench_taxonomist_config, headline_metric, timed};
use efd_eval::classifier::{efd_classifier, TaxonomistClassifier};
use efd_eval::experiments::{run_experiment, EvalOptions, ExperimentKind, ExperimentResult};
use efd_eval::report::render_figure2;
use efd_eval::screening::screen_metrics;
use efd_telemetry::Interval;

fn main() {
    let dataset = bench_dataset();
    let opts = EvalOptions::default();
    let metric = headline_metric(&dataset);
    let mut results: Vec<ExperimentResult> = Vec::new();

    let mut efd = efd_classifier(metric, Interval::PAPER_DEFAULT);
    for kind in ExperimentKind::ALL {
        let r = timed(&format!("EFD {kind}"), || {
            run_experiment(kind, &mut efd, &dataset, &opts)
        });
        println!("  EFD {kind}: F = {:.3}", r.mean_f1);
        results.push(r);
    }

    let mut tax = TaxonomistClassifier::new(bench_taxonomist_config());
    for kind in ExperimentKind::ALL {
        let r = timed(&format!("Taxonomist {kind}"), || {
            run_experiment(kind, &mut tax, &dataset, &opts)
        });
        println!("  Taxonomist {kind}: F = {:.3}", r.mean_f1);
        results.push(r);
    }

    println!();
    println!("{}", render_figure2(&results).render());
    println!(
        "Data diet: EFD used 1/{} metrics and the [60:120] window only.",
        dataset.catalog().len()
    );

    if let Ok(path) = std::env::var("EFD_WRITE_REPORT") {
        let scores = timed("table 3 screening for report", || {
            screen_metrics(&dataset, &opts, None)
        });
        let md = efd_eval::report::experiments_markdown(&results, &scores, &dataset);
        std::fs::write(&path, md).expect("write report");
        println!("wrote {path}");
    }
}
