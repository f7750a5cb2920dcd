//! Quickstart: learn a dictionary from labeled runs, recognize new ones.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the paper's Figure 1 pipeline: (1) per-node window means are
//! rounded and stored as key→label pairs; (2) fingerprints of unlabeled
//! executions are looked up; (3) the most-matched application is returned.

use efd::prelude::*;
use efd_telemetry::catalog::small_catalog;

fn main() {
    // A small synthetic dataset (9 metrics, paper Table 2 run inventory).
    let dataset = Dataset::with_catalog(DatasetSpec::default(), small_catalog());
    let metric = dataset.catalog().id("nr_mapped_vmstat").unwrap();
    println!(
        "dataset: {} labeled runs of {} applications",
        dataset.len(),
        AppId::ALL.len()
    );

    // Split: every 5th run is a "new job" we pretend not to know.
    let train_idx: Vec<usize> = (0..dataset.len()).filter(|i| i % 5 != 0).collect();
    let test_idx: Vec<usize> = (0..dataset.len()).filter(|i| i % 5 == 0).collect();

    // (1) Learn: reduce training runs to fingerprints, pick the rounding
    // depth by cross-validation inside the training set, build the
    // dictionary.
    let selection = MetricSelection::single(metric);
    let train_traces: Vec<ExecutionTrace> = train_idx
        .iter()
        // The EFD only ever needs the first two minutes.
        .map(|&i| dataset.materialize_prefix(i, &selection, 120))
        .collect();
    let efd = Efd::fit_traces(EfdConfig::single_metric(metric), &train_traces);
    let stats = efd.dictionary().stats();
    println!(
        "learned dictionary: depth {}, {} keys for {} labels ({} colliding keys)",
        efd.depth(),
        stats.entries,
        stats.labels,
        stats.colliding_entries
    );

    // (2)+(3) Recognize the held-out runs from their first two minutes.
    let mut correct = 0;
    for &i in &test_idx {
        let trace = dataset.materialize_prefix(i, &selection, 120);
        let recognition = efd.recognize_trace(&trace);
        let truth = &dataset.labels()[i];
        let verdict = match &recognition.verdict {
            Verdict::Recognized(app) => app.clone(),
            Verdict::Ambiguous(apps) => format!("{apps:?} (tie)"),
            Verdict::Unknown => "unknown".into(),
            // Verdict is #[non_exhaustive]; render future variants via Debug.
            other => format!("{other:?}"),
        };
        if recognition.best() == Some(truth.app.as_str()) {
            correct += 1;
        } else {
            println!("  miss: run {i} ({truth}) -> {verdict}");
        }
    }
    println!(
        "recognized {correct}/{} held-out runs from 1 metric x 60 samples each",
        test_idx.len()
    );

    // Bonus: the dictionary also knows input sizes.
    let probe = test_idx[0];
    let trace = dataset.materialize_prefix(probe, &selection, 120);
    let rec = efd.recognize_trace(&trace);
    println!(
        "run {probe}: true '{}', predicted label '{}'",
        dataset.labels()[probe],
        rec.predicted_label()
            .map(|l| l.to_string())
            .unwrap_or_default()
    );
}
