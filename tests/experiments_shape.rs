//! The Figure 2 *shape* as executable assertions (EFD side; the Taxonomist
//! side runs in `tests/baseline.rs` with a reduced forest).
//!
//! Absolute numbers are substrate-dependent; the shape is the paper's
//! result: normal fold ≈ 1, soft experiments high, hard experiments
//! clearly lower.

use efd_eval::classifier::efd_classifier;
use efd_eval::experiments::{run_experiment, EvalOptions, ExperimentKind};
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::Interval;
use efd_workload::{Dataset, DatasetSpec};

#[test]
fn figure2_shape_holds_for_the_efd() {
    let d = Dataset::with_catalog(DatasetSpec::default(), small_catalog());
    let metric = d.catalog().id("nr_mapped_vmstat").unwrap();
    let opts = EvalOptions::default();
    let mut c = efd_classifier(metric, Interval::PAPER_DEFAULT);

    let mut f = std::collections::HashMap::new();
    for kind in ExperimentKind::ALL {
        let r = run_experiment(kind, &mut c, &d, &opts);
        f.insert(kind, r.mean_f1);
    }

    let normal = f[&ExperimentKind::NormalFold];
    let soft_input = f[&ExperimentKind::SoftInput];
    let soft_unknown = f[&ExperimentKind::SoftUnknown];
    let hard_input = f[&ExperimentKind::HardInput];
    let hard_unknown = f[&ExperimentKind::HardUnknown];

    // Headline: near-perfect recognition of repeated executions.
    assert!(normal > 0.97, "normal fold {normal}");
    // Soft experiments stay high (paper: 0.97-0.98).
    assert!(soft_input > 0.9, "soft input {soft_input}");
    assert!(soft_unknown > 0.9, "soft unknown {soft_unknown}");
    // Hard experiments are the paper's "room for improvement".
    assert!(
        hard_input < soft_input - 0.1,
        "hard input {hard_input} should sit clearly below soft input {soft_input}"
    );
    assert!(
        hard_unknown < soft_unknown - 0.05,
        "hard unknown {hard_unknown} vs soft unknown {soft_unknown}"
    );
    // …but both remain far above chance.
    assert!(hard_input > 0.4, "hard input {hard_input}");
    assert!(hard_unknown > 0.5, "hard unknown {hard_unknown}");
}

#[test]
fn efd_results_are_deterministic() {
    let d = Dataset::with_catalog(DatasetSpec::default(), small_catalog());
    let metric = d.catalog().id("nr_mapped_vmstat").unwrap();
    let opts = EvalOptions::default();
    let r1 = run_experiment(
        ExperimentKind::NormalFold,
        &mut efd_classifier(metric, Interval::PAPER_DEFAULT),
        &d,
        &opts,
    );
    let r2 = run_experiment(
        ExperimentKind::NormalFold,
        &mut efd_classifier(metric, Interval::PAPER_DEFAULT),
        &d,
        &opts,
    );
    assert_eq!(r1.mean_f1, r2.mean_f1);
    assert_eq!(r1.per_variant, r2.per_variant);
}
