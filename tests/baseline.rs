//! The Taxonomist baseline, end to end on generated telemetry (reduced
//! forest size — these tests run unoptimized).

use efd_eval::classifier::{efd_classifier, ExecutionClassifier, TaxonomistClassifier};
use efd_eval::experiments::{run_experiment, EvalOptions, ExperimentKind};
use efd_ml::taxonomist::TaxonomistConfig;
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::Interval;
use efd_workload::{Dataset, DatasetSpec};

fn dataset() -> Dataset {
    Dataset::with_catalog(DatasetSpec::default(), small_catalog())
}

fn quick_cfg() -> TaxonomistConfig {
    TaxonomistConfig {
        n_trees: 12,
        ..Default::default()
    }
}

#[test]
fn taxonomist_normal_fold_is_high() {
    let d = dataset();
    let mut c = TaxonomistClassifier::new(quick_cfg());
    let r = run_experiment(
        ExperimentKind::NormalFold,
        &mut c,
        &d,
        &EvalOptions {
            folds: 3,
            seed: 0x7A,
        },
    );
    assert!(r.mean_f1 > 0.9, "baseline normal fold {}", r.mean_f1);
}

#[test]
fn both_systems_agree_on_easy_runs_with_different_data_diets() {
    let d = dataset();
    let metric = d.catalog().id("nr_mapped_vmstat").unwrap();
    let train: Vec<usize> = (0..d.len()).filter(|i| i % 3 != 0).collect();
    let test: Vec<usize> = (0..d.len()).filter(|i| i % 3 == 0).take(20).collect();

    let mut efd = efd_classifier(metric, Interval::PAPER_DEFAULT);
    efd.fit(&d, &train);
    let efd_preds = efd.predict_batch(&d, &test);

    let mut tax = TaxonomistClassifier::new(quick_cfg());
    tax.fit(&d, &train);
    let tax_preds = tax.predict_batch(&d, &test);

    let labels = d.labels();
    let agree = efd_preds
        .iter()
        .zip(&tax_preds)
        .zip(&test)
        .filter(|((e, t), &i)| e == t && **e == labels[i].app)
        .count();
    assert!(
        agree as f64 / test.len() as f64 > 0.85,
        "systems agree on only {agree}/{} runs\nefd: {efd_preds:?}\ntax: {tax_preds:?}",
        test.len()
    );
}
