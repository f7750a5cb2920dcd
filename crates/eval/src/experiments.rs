//! The paper's five experiments (§4).
//!
//! Executions have two identifying dimensions — application name and input
//! size — and the experiments differ in how learning/testing sets are split
//! along them:
//!
//! 1. **Normal fold** — 5-fold cross-validation on the full dataset.
//! 2. **Soft input** — extends normal fold; individual input sizes are
//!    removed from learning, testing sets stay the same.
//! 3. **Soft unknown** — extends normal fold; individual applications are
//!    removed from learning, testing sets stay the same (removed app's
//!    correct answer is `unknown`).
//! 4. **Hard input** — learn on 3 of 4 input sizes, test *only* the 4th.
//! 5. **Hard unknown** — learn on 10 of 11 applications, test *only* the
//!    11th (correct answer: `unknown`).
//!
//! Correctness is judged on the application *name* (returning `ft X` for
//! an `ft Y` run is correct). Scores are scikit-learn macro F1 per
//! fold/variant, averaged — see `efd_ml::metrics` for exact semantics.

use std::fmt;

use efd_ml::metrics::{evaluate, UNKNOWN_LABEL};
use efd_workload::splits::{leave_one_app_out, leave_one_input_out, stratified_k_fold};
use efd_workload::Dataset;

use crate::classifier::ExecutionClassifier;

/// Which of the paper's experiments to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentKind {
    /// 5-fold CV on everything.
    NormalFold,
    /// Inputs removed from learning; full test sets.
    SoftInput,
    /// Apps removed from learning; full test sets.
    SoftUnknown,
    /// Test only the left-out input.
    HardInput,
    /// Test only the left-out application.
    HardUnknown,
}

impl ExperimentKind {
    /// All five, in the paper's Figure 2 order.
    pub const ALL: [ExperimentKind; 5] = [
        ExperimentKind::NormalFold,
        ExperimentKind::SoftInput,
        ExperimentKind::SoftUnknown,
        ExperimentKind::HardInput,
        ExperimentKind::HardUnknown,
    ];

    /// Figure 2 label.
    pub fn label(self) -> &'static str {
        match self {
            ExperimentKind::NormalFold => "normal fold",
            ExperimentKind::SoftInput => "soft input",
            ExperimentKind::SoftUnknown => "soft unknown",
            ExperimentKind::HardInput => "hard input",
            ExperimentKind::HardUnknown => "hard unknown",
        }
    }
}

impl fmt::Display for ExperimentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Harness options.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Outer folds for the normal/soft experiments (paper: 5).
    pub folds: usize,
    /// Fold shuffle seed.
    pub seed: u64,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            folds: 5,
            seed: 0xE7A1,
        }
    }
}

/// Result of one experiment for one classifier.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Which experiment.
    pub kind: ExperimentKind,
    /// Classifier display name.
    pub classifier: String,
    /// Mean macro F1 over all folds/variants.
    pub mean_f1: f64,
    /// Per-variant scores: `(variant label, macro F1)`. Variants are folds
    /// for normal fold, (removed-thing, fold) pairs for soft, and the
    /// removed thing for hard experiments.
    pub per_variant: Vec<(String, f64)>,
}

/// Run `kind` for `classifier` on `dataset`.
pub fn run_experiment(
    kind: ExperimentKind,
    classifier: &mut dyn ExecutionClassifier,
    dataset: &Dataset,
    opts: &EvalOptions,
) -> ExperimentResult {
    let per_variant = match kind {
        ExperimentKind::NormalFold => normal_fold(classifier, dataset, opts),
        ExperimentKind::SoftInput => soft(classifier, dataset, opts, Removal::Input),
        ExperimentKind::SoftUnknown => soft(classifier, dataset, opts, Removal::App),
        ExperimentKind::HardInput => hard(classifier, dataset, Removal::Input),
        ExperimentKind::HardUnknown => hard(classifier, dataset, Removal::App),
    };
    let mean_f1 = per_variant.iter().map(|(_, f)| f).sum::<f64>() / per_variant.len() as f64;
    ExperimentResult {
        kind,
        classifier: classifier.name().to_string(),
        mean_f1,
        per_variant,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Removal {
    Input,
    App,
}

/// Fit on `train`, predict `test`, score macro F1 with ground truth = app
/// name, overridden to `unknown` for apps in `removed_apps`.
fn score(
    classifier: &mut dyn ExecutionClassifier,
    dataset: &Dataset,
    train: &[usize],
    test: &[usize],
    removed_app: Option<&str>,
) -> f64 {
    classifier.fit(dataset, train);
    let preds = classifier.predict_batch(dataset, test);
    let labels = dataset.labels();
    let truth: Vec<String> = test
        .iter()
        .map(|&i| {
            if removed_app == Some(labels[i].app.as_str()) {
                UNKNOWN_LABEL.to_string()
            } else {
                labels[i].app.clone()
            }
        })
        .collect();
    // Macro F1 over the classes present in the truth — the paper fixes the
    // sklearn label list to the applications under test (see
    // `ClassificationReport::macro_f1_present`).
    evaluate(&truth, &preds).macro_f1_present()
}

fn normal_fold(
    classifier: &mut dyn ExecutionClassifier,
    dataset: &Dataset,
    opts: &EvalOptions,
) -> Vec<(String, f64)> {
    let folds = stratified_k_fold(&dataset.labels(), opts.folds, opts.seed);
    folds
        .iter()
        .enumerate()
        .map(|(k, fold)| {
            let f1 = score(classifier, dataset, &fold.train, &fold.test, None);
            (format!("fold {}", k + 1), f1)
        })
        .collect()
}

fn soft(
    classifier: &mut dyn ExecutionClassifier,
    dataset: &Dataset,
    opts: &EvalOptions,
    removal: Removal,
) -> Vec<(String, f64)> {
    let labels = dataset.labels();
    let groups = match removal {
        Removal::Input => leave_one_input_out(&labels),
        Removal::App => leave_one_app_out(&labels),
    };
    let folds = stratified_k_fold(&labels, opts.folds, opts.seed);
    let mut out = Vec::new();
    for (removed, removed_idx) in &groups {
        let removed_set: efd_util::FxHashSet<usize> = removed_idx.iter().copied().collect();
        for (k, fold) in folds.iter().enumerate() {
            let train: Vec<usize> = fold
                .train
                .iter()
                .copied()
                .filter(|i| !removed_set.contains(i))
                .collect();
            let removed_app = match removal {
                Removal::App => Some(removed.as_str()),
                Removal::Input => None,
            };
            let f1 = score(classifier, dataset, &train, &fold.test, removed_app);
            out.push((format!("-{removed} fold {}", k + 1), f1));
        }
    }
    out
}

fn hard(
    classifier: &mut dyn ExecutionClassifier,
    dataset: &Dataset,
    removal: Removal,
) -> Vec<(String, f64)> {
    let labels = dataset.labels();
    let groups = match removal {
        Removal::Input => leave_one_input_out(&labels),
        Removal::App => leave_one_app_out(&labels),
    };
    groups
        .iter()
        .map(|(removed, removed_idx)| {
            let removed_set: efd_util::FxHashSet<usize> = removed_idx.iter().copied().collect();
            let train: Vec<usize> = (0..dataset.len())
                .filter(|i| !removed_set.contains(i))
                .collect();
            let removed_app = match removal {
                Removal::App => Some(removed.as_str()),
                Removal::Input => None,
            };
            let f1 = score(classifier, dataset, &train, removed_idx, removed_app);
            (format!("-{removed}"), f1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::efd_classifier;
    use efd_telemetry::catalog::small_catalog;
    use efd_telemetry::Interval;
    use efd_workload::DatasetSpec;

    fn dataset() -> Dataset {
        Dataset::with_catalog(DatasetSpec::default(), small_catalog())
    }

    fn efd(d: &Dataset) -> impl ExecutionClassifier {
        efd_classifier(
            d.catalog().id("nr_mapped_vmstat").unwrap(),
            Interval::PAPER_DEFAULT,
        )
    }

    #[test]
    fn normal_fold_is_near_perfect_on_curated_metric() {
        let d = dataset();
        let mut c = efd(&d);
        let r = run_experiment(
            ExperimentKind::NormalFold,
            &mut c,
            &d,
            &EvalOptions::default(),
        );
        assert_eq!(r.per_variant.len(), 5);
        assert!(
            r.mean_f1 > 0.95,
            "normal fold F1 {} (per fold {:?})",
            r.mean_f1,
            r.per_variant
        );
    }

    #[test]
    fn hard_input_is_harder_than_soft_input() {
        let d = dataset();
        let mut c = efd(&d);
        let opts = EvalOptions::default();
        let soft = run_experiment(ExperimentKind::SoftInput, &mut c, &d, &opts);
        let hard = run_experiment(ExperimentKind::HardInput, &mut c, &d, &opts);
        assert_eq!(hard.per_variant.len(), 4); // X, Y, Z, L
        assert!(
            soft.mean_f1 > hard.mean_f1,
            "soft {} vs hard {}",
            soft.mean_f1,
            hard.mean_f1
        );
        assert!(soft.mean_f1 > 0.85, "soft input {}", soft.mean_f1);
    }

    #[test]
    fn unknown_experiments_score_unknown_as_correct() {
        let d = dataset();
        let mut c = efd(&d);
        let hard = run_experiment(
            ExperimentKind::HardUnknown,
            &mut c,
            &d,
            &EvalOptions::default(),
        );
        assert_eq!(hard.per_variant.len(), 11);
        // The EFD's safeguard should make this clearly better than chance,
        // but SP/BT-style twins keep it below the soft scores.
        assert!(
            hard.mean_f1 > 0.5,
            "hard unknown {} ({:?})",
            hard.mean_f1,
            hard.per_variant
        );
    }

    #[test]
    fn experiment_kind_labels() {
        assert_eq!(ExperimentKind::ALL.len(), 5);
        assert_eq!(ExperimentKind::NormalFold.label(), "normal fold");
        assert_eq!(ExperimentKind::HardUnknown.to_string(), "hard unknown");
    }
}
