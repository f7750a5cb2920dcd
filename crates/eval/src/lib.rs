//! Evaluation harness: the paper's five experiments, per-metric screening,
//! and paper-vs-measured reporting.
//!
//! * [`classifier`] — one trait over both systems (EFD and the Taxonomist
//!   baseline) so every experiment runs them identically, plus the
//!   baseline's feature cache so repeated fits don't regenerate telemetry.
//! * [`engine`] — the adapter from the engine API to the harness: any
//!   engine built from a training set (a dictionary, or any registry
//!   backend, `efd_serve::Backend`) as an [`ExecutionClassifier`], with
//!   the window-mean cache.
//! * [`experiments`] — normal fold, soft/hard input, soft/hard unknown
//!   (paper §4), scored with scikit-learn-compatible macro F1.
//! * [`scoring`] — abstention-quality scoring: unknown-detection
//!   precision/recall, ambiguity calibration, verdict histograms.
//! * [`robustness`] — the scenario × backend matrix: the in-memory
//!   oracle, the WAL-recovered store and every registry backend
//!   (dictionary family and ml family) scored on the adversarial & drift
//!   scenarios from `efd_workload::scenario`, plus the online-relearning
//!   arm for concept drift.
//! * [`screening`] — per-metric normal-fold F-scores (paper Table 3).
//! * [`paper`] — the paper's reported numbers (digitized from Figure 2 /
//!   copied from Table 3) for side-by-side comparison.
//! * [`report`] — renders Tables 1–4 and Figure 2 as text/markdown, and
//!   generates EXPERIMENTS.md.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod classifier;
pub mod engine;
pub mod experiments;
pub mod paper;
pub mod report;
pub mod robustness;
pub mod scoring;
pub mod screening;

pub use classifier::{efd_classifier, ExecutionClassifier, TaxonomistClassifier};
pub use engine::EngineClassifier;
pub use experiments::{run_experiment, EvalOptions, ExperimentKind, ExperimentResult};
pub use robustness::{
    drift_relearn, fit_backend, query_from_means, run_cell, train_backend, BackendKind,
};
pub use scoring::{score, AbstentionReport, ScoredQuery, VerdictHistogram};
pub use screening::{screen_metrics, MetricScore};
