//! Ablation: fingerprint window placement and length.
//!
//! The paper chose `[60:120]` "to avoid the perturbations in the
//! initialization phase while still reporting results relatively early".
//! This sweep quantifies that choice: windows inside the init phase are
//! noisier (run-to-run transient variation breaks fingerprint matching),
//! later windows match `[60:120]`, shorter windows lose averaging.

use efd_bench::{bench_dataset, headline_metric};
use efd_eval::classifier::efd_classifier;
use efd_eval::experiments::{run_experiment, EvalOptions, ExperimentKind};
use efd_telemetry::Interval;
use efd_util::table::{fmt_score, TextTable};
use efd_util::Align;

fn main() {
    let dataset = bench_dataset();
    let metric = headline_metric(&dataset);
    let opts = EvalOptions::default();

    let mut table = TextTable::new(vec!["window", "normal-fold F1", "note"])
        .with_title("Ablation: fingerprint window (init-phase avoidance)")
        .with_aligns(vec![Align::Left, Align::Right, Align::Left]);

    let windows = [
        (Interval::new(0, 60), "inside init phase"),
        (Interval::new(30, 90), "straddles init phase"),
        (Interval::new(60, 120), "paper default"),
        (Interval::new(120, 180), "later, same length"),
        (Interval::new(180, 240), "latest common window"),
        (Interval::new(60, 90), "short (30 s)"),
        (Interval::new(60, 75), "very short (15 s)"),
    ];
    for (w, note) in windows {
        let mut c = efd_classifier(metric, w);
        let r = run_experiment(ExperimentKind::NormalFold, &mut c, &dataset, &opts);
        table.add_row(vec![w.to_string(), fmt_score(r.mean_f1), note.to_string()]);
    }
    println!("{}", table.render());
    println!(
        "Expected shape: [0:60] clearly below [60:120] (the paper's\n\
         motivation for skipping the first minute); post-init windows\n\
         equivalent; short windows slightly worse (less noise averaging)."
    );
}
