//! The paper's tables and Figure 2, its experiments, the scenario
//! matrix, metric screening, the recognize demo and EXPERIMENTS.md.

use efd_eval::classifier::{efd_classifier, ExecutionClassifier, TaxonomistClassifier};
use efd_eval::engine::{EngineClassifier, MlBackend, MlFamily};
use efd_eval::experiments::{run_experiment, EvalOptions, ExperimentKind, ExperimentResult};
use efd_eval::report;
use efd_eval::screening::screen_metrics;
use efd_eval::BackendKind;
use efd_ml::taxonomist::TaxonomistConfig;
use efd_telemetry::Interval;
use efd_workload::scenario::{build as scenario_build, CleanRuns, ScenarioKind, ScenarioSpec};
use efd_workload::Dataset;

use crate::{dataset_from, headline, Args};

fn taxonomist_cfg(args: &Args) -> Result<TaxonomistConfig, String> {
    let mut cfg = TaxonomistConfig::default();
    if let Some(n) = args.flag_parsed::<usize>("trees")? {
        cfg.n_trees = n;
    }
    Ok(cfg)
}

fn experiment_kind(name: &str) -> Result<ExperimentKind, String> {
    Ok(match name {
        "normal-fold" => ExperimentKind::NormalFold,
        "soft-input" => ExperimentKind::SoftInput,
        "soft-unknown" => ExperimentKind::SoftUnknown,
        "hard-input" => ExperimentKind::HardInput,
        "hard-unknown" => ExperimentKind::HardUnknown,
        other => {
            return Err(format!(
                "unknown experiment {other:?} \
                 (normal-fold|soft-input|soft-unknown|hard-input|hard-unknown)"
            ))
        }
    })
}

fn run_all_experiments(dataset: &Dataset, cfg: TaxonomistConfig) -> Vec<ExperimentResult> {
    let opts = EvalOptions::default();
    let metric = headline(dataset);
    let mut results = Vec::new();
    let mut efd = efd_classifier(metric, Interval::PAPER_DEFAULT);
    for kind in ExperimentKind::ALL {
        eprintln!("running EFD {kind}…");
        results.push(run_experiment(kind, &mut efd, dataset, &opts));
    }
    let mut tax = TaxonomistClassifier::new(cfg);
    for kind in ExperimentKind::ALL {
        eprintln!("running Taxonomist {kind}…");
        results.push(run_experiment(kind, &mut tax, dataset, &opts));
    }
    results
}

pub(crate) fn table(args: &Args) -> Result<(), String> {
    let which = args
        .positional
        .first()
        .ok_or("table needs a number (1-4)")?;
    match which.as_str() {
        "1" => println!("{}", report::render_table1().render()),
        "2" => {
            let d = dataset_from(args)?;
            println!("{}", d.table2().render());
        }
        "3" => {
            let d = dataset_from(args)?;
            let scores = screen_metrics(&d, &EvalOptions::default(), None);
            println!("{}", report::render_table3(&scores).render());
            let top: usize = args.flag_parsed("top")?.unwrap_or(20);
            println!("{}", report::render_table3_top(&scores, top).render());
        }
        "4" => {
            let d = dataset_from(args)?;
            println!("{}", report::render_table4(&d).render());
        }
        other => return Err(format!("unknown table {other:?} (1-4)")),
    }
    Ok(())
}

pub(crate) fn figure2(args: &Args) -> Result<(), String> {
    let d = dataset_from(args)?;
    let results = run_all_experiments(&d, taxonomist_cfg(args)?);
    println!("{}", report::render_figure2(&results).render());
    Ok(())
}

pub(crate) fn evaluate(args: &Args) -> Result<(), String> {
    if args.flag("scenario").is_some() {
        return evaluate_scenario(args);
    }
    let kind = experiment_kind(
        args.flag("experiment")
            .ok_or("need --experiment or --scenario")?,
    )?;
    let d = dataset_from(args)?;
    let opts = EvalOptions::default();
    let metric = headline(&d);
    // `knn` / `gaussian-nb` run through the engine API: an `MlBackend`
    // (the ml family fitted as a `Recognize` backend) adapted into the
    // experiment harness by `EngineClassifier` — the same plumbing that
    // hosts the EFD and would host any other engine backend.
    let ml = |name, family| {
        EngineClassifier::new(name, metric, move |train| {
            MlBackend::fit(family, 0.5, train)
        })
    };
    let result = match args.flag("classifier").unwrap_or("efd") {
        "efd" => run_experiment(
            kind,
            &mut efd_classifier(metric, Interval::PAPER_DEFAULT),
            &d,
            &opts,
        ),
        "taxonomist" => run_experiment(
            kind,
            &mut TaxonomistClassifier::new(taxonomist_cfg(args)?),
            &d,
            &opts,
        ),
        "knn" => run_experiment(kind, &mut ml("kNN", MlFamily::Knn { k: 5 }), &d, &opts),
        "gaussian-nb" => {
            run_experiment(kind, &mut ml("GaussianNB", MlFamily::GaussianNb), &d, &opts)
        }
        other => {
            return Err(format!(
                "unknown classifier {other:?} (efd|taxonomist|knn|gaussian-nb)"
            ))
        }
    };
    println!(
        "{} / {}: mean macro-F1 = {:.3}",
        result.classifier, result.kind, result.mean_f1
    );
    for (variant, f1) in &result.per_variant {
        println!("  {variant:<24} {f1:.3}");
    }
    Ok(())
}

/// Default intensity grid for the scenario matrix: the clean baseline
/// plus quarter steps to full strength.
const SCENARIO_GRID: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// One scored matrix cell, held until the whole run is serialized.
struct ScenarioCell {
    scenario: ScenarioKind,
    backend: String,
    intensity: f64,
    relearn: bool,
    report: efd_eval::AbstentionReport,
}

/// Parse `all`, or a comma list of `what` names out of `all`.
fn all_or_list<T: Copy>(
    arg: &str,
    what: &str,
    all: &[T],
    name: fn(T) -> &'static str,
) -> Result<Vec<T>, String> {
    if arg == "all" {
        return Ok(all.to_vec());
    }
    arg.split(',')
        .map(|n| {
            all.iter().copied().find(|&k| name(k) == n).ok_or_else(|| {
                let names: Vec<&str> = all.iter().map(|&k| name(k)).collect();
                format!("unknown {what} {n:?} (all|{})", names.join("|"))
            })
        })
        .collect()
}

/// `efd evaluate --scenario <name|all>`: the adversarial & drift matrix.
///
/// Every requested backend is fitted once on the canonical clean training
/// split (through `EngineClassifier`, the adapter every engine backend
/// shares), then scored on every requested scenario × intensity cell.
/// `concept-drift` cells grow an extra online-relearning arm
/// (`snapshot+relearn`): the same drifted sequence served live through
/// `OnlineRecognizer` with aging/eviction maintenance between chunks.
fn evaluate_scenario(args: &Args) -> Result<(), String> {
    let scenario = args.flag("scenario").expect("checked by caller");
    // No default path: a default would overwrite any file of that name
    // in the working directory, a checkout's committed matrix included.
    let out = args
        .flag("out")
        .ok_or("--scenario needs --out <path> for the matrix JSON")?;
    let kinds = all_or_list(scenario, "scenario", &ScenarioKind::ALL, ScenarioKind::name)?;
    let backend = args.flag("backend").unwrap_or("all");
    let backends = all_or_list(backend, "backend", &BackendKind::ALL, BackendKind::name)?;
    let seed = args.flag_parsed::<u64>("seed")?.unwrap_or(0);
    let intensities: Vec<f64> = match args.flag_parsed::<f64>("intensity")? {
        Some(i) if i.is_finite() && (0.0..=1.0).contains(&i) => vec![i],
        Some(i) => return Err(format!("--intensity must be in [0, 1], got {i}")),
        None => SCENARIO_GRID.to_vec(),
    };

    let d = dataset_from(args)?;
    let metric = headline(&d);
    let interval = Interval::PAPER_DEFAULT;
    let opts = efd_eval::CellOptions::default();
    let clean = CleanRuns::from_dataset(&d, metric, interval);

    // One fit per backend: the clean training split is identical for
    // every scenario and intensity, so the matrix only pays the
    // perturb-and-recognize cost per cell.
    let fitted: Vec<_> = backends
        .iter()
        .map(|&b| {
            eprintln!("fitting {b}…");
            (b, efd_eval::fit_backend(b, &d, metric, interval, opts))
        })
        .collect();

    let mut cells: Vec<ScenarioCell> = Vec::new();
    for &kind in &kinds {
        for &intensity in &intensities {
            let spec = ScenarioSpec {
                kind,
                intensity,
                seed,
            };
            let data = scenario_build(&clean, &spec);
            for (b, clf) in &fitted {
                cells.push(ScenarioCell {
                    scenario: kind,
                    backend: b.name().to_string(),
                    intensity,
                    relearn: false,
                    report: efd_eval::run_cell(clf, &data, metric, interval),
                });
            }
            if kind == ScenarioKind::ConceptDrift {
                cells.push(ScenarioCell {
                    scenario: kind,
                    backend: "snapshot+relearn".to_string(),
                    intensity,
                    relearn: true,
                    report: efd_eval::drift_relearn(&data, metric, interval, &opts),
                });
            }
        }
    }

    // Human-readable: one table per scenario, rows ordered by backend
    // then intensity.
    for &kind in &kinds {
        let mut t = efd_util::table::TextTable::new(vec![
            "backend",
            "intensity",
            "macro-F1",
            "accuracy",
            "unk-P",
            "unk-R",
            "ECE",
            "verdicts",
        ])
        .with_title(format!("scenario: {kind}"));
        for c in cells.iter().filter(|c| c.scenario == kind) {
            let r = &c.report;
            t.add_row(vec![
                c.backend.clone(),
                format!("{:.2}", c.intensity),
                format!("{:.3}", r.macro_f1),
                format!("{:.3}", r.accuracy),
                format!("{:.3}", r.unknown_precision),
                format!("{:.3}", r.unknown_recall),
                format!("{:.3}", r.calibration_error),
                r.verdicts.to_string(),
            ]);
        }
        println!("{}", t.render());
    }

    // The headline claim of the drift scenario, stated explicitly.
    if let Some(max_i) = intensities
        .iter()
        .cloned()
        .fold(None::<f64>, |m, i| Some(m.map_or(i, |m| m.max(i))))
    {
        let at = |backend: &str| {
            cells
                .iter()
                .find(|c| {
                    c.scenario == ScenarioKind::ConceptDrift
                        && c.backend == backend
                        && c.intensity == max_i
                })
                .map(|c| c.report.macro_f1)
        };
        if let (Some(relearn), Some(stat)) = (at("snapshot+relearn"), at("snapshot")) {
            println!(
                "concept-drift @ intensity {max_i:.2}: online relearning macro-F1 \
                 {relearn:.3} vs static snapshot {stat:.3} ({:+.3})",
                relearn - stat
            );
        }
    }

    // Machine-readable matrix.
    let mut body = String::new();
    body.push_str("{\n  \"suite\": \"scenario-matrix\",\n");
    body.push_str(&format!(
        "  \"config\": {{ \"seed\": {seed}, \"metric\": \"{}\", \"interval\": [{}, {}], \
         \"scenarios\": [{}], \"backends\": [{}], \"intensities\": [{}] }},\n",
        d.catalog().name(metric),
        interval.start,
        interval.end,
        kinds
            .iter()
            .map(|k| format!("\"{k}\""))
            .collect::<Vec<_>>()
            .join(", "),
        backends
            .iter()
            .map(|b| format!("\"{b}\""))
            .collect::<Vec<_>>()
            .join(", "),
        intensities
            .iter()
            .map(|i| format!("{i}"))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    body.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let r = &c.report;
        body.push_str(&format!(
            "    {{ \"scenario\": \"{}\", \"backend\": \"{}\", \"intensity\": {}, \
             \"relearn\": {}, \"n\": {}, \"macro_f1\": {:.6}, \"accuracy\": {:.6}, \
             \"unknown_precision\": {:.6}, \"unknown_recall\": {:.6}, \
             \"unknown_f1\": {:.6}, \"calibration_error\": {:.6}, \
             \"tie_coverage\": {:.6}, \"recognized\": {}, \"ambiguous\": {}, \
             \"unknown\": {} }}{}\n",
            c.scenario,
            c.backend,
            c.intensity,
            c.relearn,
            r.n,
            r.macro_f1,
            r.accuracy,
            r.unknown_precision,
            r.unknown_recall,
            r.unknown_f1,
            r.calibration_error,
            r.tie_coverage,
            r.verdicts.recognized,
            r.verdicts.ambiguous,
            r.verdicts.unknown,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(out, &body).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out} ({} cells)", cells.len());
    Ok(())
}

pub(crate) fn screen(args: &Args) -> Result<(), String> {
    let d = dataset_from(args)?;
    let scores = screen_metrics(&d, &EvalOptions::default(), None);
    let top: usize = args.flag_parsed("top")?.unwrap_or(30);
    println!("{}", report::render_table3_top(&scores, top).render());
    Ok(())
}

pub(crate) fn recognize(args: &Args) -> Result<(), String> {
    let run: usize = args.flag_parsed("run")?.ok_or("need --run <index>")?;
    let d = dataset_from(args)?;
    if run >= d.len() {
        return Err(format!("run index {run} out of range (0..{})", d.len()));
    }
    let metric = headline(&d);
    let mut c = efd_classifier(metric, Interval::PAPER_DEFAULT);
    let train: Vec<usize> = (0..d.len()).filter(|&i| i != run).collect();
    c.fit(&d, &train);
    let model = c.engine().expect("fitted");
    // The EFD's data diet: only the first two minutes of the test run.
    let trace = d.materialize_prefix(
        run,
        &efd_telemetry::trace::MetricSelection::single(metric),
        120,
    );
    let rec = model.recognize_trace(&trace);
    println!("run #{run}: true label = {}", d.labels()[run]);
    println!("selected rounding depth: {}", model.depth());
    println!("verdict: {:?}", rec.verdict);
    if let Some(l) = rec.predicted_label() {
        println!("predicted label (with input): {l}");
    }
    println!("votes:");
    for (app, votes) in &rec.app_votes {
        println!("  {app:<12} {votes}");
    }
    Ok(())
}

pub(crate) fn report(args: &Args) -> Result<(), String> {
    let out = args.flag("out").unwrap_or("EXPERIMENTS.md");
    let d = dataset_from(args)?;
    let results = run_all_experiments(&d, taxonomist_cfg(args)?);
    eprintln!("screening all metrics…");
    let scores = screen_metrics(&d, &EvalOptions::default(), None);
    let md = report::experiments_markdown(&results, &scores, &d);
    std::fs::write(out, md).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}
