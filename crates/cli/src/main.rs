//! `efd` — command-line front end for the Execution Fingerprint Dictionary.
//!
//! ```text
//! efd table <1|2|3|4>                     regenerate a paper table
//! efd figure2 [--trees N]                 regenerate Figure 2 (both systems)
//! efd evaluate --experiment <kind> [--classifier efd|taxonomist|knn|gaussian-nb]
//! efd evaluate --scenario <name|all>      adversarial & drift matrix (SCENARIO_9.json)
//!              [--backend <name|all>] [--intensity X] [--seed N] [--out f]
//! efd screen [--top N]                    per-metric F-scores (Table 3 data)
//! efd recognize --run <idx>               leave-one-out demo on run <idx>
//! efd dump --out <path> [--format f]      train on everything, write JSON or EFDB
//! efd convert --in <a> --out <b>          JSON ↔ EFDB, round-trip verified
//! efd export-dict --out <path>            alias of `dump --format json`
//! efd serve --load <path> [--queries f]   batch recognition service demo
//!           [--backend snapshot|sharded|combo|efdb]  (one engine API, any backend)
//! efd serve --wal <dir> [--learn N]       durable serving: write-ahead logged
//!           [--wal-sync always|batch|none]      learning, crash recovery on restart
//! efd serve --listen <addr> ...           the network daemon: TCP frame protocol,
//!                                         /metrics over HTTP, SIGHUP hot reload
//! efd serve --manifest <stack.json> ...   manifest-stacked recognizer (exact →
//!                                         combo → ml fallback), batch or --listen
//! efd catalog <publish|list|show|rollback>  versioned artifact store: --dir <dir>
//! efd diff <A> <B> [--format table|json]  structural dictionary diff; exit 3 when
//!                                         semantically different
//! efd loadgen --addr <a> [--qps N]        drive a daemon, report latency percentiles
//! efd ctl <action> --addr <a>             ping|stats|status|swap|shutdown|metrics
//! efd compact --wal <dir> [--out p]       merge WAL segments+log into canonical EFDB
//! efd wal-verify --wal <dir>              audit a WAL directory offline
//! efd report --out <path>                 write EXPERIMENTS.md content
//! efd help
//! ```
//!
//! All commands operate on the synthetic public-subset dataset
//! (`--subset full` switches to the full-repetition variant,
//! `--seed <u64>` regenerates a different universe).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use efd_catalog::{Baseline, Catalog, CatalogRef, Manifest, StageBackend};
use efd_core::engine::Recognize;
use efd_core::{binfmt, serialize, EfdDictionary};
use efd_eval::classifier::{EfdClassifier, ExecutionClassifier, TaxonomistClassifier};
use efd_eval::engine::{EngineClassifier, MlBackend};
use efd_eval::experiments::{run_experiment, EvalOptions, ExperimentKind, ExperimentResult};
use efd_eval::report;
use efd_eval::screening::screen_metrics;
use efd_ml::taxonomist::TaxonomistConfig;
use efd_serve::backend::decode_dictionary;
use efd_serve::Backend;
use efd_workload::scenario::{build as scenario_build, CleanRuns, ScenarioKind, ScenarioSpec};
use efd_workload::{Dataset, DatasetSpec, SubsetKind};

/// Minimal flag parser: `--key value` pairs after the subcommand.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                flags.push((key.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self { positional, flags })
    }

    fn flag(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn flag_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.flag(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value {v:?} for --{key}")),
        }
    }
}

fn dataset_from(args: &Args) -> Result<Dataset, String> {
    let subset = match args.flag("subset") {
        None | Some("public") => SubsetKind::Public,
        Some("full") => SubsetKind::Full,
        Some(other) => return Err(format!("unknown --subset {other:?} (public|full)")),
    };
    let mut spec = DatasetSpec {
        subset,
        ..DatasetSpec::default()
    };
    if let Some(seed) = args.flag_parsed::<u64>("seed")? {
        spec.master_seed = seed;
    }
    Ok(Dataset::generate(spec))
}

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

fn headline(dataset: &Dataset) -> efd_telemetry::MetricId {
    dataset
        .catalog()
        .id(efd_eval::paper::HEADLINE_METRIC)
        .expect("headline metric present in catalog")
}

fn run_all_experiments(dataset: &Dataset, cfg: TaxonomistConfig) -> Vec<ExperimentResult> {
    let opts = EvalOptions::default();
    let metric = headline(dataset);
    let mut results = Vec::new();
    let mut efd = EfdClassifier::new(metric);
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

fn cmd_table(args: &Args) -> Result<(), String> {
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

fn cmd_figure2(args: &Args) -> Result<(), String> {
    let d = dataset_from(args)?;
    let results = run_all_experiments(&d, taxonomist_cfg(args)?);
    println!("{}", report::render_figure2(&results).render());
    Ok(())
}

fn cmd_evaluate(args: &Args) -> Result<(), String> {
    if args.flag("scenario").is_some() {
        return cmd_evaluate_scenario(args);
    }
    let kind = experiment_kind(
        args.flag("experiment")
            .ok_or("need --experiment or --scenario")?,
    )?;
    let d = dataset_from(args)?;
    let opts = EvalOptions::default();
    let metric = headline(&d);
    // `knn` / `gaussian-nb` run through the engine API: an `MlBackend`
    // (the ml family as a `Learn`/`Recognize` backend) adapted into the
    // experiment harness by `EngineClassifier` — the same plumbing that
    // would host any other engine backend.
    let result = match args.flag("classifier").unwrap_or("efd") {
        "efd" => run_experiment(kind, &mut EfdClassifier::new(metric), &d, &opts),
        "taxonomist" => run_experiment(
            kind,
            &mut TaxonomistClassifier::new(taxonomist_cfg(args)?),
            &d,
            &opts,
        ),
        "knn" => run_experiment(
            kind,
            &mut EngineClassifier::new("kNN", metric, || MlBackend::knn(5, 0.5)),
            &d,
            &opts,
        ),
        "gaussian-nb" => run_experiment(
            kind,
            &mut EngineClassifier::new("GaussianNB", metric, || MlBackend::gaussian_nb(0.5)),
            &d,
            &opts,
        ),
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

fn scenario_kinds(arg: &str) -> Result<Vec<ScenarioKind>, String> {
    if arg == "all" {
        return Ok(ScenarioKind::ALL.to_vec());
    }
    arg.split(',')
        .map(|name| {
            ScenarioKind::parse(name).ok_or_else(|| {
                format!(
                    "unknown scenario {name:?} (all|{})",
                    ScenarioKind::ALL.map(|k| k.name()).join("|")
                )
            })
        })
        .collect()
}

fn scenario_backends(arg: &str) -> Result<Vec<efd_eval::BackendKind>, String> {
    if arg == "all" {
        return Ok(efd_eval::BackendKind::ALL.to_vec());
    }
    arg.split(',')
        .map(|name| {
            efd_eval::BackendKind::parse(name).ok_or_else(|| {
                format!(
                    "unknown backend {name:?} (all|{})",
                    efd_eval::BackendKind::ALL.map(|b| b.name()).join("|")
                )
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
/// `OnlineSession` with aging/eviction maintenance between chunks.
fn cmd_evaluate_scenario(args: &Args) -> Result<(), String> {
    let kinds = scenario_kinds(args.flag("scenario").expect("checked by caller"))?;
    let backends = scenario_backends(args.flag("backend").unwrap_or("all"))?;
    let seed = args.flag_parsed::<u64>("seed")?.unwrap_or(0);
    let intensities: Vec<f64> = match args.flag_parsed::<f64>("intensity")? {
        Some(i) if i.is_finite() && (0.0..=1.0).contains(&i) => vec![i],
        Some(i) => return Err(format!("--intensity must be in [0, 1], got {i}")),
        None => SCENARIO_GRID.to_vec(),
    };
    let out = args.flag("out").unwrap_or("SCENARIO_9.json");

    let d = dataset_from(args)?;
    let metric = headline(&d);
    let interval = efd_telemetry::Interval::PAPER_DEFAULT;
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
    if let Some(max_i) = intensities.iter().cloned().fold(None::<f64>, |m, i| {
        Some(m.map_or(i, |m| m.max(i)))
    }) {
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

fn cmd_screen(args: &Args) -> Result<(), String> {
    let d = dataset_from(args)?;
    let scores = screen_metrics(&d, &EvalOptions::default(), None);
    let top: usize = args.flag_parsed("top")?.unwrap_or(30);
    println!("{}", report::render_table3_top(&scores, top).render());
    Ok(())
}

fn cmd_recognize(args: &Args) -> Result<(), String> {
    let run: usize = args.flag_parsed("run")?.ok_or("need --run <index>")?;
    let d = dataset_from(args)?;
    if run >= d.len() {
        return Err(format!("run index {run} out of range (0..{})", d.len()));
    }
    let metric = headline(&d);
    let mut c = EfdClassifier::new(metric);
    let train: Vec<usize> = (0..d.len()).filter(|&i| i != run).collect();
    c.fit(&d, &train);
    let model = c.model().expect("fitted");
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

fn cmd_generate(args: &Args) -> Result<(), String> {
    let out = args.flag("out").ok_or("need --out <dir>")?;
    let count: usize = args.flag_parsed("count")?.unwrap_or(4);
    let d = dataset_from(args)?;
    let metric = headline(&d);
    let selection = efd_telemetry::trace::MetricSelection::single(metric);
    std::fs::create_dir_all(out).map_err(|e| format!("mkdir {out}: {e}"))?;
    let mut written = 0usize;
    for i in 0..count.min(d.len()) {
        let trace = d.materialize(i, &selection);
        for node in &trace.nodes {
            let path = format!("{out}/run{i:04}_node{}.csv", node.node);
            let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
            efd_telemetry::csv::write_node_csv(&trace, node.node, d.catalog(), file)
                .map_err(|e| format!("{path}: {e}"))?;
            written += 1;
        }
    }
    println!(
        "wrote {written} node CSVs for {} runs to {out}/ \
         (LDMS-artifact layout; re-ingest with `efd ingest-csv`)",
        count.min(d.len())
    );
    Ok(())
}

fn cmd_ingest_csv(args: &Args) -> Result<(), String> {
    let dir = args.flag("dir").ok_or("need --dir <path>")?;
    let prefix = args.flag("run").ok_or("need --run <file-prefix, e.g. run0003>")?;
    let d = dataset_from(args)?;

    // Read every node CSV of the requested run.
    let mut csvs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().to_string();
        if !name.starts_with(prefix) || !name.ends_with(".csv") {
            continue;
        }
        let file = std::fs::File::open(entry.path()).map_err(|e| format!("{name}: {e}"))?;
        let parsed = efd_telemetry::csv::read_node_csv(std::io::BufReader::new(file))
            .map_err(|e| format!("{name}: {e}"))?;
        csvs.push(parsed);
    }
    if csvs.is_empty() {
        return Err(format!("no CSVs matching {prefix}* in {dir}"));
    }
    let trace = efd_telemetry::csv::assemble_trace(csvs, d.catalog())
        .map_err(|e| e.to_string())?;
    println!(
        "ingested {} nodes x {} s (label in file: {})",
        trace.node_count(),
        trace.duration_s,
        trace.label
    );

    // Recognize it against a dictionary trained on the synthetic dataset.
    let metric = headline(&d);
    let mut c = EfdClassifier::new(metric);
    let all: Vec<usize> = (0..d.len()).collect();
    c.fit(&d, &all);
    let rec = c.model().expect("fitted").recognize_trace(&trace);
    println!("verdict: {:?}", rec.verdict);
    Ok(())
}

/// On-disk dictionary format, chosen by `--format` or the output
/// extension (`.efdb` → EFDB, anything else → JSON).
#[derive(Clone, Copy, PartialEq, Eq)]
enum DumpFormat {
    Json,
    Efdb,
}

impl DumpFormat {
    fn name(self) -> &'static str {
        match self {
            DumpFormat::Json => "json",
            DumpFormat::Efdb => "efdb",
        }
    }

    fn from_args(args: &Args, out_path: &str) -> Result<Self, String> {
        match args.flag("format") {
            None => Ok(if out_path.ends_with(".efdb") {
                DumpFormat::Efdb
            } else {
                DumpFormat::Json
            }),
            Some("json") => Ok(DumpFormat::Json),
            Some("efdb") => Ok(DumpFormat::Efdb),
            Some(other) => Err(format!("unknown --format {other:?} (efdb|json)")),
        }
    }
}

/// Encode a dictionary in the requested on-disk format.
fn encode_dict(
    dict: &EfdDictionary,
    catalog: &efd_telemetry::MetricCatalog,
    format: DumpFormat,
) -> Vec<u8> {
    match format {
        DumpFormat::Json => serialize::to_json(dict, catalog).into_bytes(),
        DumpFormat::Efdb => binfmt::write_dictionary(dict, catalog),
    }
}

/// Train on every run and write the dictionary in `format`.
fn dump_to(args: &Args, out: &str, format: DumpFormat) -> Result<(), String> {
    let d = dataset_from(args)?;
    let mut c = EfdClassifier::new(headline(&d));
    let all: Vec<usize> = (0..d.len()).collect();
    c.fit(&d, &all);
    let bytes = encode_dict(c.model().expect("fitted").dictionary(), d.catalog(), format);
    std::fs::write(out, &bytes).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} bytes to {out} ({})", bytes.len(), format.name());
    Ok(())
}

fn cmd_dump(args: &Args) -> Result<(), String> {
    let out = args.flag("out").ok_or("need --out <path>")?;
    let format = DumpFormat::from_args(args, out)?;
    if let Some(keys) = args.flag_parsed::<usize>("synth-keys")? {
        // The synthetic serving keyspace (shared with `loadgen
        // --keyspace`) instead of the trained dataset — how the 1M-key
        // daemon fixture is produced.
        let d = dataset_from(args)?;
        let dict = synth_keyspace_dict(keys, headline(&d));
        let bytes = encode_dict(&dict, d.catalog(), format);
        std::fs::write(out, &bytes).map_err(|e| format!("write {out}: {e}"))?;
        println!(
            "wrote {} bytes to {out} ({}, {keys} synthetic keys)",
            bytes.len(),
            format.name()
        );
        return Ok(());
    }
    dump_to(args, out, format)
}

/// Convert a dictionary dump between JSON and EFDB, verifying after the
/// write that the output round-trips to the same canonical dictionary.
fn cmd_convert(args: &Args) -> Result<(), String> {
    let in_path = args.flag("in").ok_or("need --in <path>")?;
    let out_path = args.flag("out").ok_or("need --out <path>")?;
    let d = dataset_from(args)?;
    let catalog = d.catalog();

    let input = std::fs::read(in_path).map_err(|e| format!("{in_path}: {e}"))?;
    let dict = decode_dictionary(&input, catalog, in_path)?;
    let in_format = if input.starts_with(&binfmt::MAGIC) {
        DumpFormat::Efdb
    } else {
        DumpFormat::Json
    };
    let out_format = match args.flag("format") {
        // Default direction: the other format.
        None if !out_path.ends_with(".json") && !out_path.ends_with(".efdb") => match in_format {
            DumpFormat::Json => DumpFormat::Efdb,
            DumpFormat::Efdb => DumpFormat::Json,
        },
        _ => DumpFormat::from_args(args, out_path)?,
    };
    let output = encode_dict(&dict, catalog, out_format);
    std::fs::write(out_path, &output).map_err(|e| format!("write {out_path}: {e}"))?;

    // Round-trip equality check: reload what was written and compare the
    // canonical EFDB encodings (identical bytes ⇔ identical keys, label
    // intern order, and depth ⇔ identical recognition behavior).
    let back = decode_dictionary(&output, catalog, out_path)?;
    if binfmt::write_dictionary(&back, catalog) != binfmt::write_dictionary(&dict, catalog) {
        return Err(format!(
            "round-trip verification failed: {out_path} does not restore the input dictionary"
        ));
    }
    println!(
        "converted {in_path} ({}, {} bytes) -> {out_path} ({}, {} bytes)",
        in_format.name(),
        input.len(),
        out_format.name(),
        output.len()
    );
    println!("round trip verified: output restores the identical canonical dictionary");
    Ok(())
}

/// Alias of `dump --format json` (the original JSON-only command).
fn cmd_export_dict(args: &Args) -> Result<(), String> {
    let out = args.flag("out").ok_or("need --out <path>")?;
    dump_to(args, out, DumpFormat::Json)
}

/// Parse a query batch file. Two formats, chosen by extension:
///
/// * `.json` — an array of `{"metric": name, "start": s, "end": e,
///   "means": [per-node means…]}` objects;
/// * anything else — CSV rows `metric,start,end,mean0,mean1,…` with a
///   variable number of trailing per-node means (optional header).
fn load_queries(
    path: &str,
    catalog: &efd_telemetry::MetricCatalog,
) -> Result<Vec<efd_core::Query>, String> {
    use serde::Deserialize;

    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut queries = Vec::new();
    if path.ends_with(".json") {
        let root: serde::Value =
            serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        let serde::Value::Arr(items) = root else {
            return Err(format!("{path}: expected a JSON array of queries"));
        };
        for (i, item) in items.iter().enumerate() {
            let field = |k: &str| {
                item.get(k)
                    .ok_or_else(|| format!("{path}: query #{i} missing {k:?}"))
            };
            let name = String::from_value(field("metric")?).map_err(|e| e.to_string())?;
            let metric = catalog
                .id(&name)
                .ok_or_else(|| format!("{path}: query #{i}: unknown metric {name:?}"))?;
            let start = u32::from_value(field("start")?).map_err(|e| e.to_string())?;
            let end = u32::from_value(field("end")?).map_err(|e| e.to_string())?;
            if end <= start {
                return Err(format!("{path}: query #{i}: empty interval [{start}:{end}]"));
            }
            let means = Vec::<f64>::from_value(field("means")?).map_err(|e| e.to_string())?;
            if means.is_empty() {
                return Err(format!("{path}: query #{i}: no per-node means"));
            }
            queries.push(efd_core::Query::from_node_means(
                metric,
                efd_telemetry::Interval::new(start, end),
                &means,
            ));
        }
    } else {
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (lineno == 0 && line.starts_with("metric")) {
                continue;
            }
            let mut cols = line.split(',');
            let err = |what: &str| format!("{path}:{}: {what}", lineno + 1);
            let name = cols.next().ok_or_else(|| err("missing metric"))?.trim();
            let metric = catalog
                .id(name)
                .ok_or_else(|| err(&format!("unknown metric {name:?}")))?;
            let start: u32 = cols
                .next()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| err("bad start"))?;
            let end: u32 = cols
                .next()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| err("bad end"))?;
            if end <= start {
                return Err(err(&format!("empty interval [{start}:{end}]")));
            }
            let means = cols
                .map(|s| s.trim().parse::<f64>().map_err(|e| err(&e.to_string())))
                .collect::<Result<Vec<f64>, _>>()?;
            if means.is_empty() {
                return Err(err("no per-node means"));
            }
            queries.push(efd_core::Query::from_node_means(
                metric,
                efd_telemetry::Interval::new(start, end),
                &means,
            ));
        }
    }
    if queries.is_empty() {
        return Err(format!("{path}: no queries"));
    }
    Ok(queries)
}

/// Synthesize a recognition workload from the dataset: cycle its runs'
/// window means with small deterministic jitter (a stream of repeated
/// executions, as an always-on service would see).
fn synth_queries(d: &Dataset, count: usize) -> Vec<efd_core::Query> {
    synth_stream(d, count, 0x5E21E)
        .into_iter()
        .map(|o| o.query)
        .collect()
}

/// What `efd serve` serves: exactly one of a WAL directory, a
/// `recognizer.v1` manifest, or a dictionary (`--load`, alias `--dict`:
/// a file or a catalog reference) served as a registry [`Backend`].
enum ServeSource<'a> {
    Wal(&'a str),
    Manifest(&'a str),
    Dict(&'a str, Backend),
}

impl<'a> ServeSource<'a> {
    /// Validated before anything is read, in batch and `--listen` mode
    /// alike.
    fn from_args(args: &'a Args) -> Result<Self, String> {
        let dict = match (args.flag("dict"), args.flag("load")) {
            (Some(_), Some(_)) => return Err("--dict and --load are mutually exclusive".into()),
            (dict, load) => dict.or(load),
        };
        let backend = args.flag("backend");
        match (args.flag("wal"), args.flag("manifest"), dict) {
            (Some(_), Some(_), _) | (Some(_), _, Some(_)) | (_, Some(_), Some(_)) => {
                Err("--load, --wal and --manifest are mutually exclusive".into())
            }
            (Some(_), _, _) | (_, Some(_), _) if backend.is_some() => {
                Err("--backend picks how a --load dictionary is served; \
                 --wal serves its durable dictionary and --manifest names each stage's backend"
                    .into())
            }
            (Some(dir), None, None) => Ok(ServeSource::Wal(dir)),
            (None, Some(manifest), None) => Ok(ServeSource::Manifest(manifest)),
            (None, None, Some(spec)) => Backend::parse(backend.unwrap_or("snapshot"))
                .map(|b| ServeSource::Dict(spec, b))
                .map_err(|e| format!("--backend: {e}")),
            (None, None, None) => Err("need --load <dump.json|dict.efdb>, --wal <dir> or \
                 --manifest <stack.json> (produce a dump with `efd dump`)"
                .into()),
        }
    }
}

/// Run the query batch through an engine and print the `batch:` and
/// `verdicts:` lines (the latter is what the CI crash-recovery smoke
/// diffs between a recovered WAL and a clean replay). Returns the
/// elapsed batch time for the caller's speedup line.
fn serve_batch(
    engine: std::sync::Arc<dyn Recognize + Send + Sync>,
    queries: &[efd_core::Query],
    repeat: usize,
) -> std::time::Duration {
    let server = efd_serve::BatchRecognizer::new(engine);
    let start = std::time::Instant::now();
    let mut answers = Vec::new();
    for _ in 0..repeat {
        answers = server.recognize_batch(queries);
    }
    let elapsed = start.elapsed();
    let total = queries.len() * repeat;

    let (mut recognized, mut ambiguous, mut unknown) = (0usize, 0usize, 0usize);
    for r in &answers {
        match &r.verdict {
            efd_core::Verdict::Recognized(_) => recognized += 1,
            efd_core::Verdict::Ambiguous(_) => ambiguous += 1,
            // `Verdict` is #[non_exhaustive]; count future variants with
            // the safeguard bucket.
            _ => unknown += 1,
        }
    }
    println!(
        "batch:      {total} queries in {:.3} s → {:.0} q/s ({} worker threads)",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64().max(1e-9),
        efd_util::num_threads(queries.len()),
    );
    println!(
        "verdicts:   {recognized} recognized, {ambiguous} ambiguous, {unknown} unknown (per batch of {})",
        queries.len()
    );
    elapsed
}

/// Print the single-thread oracle throughput and speedup lines.
fn serve_oracle(dict: &EfdDictionary, queries: &[efd_core::Query], repeat: usize, batch: std::time::Duration) {
    let total = queries.len() * repeat;
    let start = std::time::Instant::now();
    for _ in 0..repeat {
        for q in queries {
            std::hint::black_box(dict.recognize(q).matched_points);
        }
    }
    let base = start.elapsed();
    println!(
        "oracle:     {total} queries in {:.3} s → {:.0} q/s (single-thread EfdDictionary)",
        base.as_secs_f64(),
        total as f64 / base.as_secs_f64().max(1e-9),
    );
    println!(
        "speedup:    {:.2}x",
        base.as_secs_f64() / batch.as_secs_f64().max(1e-9)
    );
}

/// The query workload for `efd serve`: an explicit file, or a synthetic
/// stream derived from the dataset.
fn serve_queries(args: &Args, d: &Dataset) -> Result<Vec<efd_core::Query>, String> {
    match (args.flag("queries"), args.flag_parsed::<usize>("synth")?) {
        (Some(path), None) => load_queries(path, d.catalog()),
        (None, Some(n)) => Ok(synth_queries(d, n.max(1))),
        (None, None) => Ok(synth_queries(d, 10_000)),
        (Some(_), Some(_)) => Err("--queries and --synth are mutually exclusive".into()),
    }
}

/// Synthesize a labeled learn stream from the dataset: cycle its runs
/// with small deterministic jitter (distinct from the query jitter seed,
/// so learning keeps adding fresh keys like a live cluster would).
fn synth_learn_stream(d: &Dataset, count: usize) -> Vec<efd_core::LabeledObservation> {
    synth_stream(d, count, 0x1EA2)
}

/// Cycle the dataset's runs (headline metric, paper window) with a
/// ±0.2% deterministic jitter per node mean, drawn from `seed`.
fn synth_stream(d: &Dataset, count: usize, seed: u64) -> Vec<efd_core::LabeledObservation> {
    let metric = headline(d);
    let sel = efd_telemetry::trace::MetricSelection::single(metric);
    let per_run: Vec<Vec<f64>> = d
        .window_means_all(&sel, efd_telemetry::Interval::PAPER_DEFAULT)
        .into_iter()
        .map(|nodes| nodes.into_iter().map(|m| m[0]).collect())
        .collect();
    let labels = d.labels();
    let mut rng = efd_util::SplitMix64::new(seed);
    (0..count)
        .map(|i| {
            let run = i % per_run.len();
            let means: Vec<f64> = per_run[run]
                .iter()
                .map(|m| m * (1.0 + (rng.next_f64() - 0.5) * 0.004))
                .collect();
            efd_core::LabeledObservation {
                label: labels[run].clone(),
                query: efd_core::Query::from_node_means(
                    metric,
                    efd_telemetry::Interval::PAPER_DEFAULT,
                    &means,
                ),
            }
        })
        .collect()
}

/// Open (recover, or start fresh) a `--wal` directory and report the
/// recovery — the one WAL path of batch and daemon serving.
fn open_wal(
    args: &Args,
    d: &Dataset,
    dir: &str,
    shards: usize,
) -> Result<(efd_serve::DurableDictionary, efd_core::wal::Recovery), String> {
    let depth_raw: u8 = args.flag_parsed("depth")?.unwrap_or(2);
    let depth = efd_core::RoundingDepth::try_new(depth_raw)
        .ok_or_else(|| format!("invalid --depth {depth_raw} (1..=17)"))?;
    let sync_raw = args.flag("wal-sync").unwrap_or("batch");
    let sync = efd_core::SyncPolicy::parse(sync_raw)
        .ok_or_else(|| format!("invalid --wal-sync {sync_raw:?} (always|batch|none|<n>)"))?;
    let options = efd_core::wal::WalOptions {
        sync,
        ..Default::default()
    };
    let t = std::time::Instant::now();
    let (served, recovery) =
        efd_serve::DurableDictionary::open(Path::new(dir), depth, shards, d.catalog(), options)
            .map_err(|e| format!("{dir}: {e}"))?;
    if let Some(fault) = &recovery.tail_fault {
        eprintln!(
            "warning: wal tail: {fault}; discarded {} bytes past the valid prefix",
            recovery.truncated_bytes
        );
    }
    println!(
        "recovered:  {dir} — segment {}, {} log records replayed, {:.2} ms (sync {sync_raw})",
        recovery.segments,
        recovery.replayed,
        t.elapsed().as_secs_f64() * 1e3,
    );
    Ok((served, recovery))
}

/// `efd serve --wal <dir>`: durable serving. Recover the directory (or
/// start fresh), optionally learn a synthetic stream write-ahead, then
/// answer the query batch from a published snapshot of the recovered
/// state.
fn cmd_serve_wal(
    args: &Args,
    d: &Dataset,
    dir: &str,
    shards: usize,
    repeat: usize,
) -> Result<(), String> {
    use std::sync::Arc;
    use std::time::Instant;

    let learn_n: usize = args.flag_parsed("learn")?.unwrap_or(0);
    let (served, recovery) = open_wal(args, d, dir, shards)?;
    let mut oracle = recovery.dictionary;
    if learn_n > 0 {
        let stream = synth_learn_stream(d, learn_n);
        let t = Instant::now();
        for obs in &stream {
            served.learn(obs).map_err(|e| format!("{dir}: {e}"))?;
        }
        served.sync().map_err(|e| format!("{dir}: {e}"))?;
        let el = t.elapsed();
        println!(
            "learned:    {learn_n} observations write-ahead in {:.3} s → {:.0} learns/s",
            el.as_secs_f64(),
            learn_n as f64 / el.as_secs_f64().max(1e-9),
        );
        for obs in &stream {
            oracle.learn(obs);
        }
    }

    let live = served.dictionary();
    println!(
        "dictionary: {} entries, depth {}, {} shards (durable, write-ahead logged)",
        live.len(),
        live.depth(),
        live.shard_count(),
    );
    let snapshot = live.snapshot();
    println!("backend:    durable — served from a published snapshot of the live shards");

    let queries = serve_queries(args, d)?;
    let elapsed = serve_batch(Arc::new(snapshot), &queries, repeat);
    serve_oracle(&oracle, &queries, repeat, elapsed);
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    use std::time::Instant;

    let source = ServeSource::from_args(args)?;
    let shards: usize = args.flag_parsed("shards")?.unwrap_or(8);
    if let Some(addr) = args.flag("listen") {
        return cmd_serve_listen(args, addr, source, shards);
    }
    let repeat: usize = args.flag_parsed("repeat")?.unwrap_or(1).max(1);
    let d = dataset_from(args)?;
    let (spec, backend) = match source {
        ServeSource::Wal(dir) => return cmd_serve_wal(args, &d, dir, shards, repeat),
        ServeSource::Manifest(mpath) => {
            let (engine, report) = engine_from_manifest(Path::new(mpath), d.catalog(), shards)?;
            for line in &report {
                println!("{line}");
            }
            println!("version:    {}", engine.version_label());
            let queries = serve_queries(args, &d)?;
            serve_batch(engine.recognizer, &queries, repeat);
            return Ok(());
        }
        ServeSource::Dict(spec, backend) => (spec, backend),
    };

    // The decoded dictionary is the oracle the speedup line compares
    // against; the served backend is built from the same bytes through
    // the registry, exactly as the daemon builds it.
    let src = resolve_dict_source(spec, args.flag("catalog").map(Path::new))?;
    let raw = std::fs::read(&src.path).map_err(|e| format!("{}: {e}", src.shown))?;
    let format = if raw.starts_with(&binfmt::MAGIC) {
        "efdb"
    } else {
        "json"
    };
    let t = Instant::now();
    let dict = decode_dictionary(&raw, d.catalog(), &src.shown)?;
    println!(
        "loaded:     {} — {} bytes {format}, decode {:.2} ms",
        src.shown,
        raw.len(),
        t.elapsed().as_secs_f64() * 1e3
    );
    if let Some(p) = &src.provenance {
        println!("provenance: {p}");
    }
    println!(
        "dictionary: {} entries, depth {}, {} labels, {} apps",
        dict.len(),
        dict.depth(),
        dict.label_count(),
        dict.app_names().len()
    );
    let t = Instant::now();
    let (engine, keys) = backend.load(raw, d.catalog(), shards, &src.shown)?;
    println!(
        "backend:    {} — {keys} keys, built in {:.2} ms",
        backend.name(),
        t.elapsed().as_secs_f64() * 1e3,
    );

    let queries = serve_queries(args, &d)?;
    let elapsed = serve_batch(engine, &queries, repeat);
    // Single-thread oracle loop over the same work, for the speedup line.
    serve_oracle(&dict, &queries, repeat, elapsed);
    Ok(())
}

/// Point a SIGHUP at the daemon's reload flag. The handler only stores
/// an atomic; the acceptor thread polls and performs the actual reload,
/// so nothing async-signal-unsafe runs in signal context.
#[cfg(unix)]
fn install_sighup(flag: std::sync::Arc<std::sync::atomic::AtomicBool>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};
    static HUP_FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    extern "C" fn on_hup(_sig: i32) {
        if let Some(f) = HUP_FLAG.get() {
            f.store(true, Ordering::SeqCst);
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGHUP: i32 = 1;
    let _ = HUP_FLAG.set(flag);
    unsafe {
        signal(SIGHUP, on_hup);
    }
}

#[cfg(not(unix))]
fn install_sighup(_flag: std::sync::Arc<std::sync::atomic::AtomicBool>) {}

/// `efd serve --listen <addr>`: the network daemon. Every backend of
/// the batch demo above, behind a socket: frame-protocol recognition
/// (one-shot and streaming), `/metrics` over HTTP on the same port,
/// SIGHUP / `SWAP` hot reload, graceful shutdown via `efd ctl`.
fn cmd_serve_listen(
    args: &Args,
    addr: &str,
    source: ServeSource<'_>,
    shards: usize,
) -> Result<(), String> {
    use efd_serve::net;
    use std::sync::Arc;
    use std::time::Duration;

    let d = dataset_from(args)?;
    let mut cfg = net::ServerConfig::new(d.catalog().clone());
    cfg.idle_timeout =
        Duration::from_secs(args.flag_parsed::<u64>("idle-timeout")?.unwrap_or(30).max(1));

    let engine = match source {
        ServeSource::Wal(dir) => net::Engine::durable(Arc::new(open_wal(args, &d, dir, shards)?.0)),
        ServeSource::Manifest(spec) | ServeSource::Dict(spec, _) => {
            // One loader builds the start-up engine and every SWAP /
            // SIGHUP reload: a manifest rebuilds its whole stack, and a
            // dictionary spec re-resolves through the catalog, so
            // `@latest` follows a publish and the version and drift
            // baseline are re-tagged.
            let catalog_dir = args.flag("catalog").map(PathBuf::from);
            let backend = match source {
                ServeSource::Dict(_, backend) => Some(backend),
                _ => None,
            };
            let load = move |p: &Path, catalog: &efd_telemetry::MetricCatalog| match backend {
                Some(backend) => dict_engine(p, backend, catalog_dir.as_deref(), catalog, shards),
                None => engine_from_manifest(p, catalog, shards),
            };
            let (engine, report) = load(Path::new(spec), d.catalog())?;
            for line in &report {
                println!("{line}");
            }
            cfg.reload_path = Some(PathBuf::from(spec));
            cfg.loader = Arc::new(move |p: &Path, catalog: &efd_telemetry::MetricCatalog| {
                load(p, catalog).map(|(engine, _)| engine)
            });
            engine
        }
    };
    println!(
        "engine:     {} — {} keys (generation 1)",
        engine.kind, engine.keys
    );

    let server = net::Server::start(addr, cfg, engine)?;
    install_sighup(server.hup_flag());
    println!(
        "listening:  {} — GET /metrics and /healthz on the same port",
        server.local_addr()
    );
    println!(
        "control:    efd ctl <ping|stats|status|swap|shutdown|metrics> --addr {}",
        server.local_addr()
    );
    while server.running() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let summary = server.join();
    println!(
        "served:     {} requests over {} connections",
        summary.requests, summary.connections
    );
    Ok(())
}

/// A daemon engine over a `--load` operand (file or catalog reference)
/// built as `backend`, tagged with the artifact's version and baseline;
/// the report lines carry its provenance.
fn dict_engine(
    spec: &Path,
    backend: Backend,
    catalog_dir: Option<&Path>,
    catalog: &efd_telemetry::MetricCatalog,
    shards: usize,
) -> Result<(efd_serve::net::Engine, Vec<String>), String> {
    let src = resolve_dict_source(&spec.to_string_lossy(), catalog_dir)?;
    let engine = efd_serve::net::Engine::load(&src.path, backend, catalog, shards)?;
    let report = src
        .provenance
        .iter()
        .map(|p| format!("provenance: {p}"))
        .collect();
    let engine = efd_serve::net::Engine {
        version: src.version,
        baseline: src.baseline,
        ..engine
    };
    Ok((engine, report))
}

/// Wall-clock seconds since the Unix epoch (artifact publish stamps).
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Measure a dictionary's abstention baseline: replay a deterministic
/// labeled stream (the `synth_learn_stream` shape) through a snapshot of
/// the dictionary and record unknown/ambiguous rates plus macro-F1.
/// Published alongside the artifact, this is what the serve layer's
/// drift monitor compares live traffic against.
fn abstention_baseline(dict: &EfdDictionary, d: &Dataset, queries: usize) -> Baseline {
    use std::collections::BTreeMap;

    let stream = synth_learn_stream(d, queries.max(1));
    let (snapshot, _) = Backend::Snapshot
        .from_dictionary(dict, d.catalog(), 8)
        .expect("the snapshot backend builds from any dictionary");
    let mut scratch = efd_core::engine::VoteScratch::default();
    let (mut unknown, mut ambiguous) = (0usize, 0usize);
    // app -> (true positives, false positives, false negatives)
    let mut tally: BTreeMap<String, (usize, usize, usize)> = BTreeMap::new();
    for obs in &stream {
        let rec = snapshot.recognize_into(&obs.query, &mut scratch).normalized();
        let truth = obs.label.app.as_str();
        match &rec.verdict {
            efd_core::Verdict::Recognized(app) if app.as_str() == truth => {
                tally.entry(app.clone()).or_default().0 += 1;
            }
            efd_core::Verdict::Recognized(app) => {
                tally.entry(app.clone()).or_default().1 += 1;
                tally.entry(truth.to_string()).or_default().2 += 1;
            }
            efd_core::Verdict::Ambiguous(_) => {
                ambiguous += 1;
                tally.entry(truth.to_string()).or_default().2 += 1;
            }
            // `Unknown`, and any future verdict, is an abstention.
            _ => {
                unknown += 1;
                tally.entry(truth.to_string()).or_default().2 += 1;
            }
        }
    }
    let n = stream.len().max(1) as f64;
    let macro_f1 = if tally.is_empty() {
        0.0
    } else {
        tally
            .values()
            .map(|&(tp, fp, fneg)| {
                let denom = 2 * tp + fp + fneg;
                if denom == 0 {
                    0.0
                } else {
                    2.0 * tp as f64 / denom as f64
                }
            })
            .sum::<f64>()
            / tally.len() as f64
    };
    Baseline {
        queries: stream.len(),
        unknown_rate: unknown as f64 / n,
        ambiguous_rate: ambiguous as f64 / n,
        macro_f1,
    }
}

/// Where a dictionary operand's bytes live after resolution: a plain
/// file path, or a published catalog artifact — digest-verified and
/// resolved to its on-disk file, so daemon hot reload can re-read it.
struct DictSource {
    path: PathBuf,
    /// Display name for report lines: the canonical catalog ref, or the
    /// path as given.
    shown: String,
    /// Provenance line when the source is a published artifact.
    provenance: Option<String>,
    /// Catalog version ref and publish-time baseline (daemon surfaces).
    version: Option<String>,
    baseline: Option<efd_serve::net::DriftBaseline>,
}

/// Resolve a `--load`/`diff` operand. A string that parses as a catalog
/// reference (`name`, `name@latest`, `name@vN`) resolves against
/// `--catalog <dir>`; anything else is a file path. This is the one
/// resolution path shared by batch `serve --load`, the daemon, and
/// `efd diff`.
fn resolve_dict_source(spec: &str, catalog_dir: Option<&Path>) -> Result<DictSource, String> {
    let reference = CatalogRef::parse(spec);
    let Some(reference) = reference.filter(|_| catalog_dir.is_some() || spec.contains('@')) else {
        return Ok(DictSource::file(PathBuf::from(spec)));
    };
    let dir = catalog_dir.ok_or_else(|| {
        format!("{spec:?} is a catalog reference; pass --catalog <dir> to resolve it")
    })?;
    let cat = Catalog::open(dir).map_err(|e| e.to_string())?;
    let a = cat.resolve(&reference).map_err(|e| e.to_string())?;
    // Integrity check now; serving re-reads the same verified file.
    cat.read_bytes(a).map_err(|e| e.to_string())?;
    Ok(DictSource {
        path: cat.dir().join(&a.file),
        shown: a.artifact_ref(),
        provenance: Some(a.provenance()),
        version: Some(a.artifact_ref()),
        baseline: a.baseline.as_ref().map(|b| efd_serve::net::DriftBaseline {
            unknown_rate: b.unknown_rate,
            ambiguous_rate: b.ambiguous_rate,
        }),
    })
}

impl DictSource {
    /// A plain dictionary file.
    fn file(path: PathBuf) -> DictSource {
        DictSource {
            shown: path.display().to_string(),
            path,
            provenance: None,
            version: None,
            baseline: None,
        }
    }
}

/// `efd catalog <publish|list|show|rollback> --dir <dir>`: the versioned
/// fingerprint-artifact store.
fn cmd_catalog(args: &Args) -> Result<(), String> {
    let action = args
        .positional
        .first()
        .ok_or("catalog needs an action (publish|list|show|rollback)")?;
    let dir = args.flag("dir").ok_or("need --dir <catalog-dir>")?;
    match action.as_str() {
        "publish" => {
            let name = args.flag("name").ok_or("need --name <artifact-name>")?;
            let from = args.flag("from").ok_or("need --from <dump.json|dict.efdb>")?;
            let d = dataset_from(args)?;
            let raw = std::fs::read(from).map_err(|e| format!("{from}: {e}"))?;
            let dict = decode_dictionary(&raw, d.catalog(), from)?;
            let baseline = match args.flag("baseline") {
                None | Some("auto") => {
                    let n: usize = args.flag_parsed("baseline-queries")?.unwrap_or(2000);
                    Some(abstention_baseline(&dict, &d, n))
                }
                Some("none") => None,
                Some(other) => return Err(format!("unknown --baseline {other:?} (auto|none)")),
            };
            let mut cat = Catalog::open(dir).map_err(|e| e.to_string())?;
            let a = cat
                .publish_dictionary(name, &dict, d.catalog(), from, unix_now(), baseline)
                .map_err(|e| e.to_string())?;
            println!("published:  {}", a.artifact_ref());
            println!("provenance: {}", a.provenance());
            Ok(())
        }
        "list" => {
            let cat = Catalog::open(dir).map_err(|e| e.to_string())?;
            if cat.artifacts().is_empty() {
                println!("catalog {dir} is empty");
                return Ok(());
            }
            let mut t = efd_util::table::TextTable::new(vec![
                "ref", "keys", "apps", "depth", "parent", "baseline", "status", "source",
            ]);
            for a in cat.artifacts() {
                let status = if a.retired {
                    "retired"
                } else if cat.latest(&a.name).map(|l| l.version) == Some(a.version) {
                    "latest"
                } else {
                    "live"
                };
                t.add_row(vec![
                    a.artifact_ref(),
                    a.keys.to_string(),
                    a.apps.to_string(),
                    a.depth.to_string(),
                    a.parent.map_or("-".to_string(), |p| format!("v{p}")),
                    a.baseline.as_ref().map_or("-".to_string(), |b| {
                        format!("unk {:.3} amb {:.3}", b.unknown_rate, b.ambiguous_rate)
                    }),
                    status.to_string(),
                    a.source.clone(),
                ]);
            }
            println!("{}", t.render());
            Ok(())
        }
        "show" => {
            let spec = args
                .positional
                .get(1)
                .ok_or("show needs a reference (name, name@latest, name@vN)")?;
            let r = CatalogRef::parse(spec)
                .ok_or_else(|| format!("invalid catalog reference {spec:?}"))?;
            let cat = Catalog::open(dir).map_err(|e| e.to_string())?;
            let a = cat.resolve(&r).map_err(|e| e.to_string())?;
            println!("provenance: {}", a.provenance());
            println!(
                "file:       {} (published at unix {})",
                cat.dir().join(&a.file).display(),
                a.created_unix
            );
            let bytes = cat.read_bytes(a).map_err(|e| e.to_string())?;
            println!(
                "integrity:  ok — {} bytes, digest {:016x}, metric catalog {:016x}",
                bytes.len(),
                a.digest,
                a.catalog_digest
            );
            Ok(())
        }
        "rollback" => {
            let name = args.positional.get(1).ok_or("rollback needs a name")?;
            let mut cat = Catalog::open(dir).map_err(|e| e.to_string())?;
            let (retired, now_latest) = cat.rollback(name).map_err(|e| e.to_string())?;
            println!(
                "rolled back: {name}@v{retired} retired; @latest is {}",
                now_latest.map_or("gone".to_string(), |v| format!("v{v}")),
            );
            Ok(())
        }
        other => Err(format!(
            "unknown catalog action {other:?} (publish|list|show|rollback)"
        )),
    }
}

/// Render the structural diff as the human table report.
fn render_diff_table(label_a: &str, label_b: &str, r: &efd_core::diff::DictDiff) -> String {
    let mut out = String::new();
    out.push_str(&format!("diff:       {label_a} -> {label_b}\n"));
    out.push_str(&format!("depth:      {} -> {}\n", r.depth_a, r.depth_b));
    out.push_str(&format!(
        "keys:       {} -> {} ({:+})\n",
        r.keys_a,
        r.keys_b,
        r.keys_b as i64 - r.keys_a as i64
    ));
    out.push_str(&format!(
        "changes:    {} added, {} removed, {} relabelled\n",
        r.added, r.removed, r.relabelled
    ));
    out.push_str(&format!(
        "divergence: {} of {} sampled verdicts differ\n",
        r.divergence.diverged, r.divergence.sampled
    ));
    if !r.coverage.is_empty() {
        let mut t = efd_util::table::TextTable::new(vec!["app", "keys A", "keys B", "delta"])
            .with_title("coverage (keys voting per app)");
        for c in &r.coverage {
            t.add_row(vec![
                c.app.clone(),
                c.keys_a.to_string(),
                c.keys_b.to_string(),
                format!("{:+}", c.delta()),
            ]);
        }
        out.push_str(&t.render());
        if !out.ends_with('\n') {
            out.push('\n');
        }
    }
    for key in &r.added_examples {
        out.push_str(&format!("  + {key}\n"));
    }
    for key in &r.removed_examples {
        out.push_str(&format!("  - {key}\n"));
    }
    for e in &r.relabel_examples {
        out.push_str(&format!(
            "  ~ {}: [{}] -> [{}]\n",
            e.key,
            e.labels_a.join(", "),
            e.labels_b.join(", ")
        ));
    }
    for e in &r.divergence.examples {
        out.push_str(&format!("  ! {}: {} -> {}\n", e.key, e.verdict_a, e.verdict_b));
    }
    out.push_str(&format!(
        "verdict:    semantically {}\n",
        if r.semantically_equal() { "equal" } else { "different" }
    ));
    out
}

/// Render the structural diff as machine-readable JSON.
fn render_diff_json(label_a: &str, label_b: &str, r: &efd_core::diff::DictDiff) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"a\": \"{}\",\n  \"b\": \"{}\",\n",
        esc(label_a),
        esc(label_b)
    ));
    out.push_str(&format!(
        "  \"depth\": {{ \"a\": {}, \"b\": {} }},\n",
        r.depth_a, r.depth_b
    ));
    out.push_str(&format!(
        "  \"keys\": {{ \"a\": {}, \"b\": {} }},\n",
        r.keys_a, r.keys_b
    ));
    out.push_str(&format!(
        "  \"added\": {}, \"removed\": {}, \"relabelled\": {},\n",
        r.added, r.removed, r.relabelled
    ));
    out.push_str(&format!(
        "  \"divergence\": {{ \"sampled\": {}, \"diverged\": {} }},\n",
        r.divergence.sampled, r.divergence.diverged
    ));
    out.push_str("  \"coverage\": [\n");
    for (i, c) in r.coverage.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"app\": \"{}\", \"keys_a\": {}, \"keys_b\": {}, \"delta\": {} }}{}\n",
            esc(&c.app),
            c.keys_a,
            c.keys_b,
            c.delta(),
            if i + 1 < r.coverage.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"semantically_equal\": {}\n}}\n",
        r.semantically_equal()
    ));
    out
}

/// `efd diff <A> <B>`: structural dictionary diff over any two artifacts
/// (files or catalog refs). Returns whether the sides are semantically
/// different — `main` maps `true` to exit code 3, keeping exit 1 for
/// errors.
fn cmd_diff(args: &Args) -> Result<bool, String> {
    let (a_spec, b_spec) = match (args.positional.first(), args.positional.get(1)) {
        (Some(a), Some(b)) => (a.as_str(), b.as_str()),
        _ => {
            return Err(
                "diff needs two artifacts: <A> <B> (file paths, or catalog refs with --catalog <dir>)"
                    .into(),
            )
        }
    };
    let json = match args.flag("format") {
        None | Some("table") => false,
        Some("json") => true,
        Some(other) => return Err(format!("unknown --format {other:?} (table|json)")),
    };
    let mut opts = efd_core::diff::DiffOptions::default();
    if let Some(s) = args.flag_parsed::<usize>("samples")? {
        opts.samples = s;
    }
    let d = dataset_from(args)?;
    let catalog = d.catalog();
    let load = |spec: &str| -> Result<(EfdDictionary, DictSource), String> {
        let src = resolve_dict_source(spec, args.flag("catalog").map(Path::new))?;
        let raw = std::fs::read(&src.path).map_err(|e| format!("{}: {e}", src.path.display()))?;
        let dict = decode_dictionary(&raw, catalog, &src.shown)?;
        Ok((dict, src))
    };
    let (da, sa) = load(a_spec)?;
    let (db, sb) = load(b_spec)?;
    let r = efd_core::diff::diff(&da, &db, catalog, &opts);
    if json {
        print!("{}", render_diff_json(&sa.shown, &sb.shown, &r));
    } else {
        for s in [&sa, &sb] {
            if let Some(p) = &s.provenance {
                println!("provenance: {p}");
            }
        }
        print!("{}", render_diff_table(&sa.shown, &sb.shown, &r));
    }
    Ok(!r.semantically_equal())
}

/// Train an ml fallback stage (`knn` or `gaussian-nb`) on a
/// dictionary's own entries — how it learns the knowledge the exact
/// stages serve (one single-point observation per key-label pair).
fn ml_stage(
    stage: &efd_catalog::ManifestStage,
    raw: &[u8],
    catalog: &efd_telemetry::MetricCatalog,
    shown: &str,
) -> Result<efd_serve::backend::Built, String> {
    use efd_core::engine::Learn as _;

    let mut ml = match stage.backend {
        StageBackend::Knn { k } => MlBackend::knn(k, stage.min_confidence),
        _ => MlBackend::gaussian_nb(stage.min_confidence),
    };
    let dict = decode_dictionary(raw, catalog, shown)?;
    for (fp, labels) in dict.entries() {
        for l in labels {
            ml.learn(&efd_core::LabeledObservation {
                label: (*l).clone(),
                query: efd_core::Query {
                    points: vec![efd_core::observation::ObsPoint {
                        metric: fp.metric,
                        node: fp.node,
                        interval: fp.interval,
                        mean: fp.mean(),
                    }],
                },
            });
        }
    }
    Ok((std::sync::Arc::new(ml), dict.len()))
}

/// Build the stacked engine a manifest declares. Every stage's artifact
/// resolves through the manifest's catalog (or a file path relative to
/// the manifest); dictionary stages build through the backend registry
/// and ml stages train on the artifact. The served version and drift
/// baseline come from the primary stage's artifact record; the report
/// lines name the stack and every artifact's provenance.
fn engine_from_manifest(
    path: &Path,
    catalog: &efd_telemetry::MetricCatalog,
    shards: usize,
) -> Result<(efd_serve::net::Engine, Vec<String>), String> {
    let m = Manifest::load(path).map_err(|e| e.to_string())?;
    let manifest_dir = path.parent().unwrap_or(Path::new("."));
    let mut stages = Vec::new();
    let mut provenance = Vec::new();
    let (mut keys, mut version, mut baseline) = (0, None, None);
    for (i, stage) in m.stack.iter().enumerate() {
        let src = match (&m.catalog_dir, CatalogRef::parse(&stage.artifact)) {
            (Some(dir), Some(_)) => resolve_dict_source(&stage.artifact, Some(dir))?,
            _ => DictSource::file(manifest_dir.join(&stage.artifact)),
        };
        let raw = std::fs::read(&src.path).map_err(|e| format!("{}: {e}", src.shown))?;
        let (engine, stage_keys) = match stage.backend.dictionary_backend() {
            Some(name) => Backend::parse(name)?.load(raw, catalog, shards, &src.shown)?,
            None => ml_stage(stage, &raw, catalog, &src.shown)?,
        };
        if i == 0 {
            (keys, version, baseline) = (stage_keys, src.version, src.baseline);
        }
        provenance.extend(src.provenance.map(|p| format!("provenance: {p}")));
        stages.push(efd_serve::StackedStage {
            name: stage.backend.to_string(),
            engine,
            min_confidence: stage.min_confidence,
        });
    }
    let stack = efd_serve::StackedRecognizer::new(stages);
    let mut report = vec![format!(
        "manifest:   {} — stack {}",
        path.display(),
        stack.describe()
    )];
    report.extend(provenance);
    let engine = efd_serve::net::Engine {
        version: version.or(Some(m.name)),
        baseline,
        ..efd_serve::net::Engine::fixed(std::sync::Arc::new(stack), keys, "stacked")
    };
    Ok((engine, report))
}

/// `efd loadgen --addr <a>`: drive a running daemon and report latency
/// percentiles (optionally into a JSON file, `--out`).
fn cmd_loadgen(args: &Args) -> Result<(), String> {
    use efd_serve::net::loadgen::{run, LoadgenConfig};
    use std::time::Duration;

    let addr = args.flag("addr").ok_or("need --addr <host:port>")?;
    let mut cfg = LoadgenConfig::new(addr);
    if let Some(n) = args.flag_parsed::<usize>("conns")? {
        cfg.connections = n.max(1);
    }
    let secs: f64 = args.flag_parsed("duration")?.unwrap_or(5.0);
    if secs <= 0.0 || !secs.is_finite() {
        return Err(format!("invalid --duration {secs} (seconds, > 0)"));
    }
    cfg.duration = Duration::from_secs_f64(secs);
    cfg.target_qps = args.flag_parsed::<u64>("qps")?;
    if let Some(p) = args.flag_parsed::<usize>("pipeline")? {
        cfg.pipeline = p.max(1);
    }
    let pool: usize = args.flag_parsed("requests")?.unwrap_or(512).max(1);

    // The request mix: PINGs (protocol floor), a synthetic keyspace mix
    // (matches `dump --synth-keys N`), or dataset-derived queries (the
    // same stream `serve --synth` answers).
    cfg.payloads = if matches!(args.flag("ping"), Some("true") | Some("1")) {
        vec!["PING".to_string()]
    } else if let Some(keys) = args.flag_parsed::<usize>("keyspace")? {
        let d = dataset_from(args)?;
        let name = d.catalog().name(headline(&d)).to_string();
        synth_keyspace_payloads(&name, keys, pool)
    } else {
        let d = dataset_from(args)?;
        let name = d.catalog().name(headline(&d)).to_string();
        synth_queries(&d, pool)
            .iter()
            .map(|q| render_recognize_line(&name, q))
            .collect()
    };

    println!(
        "loadgen:    {} — {} conns, {:.1} s, pipeline {}, {}",
        cfg.addr,
        cfg.connections,
        secs,
        cfg.pipeline,
        match cfg.target_qps {
            Some(q) => format!("paced at {q} req/s"),
            None => "unpaced (max rate)".to_string(),
        },
    );
    let report = run(&cfg)?;
    let us = |s: f64| s * 1e6;
    println!(
        "throughput: {} responses in {:.1} s → {:.0} verdicts/s ({} sent, {} errors)",
        report.received,
        report.duration.as_secs_f64(),
        report.qps,
        report.sent,
        report.errors,
    );
    println!(
        "verdicts:   {} recognized, {} ambiguous, {} unknown",
        report.verdicts[0], report.verdicts[1], report.verdicts[2],
    );
    println!(
        "latency:    p50 {:.0} µs, p90 {:.0} µs, p99 {:.0} µs, p99.9 {:.0} µs, max {:.0} µs",
        us(report.latency.p50),
        us(report.latency.p90),
        us(report.latency.p99),
        us(report.latency.p999),
        us(report.latency.max),
    );

    if let Some(out) = args.flag("out") {
        let body = format!(
            "{{\n  \"bench\": \"loadgen\",\n  \"config\": {{ \"addr\": \"{}\", \"connections\": {}, \
             \"duration_s\": {:.1}, \"qps_target\": {}, \"pipeline\": {}, \"payload_pool\": {} }},\n  \
             \"sent\": {},\n  \"received\": {},\n  \"errors\": {},\n  \
             \"verdicts\": {{ \"recognized\": {}, \"ambiguous\": {}, \"unknown\": {} }},\n  \
             \"verdicts_per_s\": {:.1},\n  \
             \"latency_us\": {{ \"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1}, \"max\": {:.1} }}\n}}\n",
            cfg.addr,
            cfg.connections,
            secs,
            cfg.target_qps.map_or("null".to_string(), |q| q.to_string()),
            cfg.pipeline,
            cfg.payloads.len(),
            report.sent,
            report.received,
            report.errors,
            report.verdicts[0],
            report.verdicts[1],
            report.verdicts[2],
            report.qps,
            us(report.latency.p50),
            us(report.latency.p90),
            us(report.latency.p99),
            us(report.latency.p999),
            us(report.latency.max),
        );
        std::fs::write(out, &body).map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote:      {out}");
    }
    Ok(())
}

/// Render one RECOGNIZE request line for a single-metric query.
fn render_recognize_line(metric_name: &str, q: &efd_core::Query) -> String {
    let iv = q.points.first().map(|p| p.interval).unwrap_or(efd_telemetry::Interval::PAPER_DEFAULT);
    let mut s = format!("RECOGNIZE {metric_name} {} {}", iv.start, iv.end);
    for p in &q.points {
        s.push_str(&format!(" {}", p.mean));
    }
    s
}

/// `efd ctl <action> --addr <a>`: one-shot daemon control — speaks one
/// protocol request (or one HTTP scrape for `metrics`) and prints the
/// response. Exits nonzero on an `ERR` response.
fn cmd_ctl(args: &Args) -> Result<(), String> {
    use efd_serve::net::protocol::{write_frame, FrameError, FrameReader};
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    let action = args
        .positional
        .first()
        .ok_or("ctl needs an action (ping|stats|status|swap|shutdown|metrics)")?;
    let addr = args.flag("addr").ok_or("need --addr <host:port>")?;
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| e.to_string())?;

    if action == "metrics" {
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: efd\r\nConnection: close\r\n\r\n")
            .map_err(|e| format!("{addr}: {e}"))?;
        let mut raw = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut buf = [0u8; 4096];
        while Instant::now() < deadline {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&buf[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(format!("{addr}: {e}")),
            }
        }
        let text = String::from_utf8_lossy(&raw);
        let (head, body) = text
            .split_once("\r\n\r\n")
            .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
        let status = head.lines().next().unwrap_or("");
        if !status.contains("200") {
            return Err(format!("{addr}: {status}"));
        }
        print!("{body}");
        return Ok(());
    }

    let line = match action.as_str() {
        "ping" => "PING".to_string(),
        "stats" => "STATS".to_string(),
        "status" => "STATUS".to_string(),
        "shutdown" => "SHUTDOWN".to_string(),
        "swap" => match args.flag("path") {
            Some(p) => format!("SWAP {p}"),
            None => "SWAP".to_string(),
        },
        other => {
            return Err(format!(
                "unknown ctl action {other:?} (ping|stats|status|swap|shutdown|metrics)"
            ))
        }
    };
    write_frame(&mut stream, line.as_bytes()).map_err(|e| format!("{addr}: {e}"))?;
    let mut reader = FrameReader::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match reader.read_frame(&mut stream) {
            Ok(Some(payload)) => {
                let text = String::from_utf8_lossy(payload).to_string();
                println!("{text}");
                if text.starts_with("ERR ") {
                    return Err(format!("{addr}: daemon refused: {text}"));
                }
                return Ok(());
            }
            Ok(None) => return Err(format!("{addr}: daemon closed without answering")),
            Err(FrameError::Timeout) => {
                if Instant::now() >= deadline {
                    return Err(format!("{addr}: timed out waiting for a response"));
                }
            }
            Err(e) => return Err(format!("{addr}: {e}")),
        }
    }
}

/// `efd compact --wal <dir> [--out <path>]`: merge a WAL directory's
/// newest segment + log tail into one canonical EFDB segment.
fn cmd_compact(args: &Args) -> Result<(), String> {
    let dir = args.flag("wal").ok_or("need --wal <dir>")?;
    let d = dataset_from(args)?;
    let report = efd_core::wal::compact_in_place(std::path::Path::new(dir), d.catalog())
        .map_err(|e| format!("{dir}: {e}"))?;
    println!(
        "compacted:  {dir} — {} log records folded in, {} superseded segment(s) removed",
        report.replayed, report.removed,
    );
    println!(
        "segment:    {} — {} keys (canonical EFDB)",
        report.segment.display(),
        report.keys,
    );
    if let Some(out) = args.flag("out") {
        std::fs::copy(&report.segment, out).map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote:      {out} (byte-identical to the compacted segment)");
    }
    Ok(())
}

/// `efd wal-verify --wal <dir> [--strict true]`: audit a WAL directory
/// offline — header, record scan, segment resolution — reporting the
/// valid prefix and any tail fault with its byte offset. Hard errors
/// (bad header, missing/corrupt segment) always exit nonzero; tail
/// faults are tolerated (truncate-and-warn is the recovery contract)
/// unless `--strict true`.
fn cmd_wal_verify(args: &Args) -> Result<(), String> {
    use efd_core::wal;

    let dir = args.flag("wal").ok_or("need --wal <dir>")?;
    let strict = matches!(args.flag("strict"), Some("true") | Some("1"));
    let d = dataset_from(args)?;

    let log_path = format!("{dir}/{}", wal::LOG_FILE);
    let bytes = std::fs::read(&log_path).map_err(|e| format!("{log_path}: {e}"))?;
    let replay = wal::read_log(&bytes).map_err(|e| format!("{log_path}: {e}"))?;
    let (mut learns, mut forgets) = (0usize, 0usize);
    for rec in &replay.records {
        match rec {
            wal::WalRecord::Learn(_) => learns += 1,
            _ => forgets += 1,
        }
    }
    println!(
        "wal:        {log_path} — {} bytes, depth {}, requires segment {}",
        bytes.len(),
        replay.depth.get(),
        replay.base_segments,
    );
    println!(
        "records:    {} valid ({learns} learns, {forgets} forgets), valid prefix {} bytes",
        replay.records.len(),
        replay.valid_len,
    );

    let recovery = wal::recover(std::path::Path::new(dir), d.catalog())
        .map_err(|e| format!("{dir}: {e}"))?;
    println!(
        "segments:   newest {} on disk (log requires {})",
        recovery.segments, replay.base_segments,
    );
    println!(
        "recovered:  {} keys, {} apps, depth {}",
        recovery.dictionary.len(),
        recovery.dictionary.app_names().len(),
        recovery.dictionary.depth(),
    );
    match &recovery.tail_fault {
        None => println!("tail:       clean"),
        Some(fault) => {
            println!(
                "tail:       {fault} ({} bytes past the valid prefix discarded on recovery)",
                recovery.truncated_bytes
            );
            if strict {
                return Err(format!("{log_path}: {fault}"));
            }
        }
    }
    Ok(())
}

/// The shared synthetic keyspace: key `i` is `(headline metric,
/// node i % 64, [60:120], mean 100_000 + i)` labeled `app{i%50}/X` at
/// rounding depth 6 (sequential means stay distinct). `dump
/// --synth-keys` and `loadgen --keyspace` both derive from this one
/// shape, so a loadgen against a `--synth-keys` EFDB hits real keys
/// by construction.
fn synth_keyspace_dict(keys: usize, metric: efd_telemetry::MetricId) -> EfdDictionary {
    let mut dict = EfdDictionary::new(efd_core::RoundingDepth::new(6));
    for i in 0..keys {
        dict.insert_raw(
            metric,
            efd_telemetry::NodeId((i % 64) as u16),
            efd_telemetry::Interval::PAPER_DEFAULT,
            100_000.0 + i as f64,
            &efd_telemetry::AppLabel::new(format!("app{:03}", i % 50), "X"),
        );
    }
    dict
}

/// RECOGNIZE request lines over the synthetic keyspace: 8-node queries
/// aligned to 64-key node blocks (so every point lands on its node's
/// keys), with ~9% of blocks drawn past the keyspace end as misses.
fn synth_keyspace_payloads(metric_name: &str, keys: usize, count: usize) -> Vec<String> {
    let blocks = (keys / 64).max(1);
    let mut rng = efd_util::SplitMix64::new(0x10AD);
    (0..count.max(1))
        .map(|_| {
            let r = (rng.next_u64() as usize) % (blocks + blocks / 10 + 1);
            let i0 = r * 64;
            let mut s = format!("RECOGNIZE {metric_name} 60 120");
            for j in 0..8 {
                s.push_str(&format!(" {}", 100_000.0 + (i0 + j) as f64));
            }
            s
        })
        .collect()
}

fn cmd_report(args: &Args) -> Result<(), String> {
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

const HELP: &str = "\
efd — Execution Fingerprint Dictionary (CLUSTER 2021 reproduction)

USAGE: efd <command> [flags]

COMMANDS
  table <1|2|3|4>        regenerate a paper table
  figure2                regenerate Figure 2 (all experiments, both systems)
  evaluate               one experiment: --experiment <kind>
                         [--classifier efd|taxonomist|knn|gaussian-nb]
                         or the adversarial & drift matrix: --scenario
                         <all|cryptomining-masquerade|metric-dropout|node-heterogeneity
                         |input-extrapolation|concept-drift> (comma lists ok)
                         [--backend all|dict|snapshot|sharded|combo|efdb|wal|forest|knn
                         |gaussian-nb] [--intensity X in [0,1], default grid 0..1 by .25]
                         [--seed <u64>] [--out SCENARIO_9.json]
  screen                 rank all 562 metrics by normal-fold F-score [--top N]
  recognize              leave-one-out recognition demo: --run <idx>
  generate               export runs as LDMS-style CSVs: --out <dir> [--count N]
  ingest-csv             recognize a run from CSVs: --dir <path> --run <prefix>
  dump                   train on all runs, write the dictionary: --out <path>
                         [--format efdb|json] (default by extension; .efdb = binary,
                         see docs/FORMAT.md); [--synth-keys N] writes the synthetic
                         serving keyspace instead (pairs with `loadgen --keyspace N`)
  convert                convert a dump between JSON and EFDB: --in <a> --out <b>
                         [--format efdb|json]; verifies the output round-trips
  export-dict            alias of `dump --format json`: --out <path>
  serve                  batch recognition service demo: --load <dump.json|dict.efdb>
                         [--backend snapshot|sharded|combo|efdb] [--queries <csv|json>]
                         [--synth N] [--shards N] [--repeat N]; every backend
                         takes EFDB or a JSON dump (efdb re-encodes a dump)
                         or durable: --wal <dir> [--learn N] [--wal-sync always|batch|none|<n>]
                         [--depth D] — write-ahead logged learning, recovery on restart
                         or daemon: --listen <addr> (e.g. 127.0.0.1:7070) — TCP frame
                         protocol + GET /metrics on one port, one thread per
                         connection; [--idle-timeout SECS]; hot reload on SIGHUP
                         or `efd ctl swap`
                         or stacked: --manifest <stack.json> — recognizer.v1 stack
                         (exact -> combo -> ml fallback, first confident verdict
                         wins); works batch or with --listen (hot-swappable);
                         --backend applies to --load only
                         --load also accepts a catalog ref (name@latest, name@vN)
                         with --catalog <dir>
  catalog                versioned artifact store: <publish|list|show|rollback>
                         --dir <dir>; publish: --name <n> --from <dump>
                         [--baseline auto|none] [--baseline-queries N (default 2000)]
                         show/rollback take a reference/name positionally
  diff                   structural dictionary diff: <A> <B> (files or catalog refs
                         with --catalog <dir>) [--format table|json] [--samples N];
                         exit 0 = semantically equal, 3 = different, 1 = error
  loadgen                drive a running daemon: --addr <host:port> [--conns N]
                         [--duration SECS] [--qps N] [--pipeline N] [--keyspace N]
                         [--requests N] [--ping true] [--out <json>]
  ctl                    one-shot daemon control: <ping|stats|status|swap|shutdown
                         |metrics> --addr <host:port> [--path <dict>]
  compact                merge a WAL directory into one canonical EFDB segment:
                         --wal <dir> [--out <path>]
  wal-verify             audit a WAL directory offline: --wal <dir> [--strict true]
  report                 write EXPERIMENTS.md content: [--out <path>]
  help                   this text

COMMON FLAGS
  --subset public|full   dataset variant (default: public, as in the paper)
  --seed <u64>           dataset master seed
  --trees <n>            Taxonomist forest size (default 100)
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprint!("{HELP}");
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "table" => cmd_table(&args),
        "figure2" => cmd_figure2(&args),
        "evaluate" => cmd_evaluate(&args),
        "screen" => cmd_screen(&args),
        "recognize" => cmd_recognize(&args),
        "generate" => cmd_generate(&args),
        "ingest-csv" => cmd_ingest_csv(&args),
        "dump" => cmd_dump(&args),
        "convert" => cmd_convert(&args),
        "export-dict" => cmd_export_dict(&args),
        "serve" => cmd_serve(&args),
        "catalog" => cmd_catalog(&args),
        // `diff` has a three-way exit contract: 0 = semantically equal,
        // 3 = semantically different, 1 = error.
        "diff" => {
            return match cmd_diff(&args) {
                Ok(true) => ExitCode::from(3),
                Ok(false) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "loadgen" => cmd_loadgen(&args),
        "ctl" => cmd_ctl(&args),
        "compact" => cmd_compact(&args),
        "wal-verify" => cmd_wal_verify(&args),
        "report" => cmd_report(&args),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; see `efd help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
