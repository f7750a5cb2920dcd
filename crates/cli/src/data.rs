//! Dataset CSV export and ingest, dictionary dumps, JSON ↔ EFDB.

use efd_core::training::Efd;
use efd_core::{binfmt, serialize, EfdDictionary, LabeledObservation};
use efd_eval::classifier::{efd_classifier, ExecutionClassifier};
use efd_eval::engine::EngineClassifier;
use efd_serve::backend::decode_dictionary;
use efd_telemetry::Interval;
use efd_workload::Dataset;

use crate::{dataset_from, headline, Args};

pub(crate) fn generate(args: &Args) -> Result<(), String> {
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

pub(crate) fn ingest_csv(args: &Args) -> Result<(), String> {
    let dir = args.flag("dir").ok_or("need --dir <path>")?;
    let prefix = args
        .flag("run")
        .ok_or("need --run <file-prefix, e.g. run0003>")?;
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
    let trace = efd_telemetry::csv::assemble_trace(csvs, d.catalog()).map_err(|e| e.to_string())?;
    println!(
        "ingested {} nodes x {} s (label in file: {})",
        trace.node_count(),
        trace.duration_s,
        trace.label
    );

    // Recognize it against a dictionary trained on the synthetic dataset.
    let rec = fit_all(&d)
        .engine()
        .expect("fitted")
        .recognize_trace(&trace);
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

/// An EFD trained on every run of the dataset.
fn fit_all(d: &Dataset) -> EngineClassifier<Efd, impl Fn(&[LabeledObservation]) -> Efd> {
    let mut c = efd_classifier(headline(d), Interval::PAPER_DEFAULT);
    let all: Vec<usize> = (0..d.len()).collect();
    c.fit(d, &all);
    c
}

pub(crate) fn dump(args: &Args) -> Result<(), String> {
    let out = args.flag("out").ok_or("need --out <path>")?;
    let format = DumpFormat::from_args(args, out)?;
    let synth_keys = args.flag_parsed::<usize>("synth-keys")?;
    let d = dataset_from(args)?;
    let (synth, trained);
    let (dict, note) = match synth_keys {
        // The synthetic serving keyspace (shared with `loadgen
        // --keyspace`) instead of the trained dataset — how the 1M-key
        // daemon fixture is produced.
        Some(keys) => {
            synth = synth_keyspace_dict(keys, headline(&d));
            (&synth, format!(", {keys} synthetic keys"))
        }
        None => {
            trained = fit_all(&d);
            (
                trained.engine().expect("fitted").dictionary(),
                String::new(),
            )
        }
    };
    let bytes = encode_dict(dict, d.catalog(), format);
    std::fs::write(out, &bytes).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {} bytes to {out} ({}{note})",
        bytes.len(),
        format.name()
    );
    Ok(())
}

/// Convert a dictionary dump between JSON and EFDB, verifying after the
/// write that the output round-trips to the same canonical dictionary.
pub(crate) fn convert(args: &Args) -> Result<(), String> {
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
            Interval::PAPER_DEFAULT,
            100_000.0 + i as f64,
            &efd_telemetry::AppLabel::new(format!("app{:03}", i % 50), "X"),
        );
    }
    dict
}
