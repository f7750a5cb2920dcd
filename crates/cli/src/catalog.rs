//! The versioned artifact store (`efd catalog`) and `efd diff`.

use std::process::ExitCode;

use efd_catalog::{Baseline, Catalog, CatalogRef};
use efd_core::engine::Recognize;
use efd_core::EfdDictionary;
use efd_serve::backend::decode_dictionary;
use efd_workload::Dataset;

use crate::{dataset_from, open_dict, synth_stream, Args, LEARN_JITTER};

/// Wall-clock seconds since the Unix epoch (artifact publish stamps).
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Measure a dictionary's abstention baseline: replay a deterministic
/// labeled stream (the `serve --learn` stream) through a snapshot of
/// the dictionary and record unknown/ambiguous rates plus macro-F1.
/// Published alongside the artifact, this is what the serve layer's
/// drift monitor compares live traffic against.
fn abstention_baseline(dict: &EfdDictionary, d: &Dataset, queries: usize) -> Baseline {
    use std::collections::BTreeMap;

    let stream = synth_stream(d, queries.max(1), LEARN_JITTER);
    let snapshot = efd_serve::Snapshot::freeze(dict);
    let mut scratch = efd_core::engine::VoteScratch::default();
    let (mut unknown, mut ambiguous) = (0usize, 0usize);
    // app -> (true positives, false positives, false negatives)
    let mut tally: BTreeMap<String, (usize, usize, usize)> = BTreeMap::new();
    for obs in &stream {
        let rec = snapshot
            .recognize_into(&obs.query, &mut scratch)
            .normalized();
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

/// `efd catalog <publish|list|show|rollback> --dir <dir>`: the versioned
/// fingerprint-artifact store.
pub(crate) fn catalog(args: &Args) -> Result<(), String> {
    let action = args
        .positional
        .first()
        .ok_or("catalog needs an action (publish|list|show|rollback)")?;
    let dir = args.flag("dir").ok_or("need --dir <catalog-dir>")?;
    match action.as_str() {
        "publish" => {
            let name = args.flag("name").ok_or("need --name <artifact-name>")?;
            let from = args
                .flag("from")
                .ok_or("need --from <dump.json|dict.efdb>")?;
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
        out.push_str(&format!(
            "  ! {}: {} -> {}\n",
            e.key, e.verdict_a, e.verdict_b
        ));
    }
    out.push_str(&format!(
        "verdict:    semantically {}\n",
        if r.semantically_equal() {
            "equal"
        } else {
            "different"
        }
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
/// (files or catalog refs). Exits 0 when the sides are semantically
/// equal and 3 when they differ, keeping exit 1 for errors.
pub(crate) fn diff(args: &Args) -> Result<ExitCode, String> {
    let (a_spec, b_spec) = match (args.positional.first(), args.positional.get(1)) {
        (Some(a), Some(b)) => (a.as_str(), b.as_str()),
        _ => return Err(
            "diff needs two artifacts: <A> <B> (file paths, or catalog refs with --catalog <dir>)"
                .into(),
        ),
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
    let catalog_dir = args.flag("catalog").map(std::path::Path::new);
    let mut report = Vec::new();
    let mut load = |spec: &str| -> Result<_, String> {
        let src = open_dict(spec, catalog_dir, &mut report)?;
        Ok((decode_dictionary(&src.bytes, catalog, &src.shown)?, src))
    };
    let (da, sa) = load(a_spec)?;
    let (db, sb) = load(b_spec)?;
    let r = efd_core::diff::diff(&da, &db, catalog, &opts);
    if json {
        print!("{}", render_diff_json(&sa.shown, &sb.shown, &r));
    } else {
        for line in &report {
            println!("{line}");
        }
        print!("{}", render_diff_table(&sa.shown, &sb.shown, &r));
    }
    Ok(if r.semantically_equal() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    })
}
