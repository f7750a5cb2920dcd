//! `efd serve`: a query batch or the `--listen` daemon, over `--load`,
//! `--wal` or `--manifest`.

use std::path::{Path, PathBuf};

use efd_catalog::CatalogRef;
use efd_core::engine::{ParallelRecognize, Recognize};
use efd_core::{binfmt, EfdDictionary};
use efd_serve::backend::decode_dictionary;
use efd_serve::manifest::DEFAULT_MIN_CONFIDENCE;
use efd_serve::{Backend, Manifest};
use efd_workload::Dataset;

use crate::{dataset_from, open_dict, synth_stream, Args, LEARN_JITTER, QUERY_JITTER};

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
        let root: serde::Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
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
                return Err(format!(
                    "{path}: query #{i}: empty interval [{start}:{end}]"
                ));
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

/// What `efd serve` serves: exactly one of a WAL directory, a
/// `recognizer.v1` manifest, or a dictionary (`--load`: a file or a
/// catalog reference) served as a registry [`Backend`].
enum ServeSource<'a> {
    Wal(&'a str),
    Manifest(&'a str),
    Dict(&'a str, Backend),
}

impl<'a> ServeSource<'a> {
    /// Validated before anything is read, in batch and `--listen` mode
    /// alike.
    fn from_args(args: &'a Args) -> Result<Self, String> {
        let backend = args.flag("backend");
        match (args.flag("wal"), args.flag("manifest"), args.flag("load")) {
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
    let start = std::time::Instant::now();
    let mut answers = Vec::new();
    for _ in 0..repeat {
        answers = engine.recognize_batch_parallel(queries);
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
fn serve_oracle(
    dict: &EfdDictionary,
    queries: &[efd_core::Query],
    repeat: usize,
    batch: std::time::Duration,
) {
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
    let count = match (args.flag("queries"), args.flag_parsed::<usize>("synth")?) {
        (Some(path), None) => return load_queries(path, d.catalog()),
        (None, n) => n.map_or(10_000, |n| n.max(1)),
        (Some(_), Some(_)) => return Err("--queries and --synth are mutually exclusive".into()),
    };
    Ok(synth_stream(d, count, QUERY_JITTER)
        .into_iter()
        .map(|o| o.query)
        .collect())
}

/// Open (recover, or start fresh) a `--wal` directory and report the
/// recovery — the one WAL path of batch and daemon serving.
fn open_wal(
    args: &Args,
    d: &Dataset,
    dir: &str,
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
        efd_serve::DurableDictionary::open(Path::new(dir), depth, d.catalog(), options)
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
fn serve_wal(args: &Args, d: &Dataset, dir: &str, repeat: usize) -> Result<(), String> {
    use std::sync::Arc;
    use std::time::Instant;

    let learn_n: usize = args.flag_parsed("learn")?.unwrap_or(0);
    let (served, recovery) = open_wal(args, d, dir)?;
    let mut oracle = recovery.dictionary;
    if learn_n > 0 {
        let stream = synth_stream(d, learn_n, LEARN_JITTER);
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

pub(crate) fn serve(args: &Args) -> Result<(), String> {
    use std::time::Instant;

    let source = ServeSource::from_args(args)?;
    if let Some(addr) = args.flag("listen") {
        return serve_listen(args, addr, source);
    }
    let repeat: usize = args.flag_parsed("repeat")?.unwrap_or(1).max(1);
    let d = dataset_from(args)?;
    let (spec, backend) = match source {
        ServeSource::Wal(dir) => return serve_wal(args, &d, dir, repeat),
        ServeSource::Manifest(mpath) => {
            let (engine, report) = engine_from_manifest(Path::new(mpath), d.catalog())?;
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
    let mut report = Vec::new();
    let src = open_dict(spec, args.flag("catalog").map(Path::new), &mut report)?;
    let format = if src.bytes.starts_with(&binfmt::MAGIC) {
        "efdb"
    } else {
        "json"
    };
    let t = Instant::now();
    let dict = decode_dictionary(&src.bytes, d.catalog(), &src.shown)?;
    println!(
        "loaded:     {} — {} bytes {format}, decode {:.2} ms",
        src.shown,
        src.bytes.len(),
        t.elapsed().as_secs_f64() * 1e3
    );
    for line in &report {
        println!("{line}");
    }
    println!(
        "dictionary: {} entries, depth {}, {} labels, {} apps",
        dict.len(),
        dict.depth(),
        dict.label_count(),
        dict.app_names().len()
    );
    let t = Instant::now();
    let (engine, keys) =
        backend.load(src.bytes, d.catalog(), &src.shown, DEFAULT_MIN_CONFIDENCE)?;
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
fn serve_listen(args: &Args, addr: &str, source: ServeSource<'_>) -> Result<(), String> {
    use efd_serve::net;
    use std::sync::Arc;
    use std::time::Duration;

    let d = dataset_from(args)?;
    let mut cfg = net::ServerConfig::new(d.catalog().clone());
    cfg.idle_timeout = Duration::from_secs(
        args.flag_parsed::<u64>("idle-timeout")?
            .unwrap_or(30)
            .max(1),
    );

    let engine = match source {
        ServeSource::Wal(dir) => net::Engine::durable(Arc::new(open_wal(args, &d, dir)?.0)),
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
                Some(backend) => {
                    let mut report = Vec::new();
                    let src = open_dict(&p.to_string_lossy(), catalog_dir.as_deref(), &mut report)?;
                    Ok((net::Engine::load(src, backend, catalog)?, report))
                }
                None => engine_from_manifest(p, catalog),
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

/// Build the stacked engine a manifest declares. Every stage's artifact
/// resolves through the manifest's catalog (or a file path relative to
/// the manifest) and builds through the backend registry; an ml stage
/// trains on the artifact and abstains below the stage's
/// `min_confidence`. The served version and drift
/// baseline come from the primary stage's artifact record; the report
/// lines name the stack and every artifact's provenance.
fn engine_from_manifest(
    path: &Path,
    catalog: &efd_telemetry::MetricCatalog,
) -> Result<(efd_serve::net::Engine, Vec<String>), String> {
    let m = Manifest::load(path)?;
    let manifest_dir = path.parent().unwrap_or(Path::new("."));
    let mut stages = Vec::new();
    let mut provenance = Vec::new();
    let (mut keys, mut version, mut baseline) = (0, None, None);
    for (i, stage) in m.stack.iter().enumerate() {
        let src = match (&m.catalog_dir, CatalogRef::parse(&stage.artifact)) {
            (Some(dir), Some(_)) => open_dict(&stage.artifact, Some(dir), &mut provenance)?,
            _ => {
                let path = manifest_dir.join(&stage.artifact);
                open_dict(&path.to_string_lossy(), None, &mut provenance)?
            }
        };
        let (engine, stage_keys) =
            stage
                .backend
                .load(src.bytes, catalog, &src.shown, stage.min_confidence)?;
        if i == 0 {
            (keys, version, baseline) = (stage_keys, src.version, src.baseline);
        }
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
