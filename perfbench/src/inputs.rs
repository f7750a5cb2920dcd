//! Workload inputs: generated from the workload seed, cached under the
//! work directory so a repeated seed skips generation, and paired with
//! the oracle reply of every distinct read.
//!
//! The oracle is the in-process `EfdDictionary` learned from the same
//! observations the daemon serves: its `recognize(..).normalized()`
//! rendered by `render_answer`, with the generation token left out
//! (replies are compared from the token after it).

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use efd_core::{binfmt, EfdDictionary, LabeledObservation, Query, RoundingDepth};
use efd_serve::net::protocol::render_answer;
use efd_telemetry::catalog::taxonomist_catalog;
use efd_telemetry::trace::MetricSelection;
use efd_telemetry::{AppLabel, Interval, MetricCatalog, MetricId, NodeId};
use efd_util::{derive_seed, parallel_map, SplitMix64};
use efd_workload::apps::AppId;
use efd_workload::dataset::{Dataset, DatasetSpec};

/// Bumped whenever generation changes, so stale cache files are ignored.
const CACHE_VERSION: u32 = 1;
/// Rounding depth of the paper-shaped dictionary.
pub const PAPER_DEPTH: u8 = 3;
/// The application left out of the paper-shaped training set, so its
/// queries exercise the paper's Unknown case.
const HOLDOUT: AppId = AppId::CoMd;
/// Windows the paper-shaped dictionary is learned on and queried with.
const READ_WINDOWS: [Interval; 2] = [
    Interval { start: 0, end: 60 },
    Interval {
        start: 60,
        end: 120,
    },
];
/// The window `learn-mix` learns in; no read ever queries it.
const LEARN_WINDOW: Interval = Interval {
    start: 120,
    end: 180,
};
/// Keys of the synthetic keyspace.
pub const KEYSPACE_KEYS: usize = 1_000_000;
/// Rounding depth of the synthetic keyspace (as `efd dump --synth-keys`).
const KEYSPACE_DEPTH: u8 = 6;
/// Learns replayed through the traced learn layer on workloads whose
/// daemon never learns.
const TRACE_LEARNS: usize = 10_000;
/// Distinct learns generated for learn-mix, more than one daemon instance
/// is sent; an instance that is sent more wraps around and re-learns
/// earlier observations.
const MIX_LEARNS: usize = 40_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-shaped dictionary and queries on the default backend.
    Paper10k,
    /// The synthetic 1M-key keyspace on the default backend.
    Keyspace1m,
    /// Durable daemon: paper-shaped reads beside learns.
    LearnMix,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-10k" => Some(Workload::Paper10k),
            "keyspace-1m" => Some(Workload::Keyspace1m),
            "learn-mix" => Some(Workload::LearnMix),
            _ => None,
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper10k => "paper-10k",
            Workload::Keyspace1m => "keyspace-1m",
            Workload::LearnMix => "learn-mix",
        }
    }

    /// Open-loop arrival rate in requests per second, fixed so later
    /// changes are compared at the same offered load. The rates are well
    /// below half of the closed-loop capacity measured when the benchmark
    /// was introduced (10–20% of it): at half, on a two-vCPU host, each
    /// sparse request pays a wake-up on both sides and the CPUs saturate,
    /// so the latency phase would measure scheduling, not the daemon.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::Paper10k => 20_000.0,
            Workload::Keyspace1m => 12_000.0,
            Workload::LearnMix => 15_000.0,
        }
    }

    /// Daemon instances an untraced run sets up and measures, one after
    /// another: pooling instances steadies the figures. keyspace-1m has
    /// fewer because each takes seconds to load; learn-mix more, so that
    /// one instance's closed loop stays within the learn list.
    pub fn instances(self) -> usize {
        match self {
            Workload::Paper10k => 6,
            Workload::Keyspace1m => 4,
            Workload::LearnMix => 12,
        }
    }

    /// One request in this many is a `LEARN` (learn-mix only).
    pub fn learn_every(self) -> Option<usize> {
        match self {
            Workload::LearnMix => Some(5),
            _ => None,
        }
    }
}

/// One request line and its framed bytes.
#[derive(Debug, Clone)]
pub struct Payload {
    /// The request line.
    pub text: String,
    /// Length prefix plus line, ready to write to a socket.
    pub framed: Vec<u8>,
}

impl Payload {
    fn new(text: String) -> Payload {
        let mut framed = Vec::with_capacity(text.len() + 4);
        framed.extend_from_slice(&(text.len() as u32).to_le_bytes());
        framed.extend_from_slice(text.as_bytes());
        Payload { text, framed }
    }
}

/// Verdict classes, in the order every count array uses.
pub const VERDICTS: [&str; 3] = ["recognized", "ambiguous", "unknown"];

/// Everything one run sends, and what it must get back.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Metric-name resolution (the daemon's default catalog).
    pub catalog: MetricCatalog,
    /// The EFDB the daemon serves, and the traced load layer reads.
    pub dict_path: PathBuf,
    /// Distinct `RECOGNIZE` payloads.
    pub reads: Vec<Payload>,
    /// Oracle reply to each read, from the token after the generation:
    /// `<matched> <total> <verdict tail>`.
    pub expected: Vec<String>,
    /// Verdict class of each expected reply (index into [`VERDICTS`]).
    pub expected_class: Vec<u8>,
    /// `LEARN` lines sent before timing starts (learn-mix).
    pub fill: Vec<Payload>,
    /// `LEARN` lines of the timed phase (learn-mix), or the learn stream
    /// the traced learn layer replays (other workloads).
    pub learns: Vec<Payload>,
    /// Keys in the served dictionary.
    pub keys: usize,
    /// Rounding depth of the served dictionary.
    pub depth: u8,
}

/// Oracle reply tail (everything after the generation token).
fn oracle_tail(dict: &EfdDictionary, q: &Query) -> String {
    let rec = dict.recognize(q).normalized();
    let full = render_answer("OK", 0, &rec);
    full["OK 0 ".len()..].to_string()
}

/// Verdict class of a reply tail `<matched> <total> <verdict> ...`.
pub fn tail_class(tail: &str) -> u8 {
    match tail.split(' ').nth(2) {
        Some("recognized") => 0,
        Some("ambiguous") => 1,
        _ => 2,
    }
}

/// One single-metric observation of one execution.
struct Obs {
    label: AppLabel,
    metric: MetricId,
    window: Interval,
    means: Vec<f64>,
}

impl Obs {
    fn query(&self) -> Query {
        Query::from_node_means(self.metric, self.window, &self.means)
    }

    fn recognize_line(&self, catalog: &MetricCatalog) -> String {
        let mut s = format!(
            "RECOGNIZE {} {} {}",
            catalog.name(self.metric),
            self.window.start,
            self.window.end
        );
        for m in &self.means {
            write!(s, " {m}").expect("write to String");
        }
        s
    }

    fn learn_line(&self, catalog: &MetricCatalog) -> String {
        let mut s = format!(
            "LEARN {} {} {} {} {}",
            self.label.app,
            self.label.input,
            catalog.name(self.metric),
            self.window.start,
            self.window.end
        );
        for m in &self.means {
            write!(s, " {m}").expect("write to String");
        }
        s
    }
}

/// The 13 Table 3 metrics.
fn table3_metrics(catalog: &MetricCatalog) -> Result<Vec<MetricId>, String> {
    efd_eval::paper::TABLE3
        .iter()
        .map(|(name, _)| {
            catalog
                .id(name)
                .ok_or_else(|| format!("Table 3 metric {name} missing from the catalog"))
        })
        .collect()
}

/// Observations of every run of a dataset (optionally minus one app):
/// one per run × window × metric, all nodes' window means. Observations
/// with a non-finite mean are dropped (the wire grammar rejects them).
fn observe(
    spec: DatasetSpec,
    metrics: &[MetricId],
    windows: &[Interval],
    skip: Option<AppId>,
) -> Vec<Obs> {
    let d = Dataset::generate(spec);
    let sel = MetricSelection::new(metrics.to_vec());
    let horizon = windows.iter().map(|w| w.end).max().expect("a window");
    let idx: Vec<usize> = (0..d.len())
        .filter(|&i| Some(d.runs()[i].app) != skip)
        .collect();
    let per_run = parallel_map(&idx, |&i| {
        let trace = d.materialize_prefix(i, &sel, horizon);
        let label = d.runs()[i].label();
        let mut out = Vec::with_capacity(windows.len() * metrics.len());
        for &window in windows {
            for &metric in metrics {
                let means: Vec<f64> = trace
                    .per_node_series(metric)
                    .map(|(_, s)| s.window_mean(window))
                    .collect();
                if !means.is_empty() && means.iter().all(|v| v.is_finite()) {
                    out.push(Obs {
                        label: label.clone(),
                        metric,
                        window,
                        means,
                    });
                }
            }
        }
        out
    });
    per_run.into_iter().flatten().collect()
}

/// The paper-shaped training set (the public Table 2 runs minus the
/// held-out app) and its dictionary, built on first use.
fn trained<'a>(
    slot: &'a mut Option<(Vec<Obs>, EfdDictionary)>,
    metrics: &[MetricId],
) -> &'a (Vec<Obs>, EfdDictionary) {
    slot.get_or_insert_with(|| {
        let t = Instant::now();
        let obs = observe(
            DatasetSpec::default(),
            metrics,
            &READ_WINDOWS,
            Some(HOLDOUT),
        );
        let dict = train(&obs, PAPER_DEPTH);
        log(
            &format!("trained the paper dictionary: {} keys", dict.len()),
            t,
        );
        (obs, dict)
    })
}

fn train(obs: &[Obs], depth: u8) -> EfdDictionary {
    let mut dict = EfdDictionary::new(RoundingDepth::new(depth));
    for o in obs {
        dict.learn(&LabeledObservation {
            label: o.label.clone(),
            query: o.query(),
        });
    }
    dict
}

/// Read a cache file, or build it and write it atomically.
fn cached(path: &Path, build: impl FnOnce() -> Result<Vec<u8>, String>) -> Result<Vec<u8>, String> {
    if let Ok(bytes) = std::fs::read(path) {
        return Ok(bytes);
    }
    let bytes = build()?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))?;
    Ok(bytes)
}

fn lines(bytes: &[u8]) -> Result<Vec<&str>, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("cache file: {e}"))?;
    Ok(text.lines().filter(|l| !l.is_empty()).collect())
}

/// Reads paired with oracle tails, cached as `payload\ttail` lines.
fn read_set(
    path: &Path,
    build: impl FnOnce() -> Result<Vec<(String, String)>, String>,
) -> Result<(Vec<Payload>, Vec<String>), String> {
    let bytes = cached(path, || {
        let mut out = String::new();
        for (p, t) in build()? {
            writeln!(out, "{p}\t{t}").expect("write to String");
        }
        Ok(out.into_bytes())
    })?;
    let mut reads = Vec::new();
    let mut expected = Vec::new();
    for line in lines(&bytes)? {
        let (p, t) = line
            .split_once('\t')
            .ok_or_else(|| format!("{}: malformed line", path.display()))?;
        reads.push(Payload::new(p.to_string()));
        expected.push(t.to_string());
    }
    Ok((reads, expected))
}

fn payload_set(
    path: &Path,
    build: impl FnOnce() -> Result<Vec<String>, String>,
) -> Result<Vec<Payload>, String> {
    let bytes = cached(path, || Ok(build()?.join("\n").into_bytes()))?;
    Ok(lines(&bytes)?
        .into_iter()
        .map(|l| Payload::new(l.to_string()))
        .collect())
}

/// Distinct read payloads (first occurrence kept) with oracle tails.
fn oracle_reads(
    dict: &EfdDictionary,
    obs: &[Obs],
    catalog: &MetricCatalog,
) -> Vec<(String, String)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for o in obs {
        let line = o.recognize_line(catalog);
        if seen.insert(line.clone()) {
            out.push((line, oracle_tail(dict, &o.query())));
        }
    }
    out
}

fn log(what: &str, t: Instant) {
    eprintln!("perfbench: {what} ({:.2} s)", t.elapsed().as_secs_f64());
}

/// Build (or load from `cache`) the inputs of `workload` under `seed`.
pub fn prepare(workload: Workload, seed: u64, cache: &Path) -> Result<Inputs, String> {
    std::fs::create_dir_all(cache).map_err(|e| format!("{}: {e}", cache.display()))?;
    let catalog = taxonomist_catalog();
    match workload {
        Workload::Paper10k | Workload::LearnMix => paper(workload, seed, cache, catalog),
        Workload::Keyspace1m => keyspace(cache, catalog),
    }
}

fn paper(
    workload: Workload,
    seed: u64,
    cache: &Path,
    catalog: MetricCatalog,
) -> Result<Inputs, String> {
    let v = CACHE_VERSION;
    let metrics = table3_metrics(&catalog)?;
    let dict_path = cache.join(format!("paper-train-v{v}.efdb"));
    let fill_path = cache.join(format!("paper-train-v{v}.learn"));
    let reads_path = cache.join(format!("paper-reads-v{v}-{seed}.tsv"));
    let want_learns = if workload == Workload::LearnMix {
        MIX_LEARNS
    } else {
        TRACE_LEARNS
    };
    let learns_path = cache.join(format!("paper-learns-v{v}-{seed}-{want_learns}.learn"));

    // Training set: the public Table 2 runs minus the held-out app.
    let mut training = None;
    let efdb = cached(&dict_path, || {
        Ok(binfmt::write_dictionary(
            &trained(&mut training, &metrics).1,
            &catalog,
        ))
    })?;
    let fill = payload_set(&fill_path, || {
        Ok(trained(&mut training, &metrics)
            .0
            .iter()
            .map(|o| o.learn_line(&catalog))
            .collect())
    })?;
    // Queries: every run of executions regenerated under the seed.
    let query_spec = DatasetSpec {
        master_seed: derive_seed(seed, &[0x0E_AD5]),
        ..DatasetSpec::default()
    };
    let (reads, expected) = read_set(&reads_path, || {
        let t = Instant::now();
        let obs = observe(query_spec, &metrics, &READ_WINDOWS, None);
        let out = oracle_reads(&trained(&mut training, &metrics).1, &obs, &catalog);
        log(
            &format!("generated {} paper queries with oracle replies", out.len()),
            t,
        );
        Ok(out)
    })?;
    // Learns of new executions in a window no read queries.
    let learns = payload_set(&learns_path, || {
        let t = Instant::now();
        let mut out = Vec::with_capacity(want_learns);
        let mut k = 0u64;
        while out.len() < want_learns {
            let spec = DatasetSpec {
                master_seed: derive_seed(seed, &[0x1EA2, k]),
                ..DatasetSpec::default()
            };
            out.extend(
                observe(spec, &metrics, &[LEARN_WINDOW], None)
                    .iter()
                    .map(|o| o.learn_line(&catalog)),
            );
            k += 1;
        }
        out.truncate(want_learns);
        log(&format!("generated {} learn lines", out.len()), t);
        Ok(out)
    })?;
    let keys = binfmt::check(&efdb)
        .map_err(|e| format!("{}: {e}", dict_path.display()))?
        .len();
    let expected_class = expected.iter().map(|t| tail_class(t)).collect();
    Ok(Inputs {
        workload,
        catalog,
        dict_path,
        reads,
        expected,
        expected_class,
        fill: if workload == Workload::LearnMix {
            fill
        } else {
            Vec::new()
        },
        learns,
        keys,
        depth: PAPER_DEPTH,
    })
}

/// Mean of synthetic key `i`. The keyspace has the shape `efd dump
/// --synth-keys` and `efd loadgen --keyspace` use: key `i` is `(headline
/// metric, node i % 64, [60:120], 100000 + i)` labelled `app{i % 50}/X`
/// at depth 6.
fn synth_mean(i: usize) -> f64 {
    100_000.0 + i as f64
}

/// The synthetic keyspace dictionary, built on first use.
fn synth_keyspace(slot: &mut Option<EfdDictionary>, metric: MetricId) -> &EfdDictionary {
    slot.get_or_insert_with(|| {
        let t = Instant::now();
        let mut dict = EfdDictionary::new(RoundingDepth::new(KEYSPACE_DEPTH));
        for i in 0..KEYSPACE_KEYS {
            dict.insert_raw(
                metric,
                NodeId((i % 64) as u16),
                Interval::PAPER_DEFAULT,
                synth_mean(i),
                &AppLabel::new(format!("app{:03}", i % 50), "X"),
            );
        }
        log("built the 1M-key keyspace", t);
        dict
    })
}

fn synth_line(verb: &str, metric: &str, i0: usize, label: Option<&AppLabel>) -> String {
    let mut s = match label {
        Some(l) => format!("{verb} {} {} {metric} 60 120", l.app, l.input),
        None => format!("{verb} {metric} 60 120"),
    };
    for j in 0..8 {
        write!(s, " {}", synth_mean(i0 + j)).expect("write to String");
    }
    s
}

fn keyspace(cache: &Path, catalog: MetricCatalog) -> Result<Inputs, String> {
    let v = CACHE_VERSION;
    let dict_path = cache.join(format!("keyspace-1m-v{v}.efdb"));
    let reads_path = cache.join(format!("keyspace-1m-v{v}.tsv"));
    let headline = efd_eval::paper::HEADLINE_METRIC;
    let metric = catalog
        .id(headline)
        .ok_or_else(|| format!("{headline} missing from the catalog"))?;

    // The keyspace is the same for every seed: built once, it yields both
    // the served EFDB and the oracle replies.
    let mut slot = None;
    let efdb = cached(&dict_path, || {
        Ok(binfmt::write_dictionary(
            synth_keyspace(&mut slot, metric),
            &catalog,
        ))
    })?;
    // Every distinct query: 8 points aligned to a 64-key node block,
    // with one block in eleven past the keyspace end (a miss).
    let blocks = KEYSPACE_KEYS / 64;
    let (reads, expected) = read_set(&reads_path, || {
        let dict = synth_keyspace(&mut slot, metric);
        Ok((0..blocks + blocks / 10 + 1)
            .map(|r| {
                let q = Query::from_node_means(
                    metric,
                    Interval::PAPER_DEFAULT,
                    &(0..8).map(|j| synth_mean(r * 64 + j)).collect::<Vec<_>>(),
                );
                (
                    synth_line("RECOGNIZE", headline, r * 64, None),
                    oracle_tail(dict, &q),
                )
            })
            .collect())
    })?;
    let keys = binfmt::check(&efdb)
        .map_err(|e| format!("{}: {e}", dict_path.display()))?
        .len();
    // Learns of keys past every query block (traced learn layer only).
    let learns = (0..TRACE_LEARNS)
        .map(|k| {
            let label = AppLabel::new(format!("app{:03}", k % 50), "X");
            Payload::new(synth_line(
                "LEARN",
                headline,
                (blocks + blocks / 10 + 2 + k) * 64,
                Some(&label),
            ))
        })
        .collect();
    let expected_class = expected.iter().map(|t| tail_class(t)).collect();
    Ok(Inputs {
        workload: Workload::Keyspace1m,
        catalog,
        dict_path,
        reads,
        expected,
        expected_class,
        fill: Vec::new(),
        learns,
        keys,
        depth: KEYSPACE_DEPTH,
    })
}

/// The request stream of one run: reads in a seeded permutation, cycled;
/// on learn-mix every `learn_every`-th request is the next learn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// Index into [`Inputs::reads`].
    Read(u32),
    /// Index into [`Inputs::learns`].
    Learn(u32),
}

/// A seeded, endless request stream over the inputs. Learns are taken
/// from a cursor shared by every stream of a run, so none is sent twice
/// until the learn list wraps.
pub struct Stream {
    order: Vec<u32>,
    next_read: usize,
    learns: usize,
    learn_cursor: Arc<AtomicUsize>,
    learn_every: Option<usize>,
    issued: usize,
}

impl Stream {
    /// A stream over a seeded permutation of the reads.
    pub fn new(inputs: &Inputs, seed: u64, learn_cursor: Arc<AtomicUsize>) -> Stream {
        let mut order: Vec<u32> = (0..inputs.reads.len() as u32).collect();
        let mut rng = SplitMix64::new(derive_seed(seed, &[0x57EA]));
        for i in (1..order.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        Stream {
            order,
            next_read: 0,
            learns: inputs.learns.len(),
            learn_cursor,
            learn_every: inputs.workload.learn_every(),
            issued: 0,
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        self.issued += 1;
        if let Some(every) = self.learn_every {
            if self.issued.is_multiple_of(every) && self.learns > 0 {
                let i = self.learn_cursor.fetch_add(1, Ordering::Relaxed) % self.learns;
                return Req::Learn(i as u32);
            }
        }
        let i = self.order[self.next_read % self.order.len()];
        self.next_read += 1;
        Req::Read(i)
    }
}

/// The workload descriptor: what the run served and sent.
pub fn descriptor(inputs: &Inputs, seed: u64, efdb_bytes: u64) -> String {
    let l2 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            s.strip_suffix('K')
                .and_then(|k| k.parse::<u64>().ok())
                .map(|k| k * 1024)
                .or_else(|| s.parse().ok())
        })
        .unwrap_or(0);
    let mut points: Vec<(usize, usize)> = Vec::new();
    for r in &inputs.reads {
        let n = r.text.split(' ').count() - 4;
        match points.iter_mut().find(|(p, _)| *p == n) {
            Some((_, c)) => *c += 1,
            None => points.push((n, 1)),
        }
    }
    points.sort_unstable();
    let mut mix = [0usize; 3];
    for &c in &inputs.expected_class {
        mix[c as usize] += 1;
    }
    let n = inputs.reads.len().max(1) as f64;
    let pts: Vec<String> = points
        .iter()
        .map(|(p, c)| format!("\"{p}\": {c}"))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"keys\": {}, \"depth\": {}, \"efdb_bytes\": {efdb_bytes}, \
         \"l2_bytes\": {l2}, \"distinct_reads\": {}, \"query_points\": {{{}}}, \
         \"verdict_mix\": {{\"recognized\": {:.4}, \"ambiguous\": {:.4}, \"unknown\": {:.4}}}, \
         \"fill_learns\": {}, \"learns\": {}, \"open_rate_per_s\": {}}}",
        inputs.workload.name(),
        inputs.keys,
        inputs.depth,
        inputs.reads.len(),
        pts.join(", "),
        mix[0] as f64 / n,
        mix[1] as f64 / n,
        mix[2] as f64 / n,
        inputs.fill.len(),
        inputs.learns.len(),
        inputs.workload.open_rate(),
    )
}
