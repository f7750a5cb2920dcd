//! The traced run: the request stream the daemon saw, replayed in
//! process through the public function of each layer, with a span
//! recorded around every call (request id, layer, start, end, parent).
//! Spans stay in memory and are written out when the replay ends.
//!
//! The replay repeats the daemon's request path step by step: frame read,
//! UTF-8 check and parse, query build, the served store's own
//! `recognize_into`, verdict bookkeeping, render, and frame write. Its
//! replies must be byte-identical to the daemon's. A second pass splits
//! the snapshot's recognition into rounding, probe and vote, and finish,
//! and the split's answers must equal the oracle's.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use efd_core::engine::{Recognize, VoteScratch};
use efd_core::wal::{LearnRecord, SyncPolicy, WalDir, WalOptions, WalRecord};
use efd_core::{binfmt, Fingerprint, LabeledObservation, Query, Recognition, RoundingDepth};
use efd_serve::net::drift::{DriftConfig, DriftMonitor};
use efd_serve::net::metrics::DaemonMetrics;
use efd_serve::net::protocol::{render_answer, verdict_label, write_frame, FrameReader, Request};
use efd_serve::{EfdbSnapshot, KeyStore, ShardedDictionary, Snapshot};
use efd_telemetry::{AppLabel, Interval};

use crate::alloc;
use crate::inputs::{Inputs, Payload, Req, Workload};

/// Shards of every sharded structure (the daemon's default).
const SHARDS: usize = 8;
/// Appends per `fsync` (the daemon's default `batch` sync policy).
const SYNC_EVERY: u32 = 32;

/// Every traced layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Layer {
    Request,
    FrameRead,
    Parse,
    QueryBuild,
    Round,
    SnapshotProbeVote,
    EfdbProbeVote,
    SnapshotRecognize,
    Finish,
    NoteVerdict,
    Render,
    Write,
    DurableRecognize,
    DurableLearn,
    WalAppend,
    WalSync,
    ShardApply,
    WalFreeze,
}

const LAYERS: usize = Layer::WalFreeze as usize + 1;

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::FrameRead => "protocol.frame_read",
            Layer::Parse => "protocol.parse",
            Layer::QueryBuild => "observation.query_build",
            Layer::Round => "fingerprint.round",
            Layer::SnapshotProbeVote => "snapshot.probe_vote",
            Layer::EfdbProbeVote => "efdb.probe_vote",
            Layer::SnapshotRecognize => "snapshot.recognize",
            Layer::Finish => "engine.finish",
            Layer::NoteVerdict => "server.note_verdict",
            Layer::Render => "protocol.render",
            Layer::Write => "protocol.write",
            Layer::DurableRecognize => "durable.recognize",
            Layer::DurableLearn => "durable.learn",
            Layer::WalAppend => "wal.append",
            Layer::WalSync => "wal.sync",
            Layer::ShardApply => "shard.apply",
            Layer::WalFreeze => "wal.freeze",
        }
    }
}

#[derive(Clone, Copy)]
struct Span {
    req: u32,
    layer: Layer,
    start: Instant,
    end: Instant,
    parent: Option<Layer>,
}

/// In-memory span store with per-layer totals.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    total_ns: [f64; LAYERS],
    count: [u64; LAYERS],
    /// Spans recorded so far.
    recorded: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            total_ns: [0.0; LAYERS],
            count: [0; LAYERS],
            recorded: 0,
        }
    }

    #[inline]
    fn span(
        &mut self,
        req: u32,
        layer: Layer,
        parent: Option<Layer>,
        start: Instant,
        end: Instant,
    ) -> f64 {
        let ns = (end - start).as_nanos() as f64;
        self.total_ns[layer as usize] += ns;
        self.count[layer as usize] += 1;
        self.recorded += 1;
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                req,
                layer,
                start,
                end,
                parent,
            });
        }
        ns
    }

    /// Forget the totals of `layers` (their spans stay in the store).
    fn clear(&mut self, layers: &[Layer]) {
        for &l in layers {
            self.total_ns[l as usize] = 0.0;
            self.count[l as usize] = 0;
        }
    }

    /// Mean span duration of a layer, in ns (0 when it never ran).
    fn mean_ns(&self, l: Layer) -> f64 {
        let c = self.count[l as usize];
        if c == 0 {
            0.0
        } else {
            self.total_ns[l as usize] / c as f64
        }
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("request\tlayer\tstart_ns\tend_ns\tparent\n");
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.req,
                s.layer.name(),
                (s.start - self.t0).as_nanos(),
                (s.end - self.t0).as_nanos(),
                s.parent.map_or("-", Layer::name)
            )
            .expect("write to String");
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// One per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Daemon-side figures the replay reconciles against.
pub struct DaemonSide<'a> {
    /// Daemon CPU per answered request in the closed loop, µs.
    pub cpu_us_per_request: f64,
    /// The daemon's reply to each distinct read, where it saw one.
    pub replies: &'a [Option<Vec<u8>>],
}

/// Outcome of the traced replay.
pub struct Replay {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Self-test comparisons made.
    pub attempted: u64,
    /// Self-test comparisons that failed.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

/// Verdict bookkeeping exactly as the daemon does it per verdict.
struct Books {
    metrics: DaemonMetrics,
    drift: DriftMonitor,
}

impl Books {
    fn new() -> Books {
        let metrics = DaemonMetrics::new();
        let drift = DriftMonitor::new(DriftConfig::default());
        drift.rebaseline(None);
        metrics.observe_drift(&drift.snapshot());
        Books { metrics, drift }
    }

    #[inline]
    fn note(&self, rec: &Recognition) {
        let label = verdict_label(rec);
        self.metrics.count_verdict(label);
        if self.drift.record(label).is_some() {
            let _ = self.drift.snapshot();
        }
        self.metrics.observe_drift(&self.drift.snapshot());
    }
}

/// The served-path state of one replay.
struct Replayer<'a> {
    inputs: &'a Inputs,
    tracer: Tracer,
    reader: FrameReader,
    out: Vec<u8>,
    scratch: VoteScratch,
    books: Books,
    /// Per served request: sum of its top-level layer spans.
    layer_sum_ns: f64,
    served: u64,
    /// Spans recorded on the served path.
    served_spans: u64,
    allocs: u64,
    verdicts: [u64; 3],
    bytes_in: u64,
    bytes_out: u64,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

enum Parsed {
    Recognize(Query),
    Learn(LabeledObservation),
}

impl<'a> Replayer<'a> {
    fn new(inputs: &'a Inputs) -> Replayer<'a> {
        Replayer {
            inputs,
            tracer: Tracer::new(),
            reader: FrameReader::new(),
            out: Vec::with_capacity(4096),
            scratch: VoteScratch::default(),
            books: Books::new(),
            layer_sum_ns: 0.0,
            served: 0,
            served_spans: 0,
            allocs: 0,
            verdicts: [0; 3],
            bytes_in: 0,
            bytes_out: 0,
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    /// Frame read, then UTF-8 check, parse and query build. Returns the
    /// parsed request and the sum of the three spans.
    fn decode(&mut self, id: u32, p: &Payload) -> Result<(Parsed, f64), String> {
        let t0 = Instant::now();
        let mut src: &[u8] = &p.framed;
        let payload = match self.reader.read_frame(&mut src) {
            Ok(Some(b)) => b,
            other => {
                return Err(format!(
                    "frame read of {:?}: {:?}",
                    p.text,
                    other.map(|o| o.map(<[u8]>::len))
                ))
            }
        };
        let t1 = Instant::now();
        let line = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
        let req = Request::parse(line)?;
        self.books.metrics.count_request(req.command());
        let t2 = Instant::now();
        let catalog = &self.inputs.catalog;
        let parsed = match req {
            Request::Recognize {
                metric,
                start,
                end,
                means,
            } => {
                let m = catalog.id(&metric).ok_or("unknown metric")?;
                Parsed::Recognize(Query::from_node_means(m, Interval::new(start, end), &means))
            }
            Request::Learn {
                app,
                input,
                metric,
                start,
                end,
                means,
            } => {
                let m = catalog.id(&metric).ok_or("unknown metric")?;
                Parsed::Learn(LabeledObservation {
                    label: AppLabel::new(&app, &input),
                    query: Query::from_node_means(m, Interval::new(start, end), &means),
                })
            }
            other => return Err(format!("unexpected request {other:?}")),
        };
        let t3 = Instant::now();
        self.bytes_in += p.framed.len() as u64;
        let mut sum = self
            .tracer
            .span(id, Layer::FrameRead, Some(Layer::Request), t0, t1);
        sum += self
            .tracer
            .span(id, Layer::Parse, Some(Layer::Request), t1, t2);
        sum += self
            .tracer
            .span(id, Layer::QueryBuild, Some(Layer::Request), t2, t3);
        Ok((parsed, sum))
    }

    /// Write the reply frame into memory, where the daemon writes it to
    /// its socket's buffer.
    fn write(&mut self, id: u32, text: &str) -> f64 {
        let t0 = Instant::now();
        self.out.clear();
        write_frame(&mut self.out, text.as_bytes()).expect("write to Vec");
        self.out.flush().expect("flush Vec");
        let t1 = Instant::now();
        self.bytes_out += self.out.len() as u64;
        self.tracer
            .span(id, Layer::Write, Some(Layer::Request), t0, t1)
    }

    /// Verdict bookkeeping then render; returns the reply and span sum.
    fn answer(&mut self, id: u32, rec: &Recognition) -> (String, f64) {
        let t0 = Instant::now();
        self.books.note(rec);
        let t1 = Instant::now();
        let text = render_answer("OK", 1, rec);
        let t2 = Instant::now();
        self.verdicts[match verdict_label(rec) {
            "recognized" => 0,
            "ambiguous" => 1,
            _ => 2,
        }] += 1;
        let sum = self
            .tracer
            .span(id, Layer::NoteVerdict, Some(Layer::Request), t0, t1)
            + self
                .tracer
                .span(id, Layer::Render, Some(Layer::Request), t1, t2);
        (text, sum)
    }

    /// Check a replayed read reply against the oracle and the daemon.
    fn check_read(&mut self, i: usize, text: &str, daemon: &DaemonSide<'_>) {
        self.attempted += 1;
        let tail = text.strip_prefix("OK 1 ").unwrap_or("");
        if tail != self.inputs.expected[i] {
            let want = self.inputs.expected[i].clone();
            self.fail(format!(
                "replay of {:?} gave {text:?}, oracle {want:?}",
                self.inputs.reads[i].text
            ));
        }
        if let Some(Some(d)) = daemon.replies.get(i) {
            self.attempted += 1;
            if d.as_slice() != text.as_bytes() {
                let d = String::from_utf8_lossy(d).to_string();
                self.fail(format!(
                    "replay of {:?} gave {text:?}, daemon {d:?}",
                    self.inputs.reads[i].text
                ));
            }
        }
    }

    /// Close a served request: its allocation count, its own span, and
    /// its layer sum. `s0` is the span count when it started.
    fn served(&mut self, id: u32, t0: Instant, a0: u64, s0: u64, sum: f64) {
        let t1 = Instant::now();
        self.allocs += alloc::calls() - a0;
        let whole = self.tracer.span(id, Layer::Request, None, t0, t1);
        self.served_spans += self.tracer.recorded - s0;
        self.layer_sum_ns += sum;
        self.served += 1;
        // Self-test: the summed layers are disjoint steps inside the
        // request, so together they cannot outlast it.
        self.attempted += 1;
        if sum > whole {
            self.fail(format!(
                "request {id}: its layers sum to {sum} ns inside its {whole} ns"
            ));
        }
    }

    /// One read through `engine`'s own `recognize_into`, called through
    /// `dyn Recognize` as the daemon's workers call it; `layer` names its
    /// span.
    fn read(
        &mut self,
        id: u32,
        i: usize,
        engine: &dyn Recognize,
        layer: Layer,
        daemon: &DaemonSide<'_>,
    ) -> Result<(), String> {
        let inputs = self.inputs;
        let s0 = self.tracer.recorded;
        let a0 = alloc::calls();
        let t0 = Instant::now();
        let (parsed, mut sum) = self.decode(id, &inputs.reads[i])?;
        let Parsed::Recognize(q) = parsed else {
            return Err("read payload is not RECOGNIZE".into());
        };
        let t1 = Instant::now();
        let rec = engine.recognize_into(&q, &mut self.scratch).normalized();
        let t2 = Instant::now();
        sum += self.tracer.span(id, layer, Some(Layer::Request), t1, t2);
        let (text, s) = self.answer(id, &rec);
        sum += s + self.write(id, &text);
        self.served(id, t0, a0, s0, sum);
        self.check_read(i, &text, daemon);
        Ok(())
    }
}

/// The learn path of a durable daemon, split at its layer boundaries:
/// the same steps, in the same order, as `DurableDictionary::learn` under
/// the daemon's default `batch` sync policy.
struct Learner {
    wal: WalDir,
    dict: ShardedDictionary,
    unsynced: u32,
    learns: u64,
    bytes: u64,
    freezes: u64,
    learn_us: Vec<f64>,
}

impl Learner {
    fn open(dir: &Path, depth: u8, inputs: &Inputs) -> Result<Learner, String> {
        let _ = std::fs::remove_dir_all(dir);
        let options = WalOptions {
            sync: SyncPolicy::Never,
            ..WalOptions::default()
        };
        let (wal, recovery) =
            WalDir::open(dir, RoundingDepth::new(depth), &inputs.catalog, options)
                .map_err(|e| format!("{}: {e}", dir.display()))?;
        let dict = ShardedDictionary::from_parts(recovery.dictionary.to_parts(), SHARDS);
        Ok(Learner {
            wal,
            dict,
            unsynced: 0,
            learns: 0,
            bytes: 0,
            freezes: 0,
            learn_us: Vec::new(),
        })
    }

    /// Forget the learn statistics gathered so far (the fill is set-up,
    /// not served traffic).
    fn clear_stats(&mut self, tracer: &mut Tracer) {
        self.learns = 0;
        self.bytes = 0;
        self.freezes = 0;
        self.learn_us.clear();
        tracer.clear(&[
            Layer::DurableLearn,
            Layer::WalAppend,
            Layer::WalSync,
            Layer::ShardApply,
            Layer::WalFreeze,
        ]);
    }

    fn learn(
        &mut self,
        path: &mut Replayer<'_>,
        id: u32,
        p: &Payload,
        served: bool,
    ) -> Result<(), String> {
        let s0 = path.tracer.recorded;
        let a0 = alloc::calls();
        let t0 = Instant::now();
        let (parsed, mut sum) = path.decode(id, p)?;
        let Parsed::Learn(obs) = parsed else {
            return Err("learn payload is not LEARN".into());
        };
        let catalog = &path.inputs.catalog;
        let parent = Some(Layer::DurableLearn);
        let l0 = Instant::now();
        let rec = WalRecord::Learn(LearnRecord::from_observation(&obs, catalog));
        let len0 = self.wal.log_len();
        self.wal.append(&rec).map_err(|e| e.to_string())?;
        self.bytes += self.wal.log_len() - len0;
        let l1 = Instant::now();
        self.unsynced += 1;
        let synced = self.unsynced >= SYNC_EVERY;
        if synced {
            self.wal.sync().map_err(|e| e.to_string())?;
            self.unsynced = 0;
        }
        let l2 = Instant::now();
        self.dict.learn(&obs);
        let l3 = Instant::now();
        let froze = self.wal.should_freeze();
        if froze {
            self.wal
                .freeze(&self.dict.to_parts(), catalog)
                .map_err(|e| e.to_string())?;
            self.freezes += 1;
            self.unsynced = 0;
        }
        let l4 = Instant::now();
        let tr = &mut path.tracer;
        tr.span(id, Layer::WalAppend, parent, l0, l1);
        if synced {
            tr.span(id, Layer::WalSync, parent, l1, l2);
        }
        tr.span(id, Layer::ShardApply, parent, l2, l3);
        if froze {
            tr.span(id, Layer::WalFreeze, parent, l3, l4);
        }
        sum += tr.span(id, Layer::DurableLearn, Some(Layer::Request), l0, l4);
        self.learns += 1;
        self.learn_us.push((l4 - l0).as_secs_f64() * 1e6);
        let r0 = Instant::now();
        let text = format!("LEARNED {}", self.dict.len());
        let r1 = Instant::now();
        sum += path
            .tracer
            .span(id, Layer::Render, Some(Layer::Request), r0, r1);
        sum += path.write(id, &text);
        if served {
            path.served(id, t0, a0, s0, sum);
        }
        Ok(())
    }
}

/// Probe and vote every fingerprint of a query of `points` points, as
/// the shared vote kernel (`keystore::recognize_with`) does; returns the
/// number of points that matched a key.
fn vote_all<S: KeyStore>(
    store: &S,
    fps: &[Fingerprint],
    scratch: &mut VoteScratch,
    points: usize,
) -> usize {
    scratch.ensure(store.labels().len(), store.apps().len());
    let wide = points <= VoteScratch::WIDE_VOTE_LIMIT;
    fps.iter()
        .filter(|fp| store.vote(fp, scratch, wide))
        .count()
}

/// Cost of recording one span, in ns (two clock reads plus the push).
fn span_cost_ns() -> f64 {
    let mut t = Tracer::new();
    let n = 200_000u32;
    let start = Instant::now();
    for i in 0..n {
        let a = Instant::now();
        let b = Instant::now();
        t.span(i, Layer::Request, None, a, b);
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

/// The query a read payload carries.
fn read_query(inputs: &Inputs, i: usize) -> Result<Query, String> {
    match Request::parse(&inputs.reads[i].text)? {
        Request::Recognize {
            metric,
            start,
            end,
            means,
        } => Ok(Query::from_node_means(
            inputs.catalog.id(&metric).ok_or("unknown metric")?,
            Interval::new(start, end),
            &means,
        )),
        _ => Err("read payload is not RECOGNIZE".into()),
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn mib(bytes: i64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn p99(v: &mut [f64]) -> f64 {
    crate::percentile(v, 0.99)
}

/// Replay `stream` (the daemon's closed-loop request stream) through every
/// layer and reconcile the layer sum with the daemon's CPU per request.
pub fn replay(
    inputs: &Inputs,
    stream: &[Req],
    work: &Path,
    daemon: &DaemonSide<'_>,
) -> Result<Replay, String> {
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    let catalog = &inputs.catalog;
    let span_ns = span_cost_ns();

    // Load layers: read, check, decode, thaw; and the zero-copy load.
    let live0 = alloc::live_bytes();
    let t = Instant::now();
    let bytes = std::fs::read(&inputs.dict_path)
        .map_err(|e| format!("{}: {e}", inputs.dict_path.display()))?;
    put("load.read_ms", ms(t), "ms");
    let t = Instant::now();
    let keys = binfmt::check(&bytes).map_err(|e| e.to_string())?.len();
    let check_ms = ms(t);
    let t = Instant::now();
    let efdb = binfmt::read(&bytes).map_err(|e| e.to_string())?;
    let read_ms = ms(t);
    let t = Instant::now();
    let snapshot = Snapshot::from_efdb(&efdb, catalog, SHARDS).map_err(|e| e.to_string())?;
    put("snapshot.thaw_ms", ms(t), "ms");
    put("binfmt.check_ms", check_ms, "ms");
    put("binfmt.decode_ms", (read_ms - check_ms).max(0.0), "ms");
    drop(efdb);
    drop(bytes);
    put("snapshot.heap_mib", mib(alloc::live_bytes() - live0), "MiB");
    let live1 = alloc::live_bytes();
    let bytes = std::fs::read(&inputs.dict_path)
        .map_err(|e| format!("{}: {e}", inputs.dict_path.display()))?;
    let t = Instant::now();
    let zero_copy = EfdbSnapshot::load(bytes, catalog).map_err(|e| e.to_string())?;
    put("efdb.load_ms", ms(t), "ms");
    put("efdb.heap_mib", mib(alloc::live_bytes() - live1), "MiB");
    if snapshot.len() != keys || zero_copy.len() != keys {
        return Err(format!(
            "stores disagree on key count: {} / {} / {keys}",
            snapshot.len(),
            zero_copy.len()
        ));
    }

    let reads: Vec<usize> = stream
        .iter()
        .filter_map(|r| match r {
            Req::Read(i) => Some(*i as usize),
            Req::Learn(_) => None,
        })
        .collect();

    // The served path. Read workloads: the owned snapshot (the daemon's
    // default backend). learn-mix: the durable daemon's sharded store,
    // filled first, with learns interleaved.
    let mut path = Replayer::new(inputs);
    let wal_dir = work.join("wal-trace");
    let mut learner = Learner::open(&wal_dir, inputs.depth, inputs)?;
    for (k, p) in inputs.fill.iter().enumerate() {
        learner.learn(&mut path, u32::MAX - k as u32, p, false)?;
    }
    // Only the served stream counts: protocol layers per served request
    // (not the fill, not the learns replayed on read-only workloads), and
    // on learn-mix the learn layers per served learn (not the fill).
    learner.clear_stats(&mut path.tracer);
    let before = (path.tracer.total_ns, path.bytes_in, path.bytes_out);
    if inputs.workload == Workload::LearnMix {
        for (id, r) in stream.iter().enumerate() {
            match *r {
                Req::Read(i) => path.read(
                    id as u32,
                    i as usize,
                    &learner.dict,
                    Layer::DurableRecognize,
                    daemon,
                )?,
                Req::Learn(i) => {
                    learner.learn(&mut path, id as u32, &inputs.learns[i as usize], true)?
                }
            }
        }
    } else {
        for (id, &i) in reads.iter().enumerate() {
            path.read(id as u32, i, &snapshot, Layer::SnapshotRecognize, daemon)?;
        }
    }
    let served_ns: Vec<f64> = path
        .tracer
        .total_ns
        .iter()
        .zip(before.0)
        .map(|(a, b)| a - b)
        .collect();
    let bytes_in = path.bytes_in - before.1;
    let bytes_out = path.bytes_out - before.2;

    // A second pass over the same reads. The snapshot's recognition is
    // split into the steps `keystore::recognize_with` takes (rounding,
    // probe and vote, finish), and the split must answer as the oracle
    // does; every query is also probed and voted on the zero-copy store,
    // whose answers must match the owned snapshot's. learn-mix, whose
    // daemon serves the sharded store, times the snapshot's whole
    // `recognize_into` here too.
    let learn_mix = inputs.workload == Workload::LearnMix;
    let mut scratch = VoteScratch::default();
    let mut fps = Vec::with_capacity(64);
    let (mut probes, mut hits) = (0u64, 0u64);
    for (id, &i) in reads.iter().enumerate() {
        let id = id as u32;
        let q = read_query(inputs, i)?;
        let r0 = Instant::now();
        fps.clear();
        fps.extend(q.points.iter().filter_map(|p| {
            Fingerprint::from_raw(p.metric, p.node, p.interval, p.mean, snapshot.depth())
        }));
        let r1 = Instant::now();
        let t0 = Instant::now();
        let matched = vote_all(&zero_copy, &fps, &mut scratch, q.points.len());
        let t1 = Instant::now();
        let tr = &mut path.tracer;
        tr.span(id, Layer::EfdbProbeVote, None, t0, t1);
        let got = scratch
            .finish(
                zero_copy.labels(),
                zero_copy.apps(),
                matched,
                q.points.len(),
            )
            .normalized();
        let t0 = Instant::now();
        let matched = vote_all(&snapshot, &fps, &mut scratch, q.points.len());
        let t1 = Instant::now();
        let want = scratch
            .finish(snapshot.labels(), snapshot.apps(), matched, q.points.len())
            .normalized();
        let t2 = Instant::now();
        tr.span(id, Layer::Round, None, r0, r1);
        tr.span(id, Layer::SnapshotProbeVote, None, t0, t1);
        tr.span(id, Layer::Finish, None, t1, t2);
        if learn_mix {
            let k0 = Instant::now();
            let whole = snapshot.recognize_into(&q, &mut scratch).normalized();
            let k1 = Instant::now();
            tr.span(id, Layer::SnapshotRecognize, None, k0, k1);
            path.attempted += 1;
            if whole != want {
                path.fail(format!(
                    "split and whole recognition disagree on {:?}",
                    inputs.reads[i].text
                ));
            }
        }
        probes += q.points.len() as u64;
        hits += matched as u64;
        path.attempted += 2;
        if got != want {
            path.fail(format!(
                "zero-copy and owned stores disagree on {:?}",
                inputs.reads[i].text
            ));
        }
        let text = render_answer("OK", 1, &want);
        if text.strip_prefix("OK 1 ") != Some(inputs.expected[i].as_str()) {
            path.fail(format!(
                "split recognition answered {text:?} to {:?}",
                inputs.reads[i].text
            ));
        }
    }
    drop(zero_copy);
    let nreads = reads.len().max(1) as f64;

    // Read workloads: the durable daemon's sharded read path over the
    // served dictionary; learn-mix measured it on the served path.
    if inputs.workload != Workload::LearnMix {
        let bytes = std::fs::read(&inputs.dict_path).map_err(|e| e.to_string())?;
        let parts = binfmt::check(&bytes)
            .and_then(|v| v.to_parts(catalog))
            .map_err(|e| e.to_string())?;
        drop(bytes);
        drop(snapshot);
        let sharded = ShardedDictionary::from_parts(parts, SHARDS);
        for (id, &i) in reads.iter().enumerate() {
            let q = read_query(inputs, i)?;
            let t0 = Instant::now();
            let rec = sharded.recognize_into(&q, &mut scratch).normalized();
            let t1 = Instant::now();
            path.tracer
                .span(id as u32, Layer::DurableRecognize, None, t0, t1);
            path.attempted += 1;
            let text = render_answer("OK", 1, &rec);
            if text.strip_prefix("OK 1 ") != Some(inputs.expected[i].as_str()) {
                path.fail(format!(
                    "sharded store answered {text:?} to {:?}",
                    inputs.reads[i].text
                ));
            }
        }
        // The learn layer on this workload's learn stream (the daemon
        // under test never learns).
        for (k, p) in inputs.learns.iter().enumerate() {
            learner.learn(&mut path, u32::MAX - k as u32, p, false)?;
        }
    } else {
        drop(snapshot);
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    let tr = &path.tracer;
    let served = path.served.max(1) as f64;
    let per = |l: Layer| served_ns[l as usize] / served;
    put("protocol.frame_read_ns", per(Layer::FrameRead), "ns");
    put("protocol.parse_ns", per(Layer::Parse), "ns");
    put("protocol.render_ns", per(Layer::Render), "ns");
    put("protocol.write_ns", per(Layer::Write), "ns");
    put(
        "protocol.bytes_in_per_request",
        bytes_in as f64 / served,
        "bytes",
    );
    put(
        "protocol.bytes_out_per_request",
        bytes_out as f64 / served,
        "bytes",
    );
    put("observation.query_build_ns", per(Layer::QueryBuild), "ns");
    put("fingerprint.round_ns", tr.mean_ns(Layer::Round), "ns");
    put(
        "snapshot.probe_vote_ns",
        tr.mean_ns(Layer::SnapshotProbeVote),
        "ns",
    );
    put("efdb.probe_vote_ns", tr.mean_ns(Layer::EfdbProbeVote), "ns");
    put(
        "snapshot.recognize_ns",
        tr.mean_ns(Layer::SnapshotRecognize),
        "ns",
    );
    put("store.probes_per_request", probes as f64 / nreads, "count");
    put(
        "store.hit_ratio",
        hits as f64 / probes.max(1) as f64,
        "ratio",
    );
    put("engine.finish_ns", tr.mean_ns(Layer::Finish), "ns");
    let nverd = path.verdicts.iter().sum::<u64>().max(1) as f64;
    put(
        "verdict.recognized_frac",
        path.verdicts[0] as f64 / nverd,
        "ratio",
    );
    put(
        "verdict.ambiguous_frac",
        path.verdicts[1] as f64 / nverd,
        "ratio",
    );
    put(
        "verdict.unknown_frac",
        path.verdicts[2] as f64 / nverd,
        "ratio",
    );
    put(
        "server.note_verdict_ns",
        tr.mean_ns(Layer::NoteVerdict),
        "ns",
    );
    put(
        "request.allocs_per_request",
        path.allocs as f64 / served,
        "count",
    );
    let layers_sum = path.layer_sum_ns / served;
    let residual = daemon.cpu_us_per_request * 1e3 - layers_sum;
    put("request.layers_sum_ns", layers_sum, "ns");
    put("request.residual_ns", residual, "ns");
    put(
        "request.tracing_overhead_ns",
        span_ns * path.served_spans as f64 / served,
        "ns",
    );
    put(
        "durable.recognize_ns",
        tr.mean_ns(Layer::DurableRecognize),
        "ns",
    );
    let learns = learner.learns.max(1) as f64;
    put(
        "durable.learn_us",
        tr.total_ns[Layer::DurableLearn as usize] / learns / 1e3,
        "us",
    );
    put("durable.learn_p99_us", p99(&mut learner.learn_us), "us");
    put(
        "wal.append_us",
        tr.total_ns[Layer::WalAppend as usize] / learns / 1e3,
        "us",
    );
    put(
        "wal.sync_us",
        tr.total_ns[Layer::WalSync as usize] / learns / 1e3,
        "us",
    );
    put(
        "shard.apply_us",
        tr.total_ns[Layer::ShardApply as usize] / learns / 1e3,
        "us",
    );
    put("wal.freeze_ms", tr.mean_ns(Layer::WalFreeze) / 1e6, "ms");
    put(
        "wal.bytes_per_learn",
        learner.bytes as f64 / learns,
        "bytes",
    );
    put(
        "wal.freezes_per_10k_learns",
        learner.freezes as f64 * 1e4 / learns,
        "count",
    );

    path.tracer
        .write(&work.join(format!("spans-{}.tsv", inputs.workload.name())))?;
    Ok(Replay {
        metrics: m,
        attempted: path.attempted,
        failed: path.failed,
        first_failure: path.first_failure,
    })
}
