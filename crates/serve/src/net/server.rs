//! The recognition daemon: `TcpListener` + one thread per connection
//! over the engine API.
//!
//! ## Thread model
//!
//! One acceptor thread waits in `poll(2)` for the nonblocking listener
//! to turn readable, for at most `ACCEPT_TICK` so that it also notices
//! a SIGHUP reload request and shutdown, and spawns a scoped thread per
//! accepted connection, which serves it to completion with its own
//! [`VoteScratch`]. (Off unix, and at the connection cap, it sleeps the
//! tick instead.) Connections are long-lived and carry many requests,
//! so per-connection (not per-request) threads keep the hot path free
//! of cross-thread handoff, and while fewer than [`MAX_CONNECTIONS`]
//! are open no client — idle, slow or busy — can hold up another: a
//! `/healthz` probe or `STATUS` gets a thread of its own. At the cap
//! the acceptor stops accepting and every further connection, control
//! requests included, waits in the kernel backlog until one closes.
//! The connection threads live in a `thread::scope` the acceptor runs
//! in, so joining the acceptor joins them all.
//!
//! ## Hot swap
//!
//! The engine lives behind `RwLock<Arc<Published>>`, where `Published`
//! pairs the engine with a monotonically increasing generation, and a
//! shared generation word mirrors that generation. Republication
//! ([`Server::publish`], the `SWAP` command, or SIGHUP via
//! [`Server::hup_flag`]) swaps the `Arc` and then stores the new
//! generation in the word (Release), both under the write lock.
//!
//! Each connection caches the `Arc<Published>` it last answered
//! against. A request does one Acquire load of the generation word and
//! takes the read lock to refresh its cache only when the word has
//! moved, so a warm request takes no lock and clones no `Arc`. The
//! whole answer is computed against the cached publication, so a swap
//! never tears an in-flight answer, and a connection never steps back
//! to an older generation. Every response carries the generation it was
//! computed against, which is what the hot-swap test asserts on. An
//! open stream re-points at the cached publication on its next `PUSH`
//! or `FINISH`. An idle connection drops its cached publication on the
//! first read tick after the word moves, so a quiet client cannot keep
//! a swapped-out store alive.
//!
//! ## Idle discipline
//!
//! A frame (or an HTTP request head) must complete within
//! [`ServerConfig::idle_timeout`] of the last completed frame, or of
//! the connect. A connection that misses that deadline — quiet, stalled
//! mid-frame, or dribbling a frame a byte at a time faster than the
//! 100 ms read timeout (slow loris) — is dropped and counted in
//! `efd_protocol_errors_total{kind="idle-timeout"}`. The deadline is
//! checked when a read times out or returns part of a frame
//! ([`FrameReader::read_frame_before`]), so a request that arrives
//! whole costs no extra clock read.
//!
//! ## One clock read per request
//!
//! A request's duration runs from its start to its reply being
//! buffered, and the clock is read once per request: when the reply is
//! buffered. A request read from the socket starts when its frame is
//! decoded (one more read, for the first request of a burst); a request
//! already buffered behind the previous one starts when that reply was
//! buffered. So the spans of a pipelined burst follow one another
//! without overlap, and each request is observed exactly once.
//!
//! ## Buffered frames, flush on drain
//!
//! Each connection reads through one buffered [`FrameReader`]: a single
//! `read` pulls in a whole pipelined burst and frames are cut out of
//! the buffer in place. Replies go into a `BufWriter`, which is flushed
//! only when no complete frame is left in the reader
//! ([`FrameReader::frame_ready`]). The invariant: a connection never
//! blocks in a socket read while replies are unflushed, so a burst of
//! N requests costs one `read` and one `write`, and a client that waits
//! for its replies always gets them.
//!
//! A burst's bookkeeping is batched the same way. The connection counts
//! its `RECOGNIZE` requests, verdicts and durations in a
//! [`RequestTally`] it owns, and merges it into the shared metrics and
//! the drift monitor in one go: just before the replies are flushed
//! (so every reply a client holds is already counted), before any
//! other command is dispatched (so `STATS`, `STATUS`, `SWAP` and
//! `SHUTDOWN` see the burst), before grown buffers are dropped, when
//! the cached generation moves, and whenever the connection ends.
//! Between merges a warm `RECOGNIZE` writes only to state its own
//! connection owns.
//!
//! ## Reused request buffers
//!
//! A connection owns the buffers its requests are answered in: the
//! parsed means, a [`Query`] refilled in place, a [`VoteScratch`], an
//! [`Answer`], and the reply bytes. A request is parsed in place
//! ([`RequestRef::parse`]), answered with [`Recognize::answer_into`],
//! and rendered straight into the reply buffer ([`write_answer`]), so
//! once a connection is warm a `RECOGNIZE` against the snapshot or efdb
//! backend allocates nothing. Buffers grown for a request longer than
//! one read chunk ([`READ_CHUNK`], ~2000 nodes) are dropped once it is
//! answered, so an idle connection keeps only what a chunk-sized
//! request needs.
//!
//! ## One port, two protocols
//!
//! The first frame prefix doubles as the protocol sniff: a valid prefix
//! is ≤ [`MAX_FRAME`], while `GET `/`HEAD` decode far above it, so
//! plain-HTTP scrapes of `/metrics` and `/healthz` share the
//! recognition port. When the first prefix is oversized and reads as
//! `GET `/`HEAD`, the bytes the reader already holds go to the HTTP
//! handler. A peer that closes after 1–3 bytes is a torn frame at once
//! instead of holding its thread to the idle timeout.

use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle, Scope};
use std::time::{Duration, Instant};

use efd_core::engine::{Answer, Recognize, VoteScratch};
use efd_core::online::OnlineRecognizer;
use efd_core::wal::WalError;
use efd_core::{LabeledObservation, Query, Recognition, VerdictKind};
use efd_telemetry::{AppLabel, Interval, MetricCatalog, MetricId, NodeId};

use super::drift::{DriftBaseline, DriftConfig, DriftMonitor, DriftSnapshot};
use super::metrics::{DaemonMetrics, RequestTally};
use super::protocol::{
    write_answer, write_frame, Command, FrameError, FrameReader, RequestRef, MAX_FRAME, READ_CHUNK,
};
use crate::manifest::DEFAULT_MIN_CONFIDENCE;
use crate::{Backend, DictSource, DurableDictionary};

/// Connection read-timeout tick: how often a quiet connection checks
/// its idle deadline and the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(100);
/// Longest the acceptor waits for a connection before it checks the
/// reload and shutdown flags again.
const ACCEPT_TICK: Duration = Duration::from_millis(2);
/// Cap on open connections, each served by its own thread. Between
/// requests a connection holds about 30–35 KiB resident, also when it
/// is stalled partway into a frame: the read buffer holds only the bytes
/// that arrived, and buffers grown for a request longer than one read
/// chunk are dropped once it is answered. At the cap the acceptor stops
/// accepting; further connections wait in the kernel backlog.
pub const MAX_CONNECTIONS: usize = 1024;
/// Cap on `STREAM` node counts — bounds per-session memory.
const MAX_STREAM_NODES: u16 = 4096;
/// Cap on a buffered HTTP request head.
const MAX_HTTP_HEAD: usize = 8 * 1024;

/// A publishable engine: the recognizer every request answers through,
/// plus the optional durable learner (`--wal` mode) that accepts
/// `LEARN` requests.
#[derive(Clone)]
pub struct Engine {
    /// The recognition backend behind the engine API.
    pub recognizer: Arc<dyn Recognize + Send + Sync>,
    /// Present only in durable (`--wal`) mode; `LEARN` writes ahead
    /// through it, and reads see learns immediately (the recognizer
    /// *is* the durable dictionary's sharded live form).
    pub learner: Option<Arc<DurableDictionary>>,
    /// Key count at publication time (live key count in durable mode
    /// comes from [`Engine::keys_now`]).
    pub keys: usize,
    /// Short backend kind name for `STATS` (`snapshot`, `efdb`, ...).
    pub kind: &'static str,
    /// Served catalog artifact version (`hpc-apps@v3`) or manifest
    /// identity; `None` for plain file-backed engines.
    pub version: Option<String>,
    /// Abstention baseline recorded when the served version was
    /// published; drives the drift monitor. `None` = never alarm.
    pub baseline: Option<DriftBaseline>,
}

impl Engine {
    /// An immutable (file-backed) engine.
    pub fn fixed(
        recognizer: Arc<dyn Recognize + Send + Sync>,
        keys: usize,
        kind: &'static str,
    ) -> Self {
        Engine {
            recognizer,
            learner: None,
            keys,
            kind,
            version: None,
            baseline: None,
        }
    }

    /// Version for status lines: the catalog ref, or `-` outside the
    /// catalog.
    pub fn version_label(&self) -> &str {
        self.version.as_deref().unwrap_or("-")
    }

    /// A durable engine: serves and learns through one
    /// [`DurableDictionary`].
    pub fn durable(d: Arc<DurableDictionary>) -> Self {
        let keys = d.dictionary().len();
        Engine {
            recognizer: d.clone(),
            learner: Some(d),
            keys,
            kind: "durable",
            version: None,
            baseline: None,
        }
    }

    /// Serve a loaded dictionary operand as `backend`, tagged with its
    /// catalog version and drift baseline. The source's bytes move into
    /// [`Backend::load`] uncopied; an ml backend abstains below
    /// [`DEFAULT_MIN_CONFIDENCE`], as a one-stage manifest's does.
    pub fn load(
        src: DictSource,
        backend: Backend,
        catalog: &MetricCatalog,
    ) -> Result<Engine, String> {
        let (recognizer, keys) =
            backend.load(src.bytes, catalog, &src.shown, DEFAULT_MIN_CONFIDENCE)?;
        Ok(Engine {
            version: src.version,
            baseline: src.baseline,
            ..Engine::fixed(recognizer, keys, backend.name())
        })
    }

    /// Current key count: live in durable mode, frozen otherwise.
    pub fn keys_now(&self) -> usize {
        match &self.learner {
            Some(d) => d.dictionary().len(),
            None => self.keys,
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("kind", &self.kind)
            .field("keys", &self.keys)
            .field("durable", &self.learner.is_some())
            .field("version", &self.version)
            .field("baseline", &self.baseline)
            .finish()
    }
}

/// How `SWAP path` and SIGHUP build the next engine from a path — a
/// dictionary file, a catalog reference, or a `recognizer.v1` manifest,
/// depending on what the daemon serves — resolving metric names through
/// the daemon's catalog. The start-up engine is normally built by the
/// same loader, so a republished engine is built exactly like the
/// original.
pub type EngineLoader = Arc<dyn Fn(&Path, &MetricCatalog) -> Result<Engine, String> + Send + Sync>;

/// Daemon configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Drop a connection after this much continuous quiet.
    pub idle_timeout: Duration,
    /// Metric-name resolution for requests.
    pub catalog: MetricCatalog,
    /// Path reloaded by SIGHUP and a bare `SWAP` (normally the daemon's
    /// `--load` or `--manifest` argument).
    pub reload_path: Option<PathBuf>,
    /// Drift-monitor tuning (window, warm-up floor, alarm margin).
    pub drift: DriftConfig,
    /// Builds the engine for `SWAP path` and SIGHUP reloads.
    pub loader: EngineLoader,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("idle_timeout", &self.idle_timeout)
            .field("reload_path", &self.reload_path)
            .field("drift", &self.drift)
            .finish_non_exhaustive()
    }
}

impl ServerConfig {
    /// Defaults: 30 s idle timeout, no reload path, default drift
    /// tuning, and a loader that serves a dictionary file as a
    /// [`Backend::Snapshot`].
    pub fn new(catalog: MetricCatalog) -> Self {
        ServerConfig {
            idle_timeout: Duration::from_secs(30),
            catalog,
            reload_path: None,
            drift: DriftConfig::default(),
            loader: Arc::new(|path, catalog| {
                let src = DictSource::open(&path.to_string_lossy(), None)?;
                Engine::load(src, Backend::Snapshot, catalog)
            }),
        }
    }
}

/// One published engine generation.
struct Published {
    gen: u64,
    engine: Engine,
}

struct Shared {
    cfg: ServerConfig,
    published: RwLock<Arc<Published>>,
    /// The generation of `published`, stored (Release) under its write
    /// lock after each swap; connections poll it to keep their cached
    /// publication current.
    generation: AtomicU64,
    metrics: DaemonMetrics,
    drift: DriftMonitor,
    shutdown: AtomicBool,
    hup: Arc<AtomicBool>,
}

impl Shared {
    fn current(&self) -> Arc<Published> {
        self.published.read().expect("published lock").clone()
    }

    fn publish(&self, engine: Engine) -> u64 {
        let version = engine.version.clone();
        let baseline = engine.baseline;
        let mut w = self.published.write().expect("published lock");
        let gen = w.gen + 1;
        *w = Arc::new(Published { gen, engine });
        // The new version is judged only by traffic it answered itself:
        // rebaseline clears the window (and any standing alarm) and
        // stamps it with `gen` before any connection can answer against
        // `gen`, so verdicts the old version answered are dropped.
        self.drift.rebaseline_for(gen, baseline);
        self.generation.store(gen, Ordering::Release);
        drop(w);
        self.metrics.generation.set(gen as i64);
        self.metrics.swaps_total.inc();
        self.metrics.set_version(version);
        gen
    }

    /// The Prometheus exposition, with the drift gauges read from the
    /// monitor now (the hot path only records verdicts).
    fn render_metrics(&self) -> String {
        self.metrics.observe_drift(&self.drift.snapshot());
        self.metrics.render()
    }

    fn reload(&self) -> Result<u64, String> {
        let path = self
            .cfg
            .reload_path
            .as_ref()
            .ok_or("no reload path configured")?;
        if self.current().engine.learner.is_some() {
            return Err("durable mode learns in place; reload does not apply".into());
        }
        let engine = (self.cfg.loader)(path, &self.cfg.catalog)?;
        Ok(self.publish(engine))
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// Totals reported when the daemon exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered over the daemon's lifetime.
    pub requests: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
}

/// A running recognition daemon. Dropping the handle does **not** stop
/// the daemon — call [`Server::shutdown`] then [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port), publish
    /// the initial engine as generation 1, and start the acceptor
    /// thread.
    pub fn start(addr: &str, cfg: ServerConfig, engine: Engine) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| format!("{addr}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("{addr}: {e}"))?;
        let metrics = DaemonMetrics::new();
        metrics.generation.set(1);
        metrics.set_version(engine.version.clone());
        let drift = DriftMonitor::new(cfg.drift);
        drift.rebaseline_for(1, engine.baseline);
        let shared = Arc::new(Shared {
            cfg,
            published: RwLock::new(Arc::new(Published { gen: 1, engine })),
            generation: AtomicU64::new(1),
            metrics,
            drift,
            shutdown: AtomicBool::new(false),
            hup: Arc::new(AtomicBool::new(false)),
        });
        let s = Arc::clone(&shared);
        let acceptor = thread::Builder::new()
            .name("efd-accept".into())
            .spawn(move || thread::scope(|scope| accept_loop(&s, listener, scope)))
            .map_err(|e| format!("spawn acceptor: {e}"))?;
        Ok(Server {
            shared,
            addr: local,
            acceptor,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The flag a SIGHUP handler sets to request a reload; the acceptor
    /// polls and clears it.
    pub fn hup_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.hup)
    }

    /// The daemon's metric surface (tests read gauges directly; the
    /// drift gauges are refreshed only by a scrape or
    /// [`Server::metrics_text`]).
    pub fn metrics(&self) -> &DaemonMetrics {
        &self.shared.metrics
    }

    /// Render the Prometheus exposition (same text `/metrics` serves).
    pub fn metrics_text(&self) -> String {
        self.shared.render_metrics()
    }

    /// Current published engine generation.
    pub fn generation(&self) -> u64 {
        self.shared.current().gen
    }

    /// Current drift-monitor reading (tests assert on state edges).
    pub fn drift_snapshot(&self) -> DriftSnapshot {
        self.shared.drift.snapshot()
    }

    /// Atomically republish a new engine; returns its generation.
    pub fn publish(&self, engine: Engine) -> u64 {
        self.shared.publish(engine)
    }

    /// Reload the configured path (what SIGHUP does, synchronously).
    pub fn reload(&self) -> Result<u64, String> {
        self.shared.reload()
    }

    /// Signal shutdown: stop accepting, and have every connection
    /// flush its replies and close within one read tick. Idempotent.
    pub fn shutdown(&self) {
        self.shared.stop();
    }

    /// True until shutdown has been signalled.
    pub fn running(&self) -> bool {
        !self.shared.stopping()
    }

    /// Block until the acceptor and every connection thread have exited.
    pub fn join(self) -> ServeSummary {
        let _ = self.acceptor.join();
        ServeSummary {
            requests: self.shared.metrics.requests_total(),
            connections: self.shared.metrics.connections_total.get(),
        }
    }
}

fn accept_loop<'s>(shared: &'s Shared, listener: TcpListener, scope: &'s Scope<'s, '_>) {
    while !shared.stopping() {
        if shared.hup.swap(false, Ordering::SeqCst) {
            match shared.reload() {
                Ok(gen) => eprintln!("reloaded: generation {gen}"),
                Err(e) => eprintln!("warning: reload failed: {e}"),
            }
        }
        // Only this thread raises the gauge, so the cap cannot be
        // overshot; at the cap new peers wait in the kernel backlog.
        if shared.metrics.active_connections.get() >= MAX_CONNECTIONS as i64 {
            thread::sleep(ACCEPT_TICK);
            continue;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.metrics.connections_total.inc();
                shared.metrics.active_connections.add(1);
                let spawned =
                    thread::Builder::new()
                        .name("efd-conn".into())
                        .spawn_scoped(scope, move || {
                            let _ = handle_conn(shared, stream);
                            shared.metrics.active_connections.add(-1);
                        });
                if spawned.is_err() {
                    // Out of threads: the socket was dropped with the
                    // closure; back off and keep serving.
                    shared.metrics.active_connections.add(-1);
                    thread::sleep(ACCEPT_TICK);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                wait_for_peer(&listener, ACCEPT_TICK)
            }
            // Transient accept errors (EMFILE, aborted handshake):
            // back off and keep serving.
            Err(_) => thread::sleep(ACCEPT_TICK),
        }
    }
}

/// Wait until `listener` has a connection to accept, or `tick` passes.
/// A failed or interrupted wait just ends early; the caller loops.
#[cfg(unix)]
fn wait_for_peer(listener: &TcpListener, tick: Duration) {
    use std::os::raw::c_int;
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }
    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::os::raw::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = c_int::try_from(tick.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `fd` is one initialised pollfd that outlives the call, and
    // the listener keeps its descriptor open throughout.
    unsafe {
        poll(&mut fd, 1, timeout);
    }
}

#[cfg(not(unix))]
fn wait_for_peer(_listener: &TcpListener, tick: Duration) {
    thread::sleep(tick);
}

/// Per-connection streaming state: one open [`OnlineRecognizer`] over
/// the published engine plus the generation and wall-clock instant it
/// was opened against.
struct StreamState {
    sess: OnlineRecognizer<Arc<dyn Recognize + Send + Sync>>,
    metric: MetricId,
    gen: u64,
    opened: Instant,
}

/// What the connection does after a reply is written.
enum Action {
    Continue,
    ShutdownDaemon,
}

/// The state one connection reuses across its requests: the open
/// stream, if any, the publication it last answered against, the tally
/// of requests not yet merged into the shared metrics, and the buffers a
/// `RECOGNIZE` is answered in.
#[derive(Default)]
struct Conn {
    session: Option<StreamState>,
    published: Option<Arc<Published>>,
    /// Holds at most one burst: it is merged before the replies are
    /// flushed, and a burst is what one read chunk holds.
    tally: RequestTally,
    means: Vec<f64>,
    query: Query,
    scratch: VoteScratch,
    answer: Answer,
}

impl Conn {
    /// Merge the tally, then send the buffered replies: a client never
    /// holds a reply whose request is not counted yet.
    fn flush(&mut self, shared: &Shared, writer: &mut BufWriter<&TcpStream>) -> io::Result<()> {
        merge_tally(shared, &mut self.tally);
        writer.flush()
    }

    /// Drop the cached publication if it has been swapped out, so an
    /// idle connection does not keep the old engine alive.
    fn release_stale(&mut self, shared: &Shared) {
        let gen = shared.generation.load(Ordering::Acquire);
        if self.published.as_ref().is_some_and(|p| p.gen != gen) {
            self.published = None;
        }
    }
}

/// The current publication, from `cached` while the generation word
/// still names it; one Acquire load on that path. When the word has
/// moved, the tally (answered against the old publication) is merged
/// first and the cache is refreshed under the read lock.
fn current<'c>(
    shared: &Shared,
    cached: &'c mut Option<Arc<Published>>,
    tally: &mut RequestTally,
) -> &'c Published {
    let gen = shared.generation.load(Ordering::Acquire);
    if cached.as_ref().is_none_or(|p| p.gen != gen) {
        merge_tally(shared, tally);
        *cached = Some(shared.current());
    }
    cached.as_deref().expect("cached above")
}

/// Serve one connection to completion, as frames or as one HTTP request.
/// Whichever way it ends, what it answered is merged into the metrics.
fn handle_conn(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    let mut conn = Conn::default();
    let served = serve_conn(shared, &stream, &mut conn);
    merge_tally(shared, &mut conn.tally);
    served
}

fn serve_conn(shared: &Shared, stream: &TcpStream, conn: &mut Conn) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TICK))?;
    let mut reader = FrameReader::new();
    let mut writer = BufWriter::new(stream);
    let mut reply = Vec::new();
    // The next frame must complete by this instant (none if the idle
    // timeout is too long to represent).
    let mut deadline = Instant::now().checked_add(shared.cfg.idle_timeout);
    // Until the first frame decodes, its prefix is also the HTTP sniff.
    let mut sniffing = true;
    // When a reply is buffered with the next frame already in the
    // reader, that instant is the next request's start.
    let mut chained: Option<Instant> = None;
    loop {
        if shared.stopping() {
            return conn.flush(shared, &mut writer);
        }
        let started;
        let large;
        reply.clear();
        let action = match reader.read_frame_before(&mut &*stream, deadline) {
            Ok(None) => return Ok(()), // clean close at a frame boundary
            Ok(Some(payload)) => {
                sniffing = false;
                started = chained.take().unwrap_or_else(Instant::now);
                deadline = started.checked_add(shared.cfg.idle_timeout);
                large = payload.len() > READ_CHUNK;
                dispatch(shared, payload, conn, &mut reply)
            }
            Err(FrameError::Timeout) => {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    shared.metrics.count_error("idle-timeout");
                    return Ok(());
                }
                conn.release_stale(shared);
                continue;
            }
            Err(FrameError::Torn) => {
                shared.metrics.count_error("torn");
                return Ok(());
            }
            Err(FrameError::Oversized(n)) => {
                if sniffing && matches!(reader.buffered().get(..4), Some(b"GET " | b"HEAD")) {
                    return handle_http(shared, stream, reader.buffered(), deadline);
                }
                shared.metrics.count_error("oversized");
                // Best-effort structured refusal; the peer may already
                // be gone, and we drop the connection either way (the
                // stream position is unrecoverable).
                let msg = format!("ERR oversized frame length {n} exceeds {MAX_FRAME} bytes");
                let _ = write_frame(&mut writer, msg.as_bytes())
                    .and_then(|_| conn.flush(shared, &mut writer));
                return Ok(());
            }
            Err(FrameError::Empty) => {
                shared.metrics.count_error("empty");
                let _ = write_frame(&mut writer, b"ERR empty zero-length frame")
                    .and_then(|_| conn.flush(shared, &mut writer));
                return Ok(());
            }
            Err(FrameError::Io(_)) => return Ok(()), // reset/broken pipe: clean drop
        };
        if reply.len() > MAX_FRAME as usize {
            // Only an error echoing a request token gets here: escaping
            // can make it longer than the largest frame it came in. A new
            // buffer also drops the oversized one.
            reply = b"ERR malformed request token too long to echo".to_vec();
        }
        write_frame(&mut writer, &reply)?;
        let buffered = Instant::now();
        conn.tally
            .observe_duration(buffered.duration_since(started));
        if large {
            // Buffers grown for a request longer than one read chunk are
            // dropped once it is answered (an open stream and the cached
            // publication are kept, the tally merged first): an idle
            // connection keeps only what a chunk-sized request needs.
            merge_tally(shared, &mut conn.tally);
            *conn = Conn {
                session: conn.session.take(),
                published: conn.published.take(),
                ..Conn::default()
            };
            reply = Vec::new();
        }
        // Flush on drain: a buffered request is answered first, and the
        // next socket read only ever happens with every reply sent.
        if reader.frame_ready() {
            chained = Some(buffered);
        } else {
            conn.flush(shared, &mut writer)?;
        }
        match action {
            Action::Continue => {}
            Action::ShutdownDaemon => {
                conn.flush(shared, &mut writer)?;
                shared.stop();
                return Ok(());
            }
        }
    }
}

/// Answer one request, writing the reply line into `out` (empty on
/// entry). Infallible by construction: every failure mode is a
/// structured `ERR <kind> <message>` reply. Writes into a `Vec` cannot
/// fail, so their `io::Result`s are dropped.
fn dispatch(shared: &Shared, payload: &[u8], conn: &mut Conn, out: &mut Vec<u8>) -> Action {
    let Ok(line) = std::str::from_utf8(payload) else {
        shared.metrics.count_error("malformed");
        out.extend_from_slice(b"ERR malformed payload is not UTF-8");
        return Action::Continue;
    };
    let req = match RequestRef::parse(line, &mut conn.means) {
        Ok(r) => r,
        Err(why) => {
            shared.metrics.count_error("malformed");
            let _ = write!(out, "ERR malformed {why}");
            return Action::Continue;
        }
    };
    match req.command() {
        Command::Recognize => conn.tally.count_recognize(),
        // Every other command sees, and is counted after, each request
        // this connection answered before it.
        command => {
            merge_tally(shared, &mut conn.tally);
            shared.metrics.count_request(command);
        }
    }
    match req {
        RequestRef::Ping => out.extend_from_slice(b"PONG"),
        RequestRef::Recognize { metric, start, end } => {
            let Some(m) = shared.cfg.catalog.id(metric) else {
                return unknown_metric(shared, metric, out);
            };
            conn.query
                .set_node_means(m, Interval::new(start, end), &conn.means);
            let p = current(shared, &mut conn.published, &mut conn.tally);
            p.engine
                .recognizer
                .answer_into(&conn.query, &mut conn.scratch, &mut conn.answer);
            conn.tally
                .count_verdict(p.gen, VerdictKind::of(&conn.answer));
            write_answer(out, "OK", p.gen, &conn.answer);
        }
        RequestRef::Stream {
            metric,
            nodes,
            start,
            end,
        } => {
            if conn.session.is_some() {
                shared.metrics.count_error("bad-state");
                out.extend_from_slice(b"ERR bad-state a stream is already open on this connection");
                return Action::Continue;
            }
            if nodes > MAX_STREAM_NODES {
                shared.metrics.count_error("malformed");
                let _ = write!(
                    out,
                    "ERR malformed STREAM nodes {nodes} exceeds the {MAX_STREAM_NODES} cap"
                );
                return Action::Continue;
            }
            let Some(m) = shared.cfg.catalog.id(metric) else {
                return unknown_metric(shared, metric, out);
            };
            let p = current(shared, &mut conn.published, &mut conn.tally);
            let node_ids: Vec<NodeId> = (0..nodes).map(NodeId).collect();
            let sess = OnlineRecognizer::new(
                Arc::clone(&p.engine.recognizer),
                &[m],
                &node_ids,
                vec![Interval::new(start, end)],
            );
            let horizon = sess.horizon_s();
            conn.session = Some(StreamState {
                sess,
                metric: m,
                gen: p.gen,
                opened: Instant::now(),
            });
            let _ = write!(out, "OPENED {} {horizon}", p.gen);
        }
        RequestRef::Push { node, t, value } => {
            let Some(st) = conn.session.as_mut() else {
                shared.metrics.count_error("bad-state");
                out.extend_from_slice(b"ERR bad-state no open stream (send STREAM first)");
                return Action::Continue;
            };
            follow_swap(current(shared, &mut conn.published, &mut conn.tally), st);
            match st.sess.push(NodeId(node), st.metric, t, value) {
                Some(rec) => {
                    let st = conn.session.take().expect("checked above");
                    stream_verdict(shared, &st, &rec, conn, out);
                }
                None => {
                    let _ = write!(out, "ACK {}", st.sess.collected());
                }
            }
        }
        RequestRef::Finish => {
            let Some(mut st) = conn.session.take() else {
                shared.metrics.count_error("bad-state");
                out.extend_from_slice(b"ERR bad-state no open stream to finish");
                return Action::Continue;
            };
            follow_swap(
                current(shared, &mut conn.published, &mut conn.tally),
                &mut st,
            );
            let rec = st.sess.finish();
            stream_verdict(shared, &st, &rec, conn, out);
        }
        RequestRef::Learn {
            app,
            input,
            metric,
            start,
            end,
        } => {
            let p = current(shared, &mut conn.published, &mut conn.tally);
            let Some(learner) = p.engine.learner.as_ref() else {
                shared.metrics.count_error("read-only");
                out.extend_from_slice(
                    b"ERR read-only this daemon serves an immutable snapshot \
                      (start with --wal to accept LEARN)",
                );
                return Action::Continue;
            };
            let Some(m) = shared.cfg.catalog.id(metric) else {
                return unknown_metric(shared, metric, out);
            };
            let obs = LabeledObservation {
                label: AppLabel::new(app, input),
                query: Query::from_node_means(m, Interval::new(start, end), &conn.means),
            };
            let _ = match learner.learn(&obs) {
                Ok(()) => write!(out, "LEARNED {}", learner.dictionary().len()),
                Err(e @ WalError::StringTooLong { .. }) => {
                    shared.metrics.count_error("malformed");
                    write!(out, "ERR malformed {e}")
                }
                Err(e) => write!(out, "ERR io {e}"),
            };
        }
        RequestRef::Swap { path } => {
            if shared.current().engine.learner.is_some() {
                shared.metrics.count_error("bad-state");
                out.extend_from_slice(
                    b"ERR bad-state durable mode learns in place; SWAP applies to \
                      file-backed engines",
                );
                return Action::Continue;
            }
            let outcome = if path.is_empty() {
                shared.reload()
            } else {
                (shared.cfg.loader)(Path::new(path), &shared.cfg.catalog)
                    .map(|engine| shared.publish(engine))
            };
            let _ = match outcome {
                Ok(gen) => {
                    let p = shared.current();
                    write!(
                        out,
                        "SWAPPED {gen} {} {}",
                        p.engine.keys,
                        p.engine.version_label()
                    )
                }
                Err(e) => write!(out, "ERR swap-failed {e}"),
            };
        }
        RequestRef::Stats => {
            let p = shared.current();
            let _ = write!(
                out,
                "STATS gen={} keys={} backend={} version={} connections={} requests={}",
                p.gen,
                p.engine.keys_now(),
                p.engine.kind,
                p.engine.version_label(),
                shared.metrics.connections_total.get(),
                shared.metrics.requests_total(),
            );
        }
        RequestRef::Status => {
            let p = shared.current();
            let snap = shared.drift.snapshot();
            let (bu, ba) = match snap.baseline {
                Some(b) => (
                    format!("{:.4}", b.unknown_rate),
                    format!("{:.4}", b.ambiguous_rate),
                ),
                None => ("-".to_string(), "-".to_string()),
            };
            let _ = write!(
                out,
                "STATUS gen={} version={} backend={} keys={} drift={} samples={} \
                 unknown_rate={:.4} ambiguous_rate={:.4} \
                 baseline_unknown={bu} baseline_ambiguous={ba}",
                p.gen,
                p.engine.version_label(),
                p.engine.kind,
                p.engine.keys_now(),
                snap.state.name(),
                snap.samples,
                snap.unknown_rate,
                snap.ambiguous_rate,
            );
        }
        RequestRef::Shutdown => {
            out.extend_from_slice(b"BYE");
            return Action::ShutdownDaemon;
        }
    }
    Action::Continue
}

fn unknown_metric(shared: &Shared, metric: &str, out: &mut Vec<u8>) -> Action {
    shared.metrics.count_error("unknown-metric");
    let _ = write!(out, "ERR unknown-metric {metric:?} is not in the catalog");
    Action::Continue
}

/// Re-point an open stream at the connection's current publication
/// (window means collected so far are kept — only the dictionary
/// changes).
fn follow_swap(p: &Published, st: &mut StreamState) {
    if p.gen != st.gen {
        st.sess.swap(Arc::clone(&p.engine.recognizer));
        st.gen = p.gen;
    }
}

fn stream_verdict(
    shared: &Shared,
    st: &StreamState,
    rec: &Recognition,
    conn: &mut Conn,
    out: &mut Vec<u8>,
) {
    shared
        .metrics
        .time_to_first_verdict
        .observe_duration(st.opened.elapsed());
    conn.answer.set_from(rec);
    conn.tally
        .count_verdict(st.gen, VerdictKind::of(&conn.answer));
    write_answer(out, "VERDICT", st.gen, &conn.answer);
}

/// Merge a connection's tally into the shared metrics and feed its
/// verdicts to the drift monitor in one batch; each judgement edge
/// (ok → alarm, alarm → ok, ...) the batch crosses is logged exactly
/// once, after the monitor's lock is released. The drift gauges are
/// read from the monitor at scrape time, not stored here.
fn merge_tally(shared: &Shared, tally: &mut RequestTally) {
    if tally.is_empty() {
        return;
    }
    shared.metrics.merge(tally);
    let (gen, verdicts) = tally.verdicts();
    if !verdicts.is_empty() {
        let mut edges = Vec::new();
        shared.drift.record_batch(gen, verdicts, &mut edges);
        for e in edges {
            eprintln!(
                "drift: {} -> {} (version={} unknown_rate={:.3} ambiguous_rate={:.3} window={})",
                e.from.name(),
                e.to.name(),
                shared.metrics.version().as_deref().unwrap_or("-"),
                e.at.unknown_rate,
                e.at.ambiguous_rate,
                e.at.samples,
            );
        }
    }
    tally.clear();
}

/// Minimal HTTP/1.1: `GET /metrics` (Prometheus text), `GET /healthz`.
/// One request per connection (`Connection: close`); `buffered` is what
/// the frame reader already holds of the request head, and the rest of
/// the head must arrive by `deadline`.
fn handle_http(
    shared: &Shared,
    mut stream: &TcpStream,
    buffered: &[u8],
    deadline: Option<Instant>,
) -> io::Result<()> {
    let mut head = buffered.to_vec();
    let mut buf = [0u8; 1024];
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > MAX_HTTP_HEAD {
            break;
        }
        if shared.stopping() {
            return Ok(());
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            shared.metrics.count_error("idle-timeout");
            return Ok(());
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return Ok(()),
        }
    }
    let text = String::from_utf8_lossy(&head);
    let line = text.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = match (method, path) {
        ("GET", "/metrics") | ("HEAD", "/metrics") => {
            shared.metrics.scrapes_total.inc();
            ("200 OK", shared.render_metrics())
        }
        ("GET", "/healthz") | ("HEAD", "/healthz") => ("200 OK", "ok\n".to_string()),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    let header = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    if method != "HEAD" {
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()
}
