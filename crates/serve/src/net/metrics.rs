//! The daemon's metric surface: every instrument the server touches,
//! pre-registered at start, so updating one is an atomic add with no
//! registry lock and no name lookup.
//!
//! The `RECOGNIZE` hot path does not touch these shared instruments at
//! all. Each connection counts its requests, verdicts and durations in
//! a [`RequestTally`] of plain integers it owns, and merges that into
//! the instruments once per burst ([`DaemonMetrics::merge`]), before
//! the burst's replies are flushed. So every reply a client has received
//! is already counted, and a scrape never sees a reply counted twice or
//! a request missing once its reply arrived.
//!
//! Exported families (all documented with example queries in
//! `docs/METRICS.md`):
//!
//! * `efd_requests_total{command}` — requests answered, per command.
//! * `efd_verdicts_total{verdict}` — recognition verdicts returned.
//! * `efd_request_duration_seconds` — request latency up to the reply
//!   being buffered.
//! * `efd_stream_time_to_first_verdict_seconds` — stream open → first
//!   verdict.
//! * `efd_active_connections` — open connections, one thread each.
//! * `efd_connections_total` — connections accepted since start.
//! * `efd_protocol_errors_total{kind}` — frame/grammar violations.
//! * `efd_snapshot_swaps_total` / `efd_snapshot_generation` — hot-swap
//!   republications and the current generation.
//! * `efd_catalog_info{version}` — the served catalog artifact version
//!   (constant `1`; the label carries the information).
//! * `efd_drift_alarm` plus the `efd_drift_*_rate` /
//!   `efd_drift_baseline_*` / `efd_drift_window_samples` family — the
//!   live drift monitor's judgement against the published baseline,
//!   read from the monitor at scrape time ([`DaemonMetrics::observe_drift`]).
//! * `efd_scrapes_total` — `/metrics` scrapes served.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use efd_telemetry::prom::{bucket_index, Counter, FloatGauge, Gauge, Histogram, Registry};

use super::drift::{DriftSnapshot, DriftState};
use super::protocol::{Command, VerdictKind, COMMANDS};

/// Latency buckets for `efd_request_duration_seconds`: 1 µs … 1 s,
/// roughly ×2–×2.5 steps — tight enough at the bottom to resolve a warm
/// `RECOGNIZE` (~2 µs) from one that waited on a socket read or a cold
/// cache, wide enough at the top to catch a stalled connection thread.
pub const DURATION_BUCKETS: [f64; 16] = [
    1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 1e-2,
    5e-2, 0.25, 1.0,
];

/// Buckets for `efd_stream_time_to_first_verdict_seconds`: a stream's
/// first verdict lands when its fingerprint window closes, so this is
/// seconds-to-minutes territory (the paper's "within the first two
/// minutes"), not microseconds.
pub const TTFV_BUCKETS: [f64; 9] = [0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 150.0];

/// Protocol-error kinds, in registration order (`kind` label values).
pub const ERROR_KINDS: [&str; 8] = [
    "torn",
    "oversized",
    "empty",
    "malformed",
    "unknown-metric",
    "bad-state",
    "read-only",
    "idle-timeout",
];

/// Verdict label values, in registration order ([`VerdictKind::index`]).
pub const VERDICT_KINDS: [&str; 3] = [
    VerdictKind::Recognized.label(),
    VerdictKind::Ambiguous.label(),
    VerdictKind::Unknown.label(),
];

/// One connection's bookkeeping for the requests it answered since its
/// last merge, in plain integers only that connection writes:
/// `RECOGNIZE` requests, verdicts by kind, request durations by
/// histogram slot plus their sum, and the verdict kinds in answer order
/// for the drift monitor. [`DaemonMetrics::merge`] adds it to the
/// shared instruments in one go.
///
/// Its verdicts all belong to one publication generation; the server
/// merges before it answers against another.
#[derive(Debug, Default)]
pub struct RequestTally {
    recognize: u64,
    durations: [u64; DURATION_BUCKETS.len() + 1],
    duration_sum: f64,
    observed: u64,
    kinds: Vec<VerdictKind>,
    gen: u64,
}

impl RequestTally {
    /// Count one `RECOGNIZE` request.
    #[inline]
    pub fn count_recognize(&mut self) {
        self.recognize += 1;
    }

    /// Count a verdict answered against generation `gen`.
    #[inline]
    pub fn count_verdict(&mut self, gen: u64, kind: VerdictKind) {
        debug_assert!(
            self.kinds.is_empty() || self.gen == gen,
            "a tally holds one generation's verdicts"
        );
        self.gen = gen;
        self.kinds.push(kind);
    }

    /// Observe one request's end-to-end latency.
    #[inline]
    pub fn observe_duration(&mut self, d: Duration) {
        let secs = d.as_secs_f64();
        self.durations[bucket_index(&DURATION_BUCKETS, secs)] += 1;
        self.duration_sum += secs;
        self.observed += 1;
    }

    /// True when nothing was counted since the last [`RequestTally::clear`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.observed == 0 && self.recognize == 0 && self.kinds.is_empty()
    }

    /// The verdict kinds in answer order, and the generation they were
    /// answered against.
    pub fn verdicts(&self) -> (u64, &[VerdictKind]) {
        (self.gen, &self.kinds)
    }

    /// Forget everything counted (keeps the verdict buffer's capacity).
    pub fn clear(&mut self) {
        let mut kinds = std::mem::take(&mut self.kinds);
        kinds.clear();
        *self = RequestTally {
            kinds,
            ..RequestTally::default()
        };
    }
}

/// All daemon instruments, handle-cached over one [`Registry`].
#[derive(Debug)]
pub struct DaemonMetrics {
    registry: Registry,
    requests: [Arc<Counter>; COMMANDS.len()],
    verdicts: [Arc<Counter>; VERDICT_KINDS.len()],
    errors: [Arc<Counter>; ERROR_KINDS.len()],
    /// Request latency histogram (see `docs/METRICS.md` for the span).
    pub request_duration: Arc<Histogram>,
    /// Stream open → first verdict latency histogram.
    pub time_to_first_verdict: Arc<Histogram>,
    /// Open connections, one thread each; the acceptor holds it at or
    /// below [`super::server::MAX_CONNECTIONS`].
    pub active_connections: Arc<Gauge>,
    /// Connections accepted since daemon start.
    pub connections_total: Arc<Counter>,
    /// Engine republications since start (initial publish excluded).
    pub swaps_total: Arc<Counter>,
    /// Current engine generation (starts at 1).
    pub generation: Arc<Gauge>,
    /// Drift judgement: 1 while the monitor is in alarm, else 0.
    pub drift_alarm: Arc<Gauge>,
    /// Verdicts currently in the drift window.
    pub drift_window_samples: Arc<Gauge>,
    /// Live unknown-verdict rate over the drift window.
    pub drift_unknown_rate: Arc<FloatGauge>,
    /// Live ambiguous-verdict rate over the drift window.
    pub drift_ambiguous_rate: Arc<FloatGauge>,
    /// Published baseline unknown rate (0 when no baseline).
    pub drift_baseline_unknown_rate: Arc<FloatGauge>,
    /// Published baseline ambiguous rate (0 when no baseline).
    pub drift_baseline_ambiguous_rate: Arc<FloatGauge>,
    /// `/metrics` scrapes served.
    pub scrapes_total: Arc<Counter>,
    /// Served catalog artifact version (`hpc-apps@v3`), rendered as the
    /// `efd_catalog_info{version=...}` label. The vendored registry keys
    /// series by label at registration, so a value that changes on every
    /// hot swap is rendered by hand in [`DaemonMetrics::render`] instead.
    version: Mutex<Option<String>>,
}

impl Default for DaemonMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl DaemonMetrics {
    /// Register every family and cache the instrument handles.
    pub fn new() -> Self {
        let registry = Registry::new();
        let requests = COMMANDS.map(|c| {
            registry.counter(
                "efd_requests_total",
                "Requests answered, by protocol command.",
                &[("command", c.name())],
            )
        });
        let verdicts = VERDICT_KINDS.map(|v| {
            registry.counter(
                "efd_verdicts_total",
                "Recognition verdicts returned.",
                &[("verdict", v)],
            )
        });
        let errors = ERROR_KINDS.map(|k| {
            registry.counter(
                "efd_protocol_errors_total",
                "Protocol violations and dropped connections, by kind.",
                &[("kind", k)],
            )
        });
        let request_duration = registry.histogram(
            "efd_request_duration_seconds",
            "Request latency to reply buffered, from frame decoded (or, pipelined, \
             from the previous reply buffered).",
            &[],
            &DURATION_BUCKETS,
        );
        let time_to_first_verdict = registry.histogram(
            "efd_stream_time_to_first_verdict_seconds",
            "Stream open to first verdict (the paper's during-execution latency).",
            &[],
            &TTFV_BUCKETS,
        );
        let active_connections = registry.gauge(
            "efd_active_connections",
            "Connections currently being served.",
            &[],
        );
        let connections_total = registry.counter(
            "efd_connections_total",
            "Connections accepted since daemon start.",
            &[],
        );
        let swaps_total = registry.counter(
            "efd_snapshot_swaps_total",
            "Engine hot-swap republications since start.",
            &[],
        );
        let generation = registry.gauge(
            "efd_snapshot_generation",
            "Current published engine generation.",
            &[],
        );
        let drift_alarm = registry.gauge(
            "efd_drift_alarm",
            "1 while live verdict rates exceed the published baseline.",
            &[],
        );
        let drift_window_samples = registry.gauge(
            "efd_drift_window_samples",
            "Verdicts currently in the drift monitor's sliding window.",
            &[],
        );
        let drift_unknown_rate = registry.float_gauge(
            "efd_drift_unknown_rate",
            "Live unknown-verdict rate over the drift window.",
            &[],
        );
        let drift_ambiguous_rate = registry.float_gauge(
            "efd_drift_ambiguous_rate",
            "Live ambiguous-verdict rate over the drift window.",
            &[],
        );
        let drift_baseline_unknown_rate = registry.float_gauge(
            "efd_drift_baseline_unknown_rate",
            "Unknown rate recorded when the served version was published.",
            &[],
        );
        let drift_baseline_ambiguous_rate = registry.float_gauge(
            "efd_drift_baseline_ambiguous_rate",
            "Ambiguous rate recorded when the served version was published.",
            &[],
        );
        let scrapes_total = registry.counter(
            "efd_scrapes_total",
            "Prometheus /metrics scrapes served.",
            &[],
        );
        DaemonMetrics {
            registry,
            requests,
            verdicts,
            errors,
            request_duration,
            time_to_first_verdict,
            active_connections,
            connections_total,
            swaps_total,
            generation,
            drift_alarm,
            drift_window_samples,
            drift_unknown_rate,
            drift_ambiguous_rate,
            drift_baseline_unknown_rate,
            drift_baseline_ambiguous_rate,
            scrapes_total,
            version: Mutex::new(None),
        }
    }

    /// Record the served catalog version (`None` outside the catalog).
    pub fn set_version(&self, version: Option<String>) {
        *self.version.lock().expect("version lock") = version;
    }

    /// The served catalog version, if any.
    pub fn version(&self) -> Option<String> {
        self.version.lock().expect("version lock").clone()
    }

    /// Push a drift reading into the gauge family. The daemon calls this
    /// just before it renders a scrape, not per verdict.
    pub fn observe_drift(&self, snap: &DriftSnapshot) {
        self.drift_alarm
            .set(i64::from(snap.state == DriftState::Alarm));
        self.drift_window_samples.set(snap.samples as i64);
        self.drift_unknown_rate.set(snap.unknown_rate);
        self.drift_ambiguous_rate.set(snap.ambiguous_rate);
        let (bu, ba) = match snap.baseline {
            Some(b) => (b.unknown_rate, b.ambiguous_rate),
            None => (0.0, 0.0),
        };
        self.drift_baseline_unknown_rate.set(bu);
        self.drift_baseline_ambiguous_rate.set(ba);
    }

    /// Count one request of the given command.
    pub fn count_request(&self, c: Command) {
        self.requests[c.index()].inc();
    }

    /// Add a connection's [`RequestTally`] to the shared instruments:
    /// one atomic add per non-zero counter and one
    /// [`Histogram::merge`]. The drift monitor takes the tally's verdict
    /// kinds separately.
    pub fn merge(&self, t: &RequestTally) {
        if t.recognize > 0 {
            self.requests[Command::Recognize.index()].add(t.recognize);
        }
        let mut verdicts = [0; VERDICT_KINDS.len()];
        for kind in &t.kinds {
            verdicts[kind.index()] += 1;
        }
        for (counter, n) in self.verdicts.iter().zip(verdicts) {
            if n > 0 {
                counter.add(n);
            }
        }
        self.request_duration.merge(&t.durations, t.duration_sum);
    }

    /// Count one verdict by its label (`recognized`/`ambiguous`/`unknown`).
    pub fn count_verdict(&self, label: &str) {
        if let Some(i) = VERDICT_KINDS.iter().position(|k| *k == label) {
            self.verdicts[i].inc();
        }
    }

    /// Count one protocol error by kind (must be one of [`ERROR_KINDS`]).
    pub fn count_error(&self, kind: &str) {
        if let Some(i) = ERROR_KINDS.iter().position(|k| *k == kind) {
            self.errors[i].inc();
        }
    }

    /// Requests answered across all commands (the daemon's STATS line).
    pub fn requests_total(&self) -> u64 {
        self.requests.iter().map(|c| c.get()).sum()
    }

    /// Verdicts returned across all kinds.
    pub fn verdicts_total(&self) -> u64 {
        self.verdicts.iter().map(|c| c.get()).sum()
    }

    /// Render the full Prometheus text exposition, closed by the
    /// hand-rendered `efd_catalog_info` family (its `version` label
    /// changes on hot swap, which the registry's fixed series can't).
    pub fn render(&self) -> String {
        let mut out = self.registry.render();
        let version = self.version();
        out.push_str("# HELP efd_catalog_info Served catalog artifact version.\n");
        out.push_str("# TYPE efd_catalog_info gauge\n");
        out.push_str(&format!(
            "efd_catalog_info{{version=\"{}\"}} 1\n",
            version.as_deref().unwrap_or("-")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_feed_the_exposition() {
        let m = DaemonMetrics::new();
        m.count_request(Command::Recognize);
        m.count_request(Command::Recognize);
        m.count_request(Command::Ping);
        m.count_verdict("recognized");
        m.count_error("torn");
        m.request_duration.observe(0.0001);
        assert_eq!(m.requests_total(), 3);
        let text = m.render();
        for needle in [
            "efd_requests_total{command=\"recognize\"} 2",
            "efd_requests_total{command=\"ping\"} 1",
            "efd_verdicts_total{verdict=\"recognized\"} 1",
            "efd_protocol_errors_total{kind=\"torn\"} 1",
            "efd_request_duration_seconds_count 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn a_merged_tally_renders_like_per_request_counting() {
        let direct = DaemonMetrics::new();
        let merged = DaemonMetrics::new();
        let mut tally = RequestTally::default();
        let mix = [
            (VerdictKind::Recognized, 20u64),
            (VerdictKind::Unknown, 40),
            (VerdictKind::Recognized, 3000),
            (VerdictKind::Ambiguous, 2_000_000),
        ];
        for (kind, us) in mix {
            // Both sides add the same durations in the same order, so
            // even `_sum` renders identically.
            let d = Duration::from_micros(us);
            direct.count_request(Command::Recognize);
            direct.count_verdict(kind.label());
            direct.request_duration.observe_duration(d);
            tally.count_recognize();
            tally.count_verdict(7, kind);
            tally.observe_duration(d);
        }
        assert!(!tally.is_empty());
        merged.merge(&tally);
        assert_eq!(merged.render(), direct.render());
        assert_eq!(tally.verdicts().0, 7);
        assert_eq!(tally.verdicts().1.len(), mix.len());
        tally.clear();
        assert!(tally.is_empty());
        assert_eq!(tally.verdicts().1, &[]);
    }

    #[test]
    fn verdict_kinds_index_their_labels() {
        for kind in [
            VerdictKind::Recognized,
            VerdictKind::Ambiguous,
            VerdictKind::Unknown,
        ] {
            assert_eq!(VERDICT_KINDS[kind.index()], kind.label());
        }
    }

    #[test]
    fn unknown_labels_are_ignored_not_panics() {
        let m = DaemonMetrics::new();
        m.count_verdict("confident"); // future verdict kind
        m.count_error("cosmic-ray");
        assert_eq!(m.verdicts_total(), 0);
    }
}
