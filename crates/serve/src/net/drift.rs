//! Live drift detection: is traffic departing from the published
//! version's baseline?
//!
//! When a dictionary version is published (`efd catalog publish`), its
//! abstention **baseline** — the unknown/ambiguous rates measured
//! against held-out queries at publish time — is recorded in the catalog
//! index and travels with the artifact into the daemon. The
//! [`DriftMonitor`] then watches *live* verdicts in a sliding window: an
//! unknown or ambiguous rate sitting more than [`DriftConfig::margin`]
//! above baseline means the workload population has moved — new
//! applications, new input sizes, new phase behaviour — and a re-learned
//! dictionary version is due. That is exactly the operational signal the
//! scenario suite's concept-drift arm (`efd_workload::scenario`)
//! simulates, and the serve-layer test injects.
//!
//! ## Alarm semantics
//!
//! * **Warming** — fewer than [`DriftConfig::min_samples`] verdicts in
//!   the window; no judgement yet (a freshly swapped version always
//!   starts here, so a swap *clears* an alarm until fresh evidence
//!   accumulates against the new version's baseline).
//! * **Ok** — warmed, and both live rates are within `baseline + margin`.
//! * **Alarm** — warmed, and either rate exceeds its bound.
//!
//! Without a baseline (an artifact published `--baseline none`, or a
//! plain `--load` outside the catalog) the monitor never alarms — there
//! is nothing sound to compare to.
//!
//! The monitor is a fixed ring of verdict classes under a `Mutex`; a
//! few dozen nanoseconds per verdict against a mutex held for a handful
//! of instructions, which is noise next to a socket round trip. State
//! transitions are returned from [`DriftMonitor::record`] so the server
//! can log them exactly once per edge, not per request.

use std::sync::Mutex;

/// The published version's reference rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftBaseline {
    /// Fraction of baseline queries answered `Unknown`.
    pub unknown_rate: f64,
    /// Fraction of baseline queries answered `Ambiguous`.
    pub ambiguous_rate: f64,
}

/// Monitor tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Sliding-window size in verdicts.
    pub window: usize,
    /// Verdicts required before the monitor judges at all.
    pub min_samples: usize,
    /// How far above baseline a live rate may sit before alarm.
    pub margin: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            window: 512,
            min_samples: 128,
            margin: 0.15,
        }
    }
}

/// Monitor judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftState {
    /// Not enough window samples yet.
    Warming,
    /// Live rates within bounds.
    Ok,
    /// A live rate exceeds baseline + margin.
    Alarm,
}

impl DriftState {
    /// Lowercase name for status lines and metrics.
    pub fn name(self) -> &'static str {
        match self {
            DriftState::Warming => "warming",
            DriftState::Ok => "ok",
            DriftState::Alarm => "alarm",
        }
    }
}

/// A point-in-time reading of the monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSnapshot {
    /// Current judgement.
    pub state: DriftState,
    /// Verdicts currently in the window.
    pub samples: usize,
    /// Live unknown rate over the window (0 when empty).
    pub unknown_rate: f64,
    /// Live ambiguous rate over the window (0 when empty).
    pub ambiguous_rate: f64,
    /// The baseline being judged against, if any.
    pub baseline: Option<DriftBaseline>,
}

/// Verdict classes the window tracks (the tie/`Ambiguous` rate is the
/// paper's tie-array case; `Recognized` is everything else).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Recognized,
    Ambiguous,
    Unknown,
}

struct Window {
    ring: Vec<Class>,
    /// Next write position.
    head: usize,
    /// Entries filled (saturates at ring capacity).
    filled: usize,
    unknown: usize,
    ambiguous: usize,
    baseline: Option<DriftBaseline>,
    /// Last judged state, for edge detection.
    last: DriftState,
}

/// Sliding-window drift monitor (see module docs).
pub struct DriftMonitor {
    cfg: DriftConfig,
    inner: Mutex<Window>,
}

impl std::fmt::Debug for DriftMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("DriftMonitor")
            .field("cfg", &self.cfg)
            .field("snapshot", &snap)
            .finish()
    }
}

impl DriftMonitor {
    /// A monitor with no baseline yet (never alarms until
    /// [`DriftMonitor::rebaseline`] installs one). `window` is at least 1,
    /// and `min_samples` at most `window`: the window never holds more
    /// verdicts than that, so a larger threshold would keep it warming
    /// forever.
    pub fn new(cfg: DriftConfig) -> Self {
        let window = cfg.window.max(1);
        let min_samples = cfg.min_samples.min(window);
        Self {
            cfg: DriftConfig {
                window,
                min_samples,
                ..cfg
            },
            inner: Mutex::new(Window {
                ring: Vec::with_capacity(window),
                head: 0,
                filled: 0,
                unknown: 0,
                ambiguous: 0,
                baseline: None,
                last: DriftState::Warming,
            }),
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.cfg
    }

    /// Install a new baseline and clear the window — called on every
    /// publication, so the new version is judged only by traffic it
    /// answered itself.
    pub fn rebaseline(&self, baseline: Option<DriftBaseline>) {
        let mut w = self.inner.lock().expect("drift lock");
        w.ring.clear();
        w.head = 0;
        w.filled = 0;
        w.unknown = 0;
        w.ambiguous = 0;
        w.baseline = baseline;
        w.last = DriftState::Warming;
    }

    /// Record one verdict by its stable label (`recognized` /
    /// `ambiguous` / `unknown`). Returns `Some((from, to))` when this
    /// verdict changed the judgement — the server logs exactly those
    /// edges.
    pub fn record(&self, verdict_label: &str) -> Option<(DriftState, DriftState)> {
        let class = match verdict_label {
            "unknown" => Class::Unknown,
            "ambiguous" => Class::Ambiguous,
            _ => Class::Recognized,
        };
        let mut w = self.inner.lock().expect("drift lock");
        if w.ring.len() < self.cfg.window {
            w.ring.push(class);
        } else {
            let head = w.head;
            match w.ring[head] {
                Class::Unknown => w.unknown -= 1,
                Class::Ambiguous => w.ambiguous -= 1,
                Class::Recognized => {}
            }
            w.ring[head] = class;
        }
        w.head = (w.head + 1) % self.cfg.window;
        w.filled = (w.filled + 1).min(self.cfg.window);
        match class {
            Class::Unknown => w.unknown += 1,
            Class::Ambiguous => w.ambiguous += 1,
            Class::Recognized => {}
        }
        let state = self.judge(&w);
        if state != w.last {
            let from = w.last;
            w.last = state;
            Some((from, state))
        } else {
            None
        }
    }

    fn judge(&self, w: &Window) -> DriftState {
        let Some(b) = w.baseline else {
            return if w.filled < self.cfg.min_samples {
                DriftState::Warming
            } else {
                DriftState::Ok
            };
        };
        if w.filled < self.cfg.min_samples {
            return DriftState::Warming;
        }
        let n = w.filled as f64;
        let unknown = w.unknown as f64 / n;
        let ambiguous = w.ambiguous as f64 / n;
        if unknown > b.unknown_rate + self.cfg.margin
            || ambiguous > b.ambiguous_rate + self.cfg.margin
        {
            DriftState::Alarm
        } else {
            DriftState::Ok
        }
    }

    /// Current judgement and window rates.
    pub fn snapshot(&self) -> DriftSnapshot {
        let w = self.inner.lock().expect("drift lock");
        let n = w.filled.max(1) as f64;
        DriftSnapshot {
            state: self.judge(&w),
            samples: w.filled,
            unknown_rate: if w.filled == 0 { 0.0 } else { w.unknown as f64 / n },
            ambiguous_rate: if w.filled == 0 { 0.0 } else { w.ambiguous as f64 / n },
            baseline: w.baseline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window: usize, min_samples: usize, margin: f64) -> DriftConfig {
        DriftConfig {
            window,
            min_samples,
            margin,
        }
    }

    #[test]
    fn warms_then_alarms_on_unknown_surge() {
        let m = DriftMonitor::new(cfg(8, 4, 0.1));
        m.rebaseline(Some(DriftBaseline {
            unknown_rate: 0.0,
            ambiguous_rate: 0.0,
        }));
        assert_eq!(m.snapshot().state, DriftState::Warming);
        for _ in 0..4 {
            m.record("recognized");
        }
        assert_eq!(m.snapshot().state, DriftState::Ok);
        // Flood unknowns; the edge fires exactly once.
        let mut edges = 0;
        for _ in 0..8 {
            if let Some((from, to)) = m.record("unknown") {
                assert_eq!((from, to), (DriftState::Ok, DriftState::Alarm));
                edges += 1;
            }
        }
        assert_eq!(edges, 1, "one log line per edge");
        let snap = m.snapshot();
        assert_eq!(snap.state, DriftState::Alarm);
        assert_eq!(snap.unknown_rate, 1.0, "window fully displaced");
    }

    #[test]
    fn window_slides_and_recovers() {
        let m = DriftMonitor::new(cfg(4, 2, 0.1));
        m.rebaseline(Some(DriftBaseline {
            unknown_rate: 0.0,
            ambiguous_rate: 0.0,
        }));
        for _ in 0..4 {
            m.record("unknown");
        }
        assert_eq!(m.snapshot().state, DriftState::Alarm);
        // Healthy traffic displaces the bad window.
        let mut cleared = false;
        for _ in 0..4 {
            if let Some((_, to)) = m.record("recognized") {
                cleared = to == DriftState::Ok;
            }
        }
        assert!(cleared);
        assert_eq!(m.snapshot().state, DriftState::Ok);
        assert_eq!(m.snapshot().unknown_rate, 0.0);
    }

    #[test]
    fn min_samples_above_the_window_still_judges_a_full_window() {
        let m = DriftMonitor::new(cfg(64, 128, 0.1));
        m.rebaseline(Some(DriftBaseline {
            unknown_rate: 0.0,
            ambiguous_rate: 0.0,
        }));
        for _ in 0..64 {
            m.record("unknown");
        }
        assert_eq!(m.snapshot().state, DriftState::Alarm);
        assert_eq!(m.config().min_samples, 64);
    }

    #[test]
    fn no_baseline_never_alarms() {
        let m = DriftMonitor::new(cfg(4, 2, 0.1));
        for _ in 0..16 {
            m.record("unknown");
        }
        assert_eq!(m.snapshot().state, DriftState::Ok, "nothing to compare against");
    }

    #[test]
    fn rebaseline_clears_the_alarm() {
        let m = DriftMonitor::new(cfg(4, 2, 0.1));
        m.rebaseline(Some(DriftBaseline {
            unknown_rate: 0.0,
            ambiguous_rate: 0.0,
        }));
        for _ in 0..4 {
            m.record("unknown");
        }
        assert_eq!(m.snapshot().state, DriftState::Alarm);
        // A swap to a re-learned version rebaselines: alarm clears into
        // warming until the new version earns a judgement.
        m.rebaseline(Some(DriftBaseline {
            unknown_rate: 0.1,
            ambiguous_rate: 0.1,
        }));
        let snap = m.snapshot();
        assert_eq!(snap.state, DriftState::Warming);
        assert_eq!(snap.samples, 0);
    }

    #[test]
    fn ambiguous_rate_alarms_independently() {
        let m = DriftMonitor::new(cfg(8, 4, 0.05));
        m.rebaseline(Some(DriftBaseline {
            unknown_rate: 0.5,
            ambiguous_rate: 0.0,
        }));
        for _ in 0..8 {
            m.record("ambiguous");
        }
        assert_eq!(m.snapshot().state, DriftState::Alarm);
        assert_eq!(m.snapshot().ambiguous_rate, 1.0);
    }
}
