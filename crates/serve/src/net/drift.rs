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
//! The monitor is a fixed ring of verdict kinds under a `Mutex`. The
//! daemon does not take that lock per verdict: each connection keeps
//! the kinds of a pipelined burst in order and hands them over in one
//! [`DriftMonitor::record_batch`], one lock per burst, before the
//! burst's replies are flushed. The batch is judged verdict by verdict
//! under that lock, so it crosses exactly the edges that recording its
//! verdicts one at a time would, and every [`DriftEdge`] comes back to
//! be logged once, outside the lock.
//!
//! A window belongs to one publication. [`DriftMonitor::rebaseline_for`]
//! stamps it with the generation it now judges, and a batch carries the
//! generation its verdicts were answered against; a batch from any
//! other generation is dropped under the same lock, so verdicts answered
//! by the old version just before a swap never count against the new
//! version's baseline.

use std::sync::Mutex;

use efd_core::VerdictKind;

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

/// A judgement change, with the window as it read right after the
/// verdict that caused it (what the daemon logs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEdge {
    /// Judgement before the verdict.
    pub from: DriftState,
    /// Judgement after it.
    pub to: DriftState,
    /// The window reading at the edge.
    pub at: DriftSnapshot,
}

struct Window {
    /// Verdict kinds; the tie/`Ambiguous` rate is the paper's tie-array
    /// case, `Recognized` everything else that matched.
    ring: Vec<VerdictKind>,
    /// Next write position.
    head: usize,
    /// Entries filled (saturates at ring capacity).
    filled: usize,
    unknown: usize,
    ambiguous: usize,
    baseline: Option<DriftBaseline>,
    /// Last judged state, for edge detection.
    last: DriftState,
    /// The publication generation this window judges.
    gen: u64,
}

impl Window {
    /// Empty the window and judge against `baseline` from now on.
    fn reset(&mut self, baseline: Option<DriftBaseline>) {
        self.ring.clear();
        self.head = 0;
        self.filled = 0;
        self.unknown = 0;
        self.ambiguous = 0;
        self.baseline = baseline;
        self.last = DriftState::Warming;
    }
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
                gen: 0,
            }),
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.cfg
    }

    /// Install a new baseline and clear the window — called on every
    /// publication, so the new version is judged only by traffic it
    /// answered itself. The window keeps its generation.
    pub fn rebaseline(&self, baseline: Option<DriftBaseline>) {
        self.inner.lock().expect("drift lock").reset(baseline);
    }

    /// [`DriftMonitor::rebaseline`] for publication `gen`: from now on
    /// only batches answered against `gen` are recorded.
    pub fn rebaseline_for(&self, gen: u64, baseline: Option<DriftBaseline>) {
        let mut w = self.inner.lock().expect("drift lock");
        w.reset(baseline);
        w.gen = gen;
    }

    /// Record one verdict by its stable label (`recognized` /
    /// `ambiguous` / `unknown`). Returns `Some((from, to))` when this
    /// verdict changed the judgement — the server logs exactly those
    /// edges.
    pub fn record(&self, verdict_label: &str) -> Option<(DriftState, DriftState)> {
        let mut w = self.inner.lock().expect("drift lock");
        self.push(&mut w, VerdictKind::from_label(verdict_label))
    }

    /// Record a burst of verdicts, in answer order, under one lock, if
    /// they were answered against the generation the window judges;
    /// otherwise drop them and return `false`. Every judgement edge the
    /// batch crosses is appended to `edges`.
    pub fn record_batch(
        &self,
        gen: u64,
        verdicts: &[VerdictKind],
        edges: &mut Vec<DriftEdge>,
    ) -> bool {
        let mut w = self.inner.lock().expect("drift lock");
        if w.gen != gen {
            return false;
        }
        for &v in verdicts {
            if let Some((from, to)) = self.push(&mut w, v) {
                edges.push(DriftEdge {
                    from,
                    to,
                    at: self.read(&w),
                });
            }
        }
        true
    }

    /// Slide one verdict into the window; the judgement edge it causes,
    /// if any.
    fn push(&self, w: &mut Window, v: VerdictKind) -> Option<(DriftState, DriftState)> {
        if w.ring.len() < self.cfg.window {
            w.ring.push(v);
        } else {
            let head = w.head;
            match w.ring[head] {
                VerdictKind::Unknown => w.unknown -= 1,
                VerdictKind::Ambiguous => w.ambiguous -= 1,
                VerdictKind::Recognized => {}
            }
            w.ring[head] = v;
        }
        w.head = (w.head + 1) % self.cfg.window;
        w.filled = (w.filled + 1).min(self.cfg.window);
        match v {
            VerdictKind::Unknown => w.unknown += 1,
            VerdictKind::Ambiguous => w.ambiguous += 1,
            VerdictKind::Recognized => {}
        }
        let state = self.judge(w);
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
        self.read(&self.inner.lock().expect("drift lock"))
    }

    fn read(&self, w: &Window) -> DriftSnapshot {
        let n = w.filled.max(1) as f64;
        DriftSnapshot {
            state: self.judge(w),
            samples: w.filled,
            unknown_rate: if w.filled == 0 {
                0.0
            } else {
                w.unknown as f64 / n
            },
            ambiguous_rate: if w.filled == 0 {
                0.0
            } else {
                w.ambiguous as f64 / n
            },
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
        assert_eq!(
            m.snapshot().state,
            DriftState::Ok,
            "nothing to compare against"
        );
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
    fn a_batch_crosses_the_same_edges_as_single_records() {
        use VerdictKind::{Ambiguous, Recognized, Unknown};
        let baseline = Some(DriftBaseline {
            unknown_rate: 0.1,
            ambiguous_rate: 0.1,
        });
        // Warm up, alarm on unknowns, recover, alarm on ties, recover.
        let mut verdicts = vec![Recognized; 5];
        verdicts.extend([Unknown; 6]);
        verdicts.extend([Recognized; 8]);
        verdicts.extend([Ambiguous, Recognized, Ambiguous, Ambiguous, Ambiguous]);
        verdicts.extend([Recognized; 9]);

        let single = DriftMonitor::new(cfg(8, 4, 0.2));
        single.rebaseline(baseline);
        let mut want = Vec::new();
        for v in &verdicts {
            if let Some(edge) = single.record(v.label()) {
                want.push(edge);
            }
        }
        assert!(
            want.len() >= 5,
            "the mix must cross several edges: {want:?}"
        );

        // Split into uneven batches, as bursts arrive.
        let batched = DriftMonitor::new(cfg(8, 4, 0.2));
        batched.rebaseline_for(3, baseline);
        let mut edges = Vec::new();
        for chunk in verdicts.chunks(7) {
            assert!(batched.record_batch(3, chunk, &mut edges));
        }
        let got: Vec<_> = edges.iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(got, want);
        assert_eq!(batched.snapshot(), single.snapshot());
        // Each edge carries the window as it read at that verdict.
        let last = edges.last().expect("edges");
        assert_eq!(last.at.state, last.to);
    }

    #[test]
    fn a_stale_generation_batch_after_a_rebaseline_is_dropped() {
        let m = DriftMonitor::new(cfg(8, 4, 0.1));
        m.rebaseline_for(1, None);
        let mut edges = Vec::new();
        assert!(m.record_batch(1, &[VerdictKind::Unknown; 2], &mut edges));
        assert_eq!(m.snapshot().samples, 2);
        // Generation 2 is published while a burst answered by
        // generation 1 is still being tallied; its batch arrives late.
        m.rebaseline_for(2, None);
        assert!(!m.record_batch(1, &[VerdictKind::Unknown; 6], &mut edges));
        let snap = m.snapshot();
        assert_eq!(snap.samples, 0, "the new version judged by old traffic");
        assert_eq!(snap.state, DriftState::Warming);
        assert!(edges.is_empty());
        assert!(m.record_batch(2, &[VerdictKind::Recognized], &mut edges));
        assert_eq!(m.snapshot().samples, 1);
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
