//! Materializing one execution into telemetry.
//!
//! A [`RunSpec`] is the *identity* of a run (app, input, allocation size,
//! repetition, seed); [`materialize`] turns it into an
//! [`ExecutionTrace`] by driving one [`SignalSource`] per (node, metric)
//! through the simulated LDMS collector. Everything is a pure function of
//! the spec, so runs can be regenerated lazily, in any order, in parallel.
//!
//! [`window_means`] is the fingerprint fast path: it simulates only up to
//! the end of the requested window and returns per-node means — identical
//! (bit for bit) to materializing the full trace and averaging, because all
//! random draws happen in sample order.

use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::noise::{Composite, NoiseProcess};
use efd_telemetry::sampler::{CollectorConfig, LdmsCollector, MetricSource};
use efd_telemetry::trace::{ExecutionTrace, MetricSelection, NodeId, NodeTrace};
use efd_telemetry::{AppLabel, Interval};
use efd_util::rng::{derive_seed, SplitMix64};

use crate::apps::{label, AppId, InputSize};
use crate::profile::{signal_params, GeneratorKnobs, SignalParams};

/// Identity of one execution: everything needed to regenerate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Application.
    pub app: AppId,
    /// Input size.
    pub input: InputSize,
    /// Allocation size (4 for X/Y/Z runs, 32 for L runs — paper Table 2).
    pub n_nodes: u16,
    /// Repetition index within (app, input).
    pub rep: u32,
    /// Wall-clock duration in seconds.
    pub duration_s: u32,
    /// Run seed (derived from the dataset master seed).
    pub seed: u64,
}

serde::impl_serde_struct!(RunSpec {
    app,
    input,
    n_nodes,
    rep,
    duration_s,
    seed,
});

impl RunSpec {
    /// Ground-truth label of this run.
    pub fn label(&self) -> AppLabel {
        label(self.app, self.input)
    }

    /// Stable execution id.
    pub fn exec_id(&self) -> u64 {
        derive_seed(self.seed, &[0xE7EC])
    }
}

/// The ground-truth signal for one (run, node, metric) stream:
/// deterministic level/transient/pattern plus seeded noise. Implements
/// [`MetricSource`] for the collector.
pub struct SignalSource {
    level: f64,
    init_mult: f64,
    init_tau_s: f64,
    period_s: f64,
    period_amp: f64,
    phase: f64,
    ramp_per_s: f64,
    noise: Composite,
    /// Noise inflation during the init phase (t < 60 s): startup chaos.
    init_noise_mult: f64,
}

impl SignalSource {
    /// Build the source for `params`, with run-specific jitter drawn from
    /// `stream_seed`.
    pub fn new(params: &SignalParams, stream_seed: u64) -> Self {
        let mut rng = SplitMix64::new(derive_seed(stream_seed, &[0x51D0]));
        let level = params.level * (1.0 + params.run_jitter_rel * rng.next_gaussian());
        let init_tau_s = params.init_tau_s * (1.0 + 0.1 * (rng.next_f64() * 2.0 - 1.0));
        let phase = std::f64::consts::TAU * rng.next_f64();
        let noise = Composite::standard(
            params.white_sd,
            params.drift_sd,
            params.spike_height,
            derive_seed(stream_seed, &[0x2A0B]),
        );
        Self {
            level,
            init_mult: params.init_mult,
            init_tau_s,
            period_s: params.period_s,
            period_amp: params.period_amp,
            phase,
            ramp_per_s: params.ramp_per_s,
            noise,
            init_noise_mult: 3.0,
        }
    }
}

impl MetricSource for SignalSource {
    fn value_at(&mut self, t: f64) -> f64 {
        let init = 1.0 + (self.init_mult - 1.0) * (-t / self.init_tau_s).exp();
        // Growth is centered on the fingerprint window's midpoint (90 s) so
        // the paper's [60:120] mean reads the steady level while later
        // windows still differ (temporal-alignment structure).
        let ramp = 1.0 + self.ramp_per_s * (t - 90.0);
        let mut v = self.level * init * ramp;
        if self.period_s > 0.0 {
            v += self.period_amp * (std::f64::consts::TAU * t / self.period_s + self.phase).sin();
        }
        let mut n = self.noise.sample(t);
        if t < 60.0 {
            n *= self.init_noise_mult;
        }
        // Telemetry counters cannot go negative.
        (v + n).max(0.0)
    }
}

/// Seed for one (run, node, metric) stream.
fn stream_seed(spec: &RunSpec, node: NodeId, metric_salt: u64) -> u64 {
    derive_seed(spec.seed, &[node.0 as u64, metric_salt])
}

/// Materialize the full trace of a run for the selected metrics.
pub fn materialize(
    spec: &RunSpec,
    catalog: &MetricCatalog,
    selection: &MetricSelection,
    collector: CollectorConfig,
    knobs: &GeneratorKnobs,
) -> ExecutionTrace {
    materialize_prefix(spec, catalog, selection, collector, knobs, spec.duration_s)
}

/// Materialize only the first `horizon_s` seconds of a run (identical to
/// the prefix of the full trace).
pub fn materialize_prefix(
    spec: &RunSpec,
    catalog: &MetricCatalog,
    selection: &MetricSelection,
    collector: CollectorConfig,
    knobs: &GeneratorKnobs,
    horizon_s: u32,
) -> ExecutionTrace {
    let horizon = horizon_s.min(spec.duration_s);
    let nodes = (0..spec.n_nodes)
        .map(|n| {
            let node = NodeId(n);
            let series = selection
                .ids()
                .iter()
                .map(|&id| {
                    let info = catalog.info(id);
                    let params =
                        signal_params(spec.app, spec.input, info, node, spec.n_nodes, knobs);
                    let seed = stream_seed(spec, node, info.salt);
                    let mut source = SignalSource::new(&params, seed);
                    let mut ldms = LdmsCollector::new(collector, derive_seed(seed, &[0xC011]));
                    ldms.collect(&mut source, horizon)
                })
                .collect();
            NodeTrace { node, series }
        })
        .collect();
    ExecutionTrace {
        exec_id: spec.exec_id(),
        label: spec.label(),
        selection: selection.clone(),
        nodes,
        duration_s: horizon,
    }
}

/// Fingerprint fast path: per-node, per-metric means over `window`,
/// simulating only `window.end` seconds. `out[node][metric_pos]`.
pub fn window_means(
    spec: &RunSpec,
    catalog: &MetricCatalog,
    selection: &MetricSelection,
    window: Interval,
    collector: CollectorConfig,
    knobs: &GeneratorKnobs,
) -> Vec<Vec<f64>> {
    let trace = materialize_prefix(spec, catalog, selection, collector, knobs, window.end);
    trace
        .nodes
        .iter()
        .map(|n| n.series.iter().map(|s| s.window_mean(window)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::steady_level;
    use efd_telemetry::catalog::small_catalog;

    fn spec() -> RunSpec {
        RunSpec {
            app: AppId::Ft,
            input: InputSize::X,
            n_nodes: 4,
            rep: 0,
            duration_s: 300,
            seed: 0xABCD,
        }
    }

    fn setup() -> (MetricCatalog, MetricSelection) {
        let c = small_catalog();
        let id = c.id("nr_mapped_vmstat").unwrap();
        (c, MetricSelection::single(id))
    }

    #[test]
    fn materialization_is_deterministic() {
        let (c, sel) = setup();
        let k = GeneratorKnobs::default();
        let a = materialize(&spec(), &c, &sel, CollectorConfig::default(), &k);
        let b = materialize(&spec(), &c, &sel, CollectorConfig::default(), &k);
        assert_eq!(a, b);
    }

    #[test]
    fn trace_shape_matches_spec() {
        let (c, sel) = setup();
        let k = GeneratorKnobs::default();
        let t = materialize(&spec(), &c, &sel, CollectorConfig::default(), &k);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.label.to_string(), "ft X");
        for n in &t.nodes {
            assert_eq!(n.series.len(), 1);
            assert_eq!(n.series[0].len(), 300);
        }
    }

    #[test]
    fn window_mean_near_steady_level() {
        let (c, sel) = setup();
        let k = GeneratorKnobs::default();
        let id = sel.ids()[0];
        let t = materialize(&spec(), &c, &sel, CollectorConfig::ideal(), &k);
        let expect = steady_level(AppId::Ft, InputSize::X, c.info(id), NodeId(0), 4, &k);
        let mean = t
            .series(NodeId(0), id)
            .unwrap()
            .window_mean(Interval::PAPER_DEFAULT);
        let rel = (mean / expect - 1.0).abs();
        assert!(rel < 0.01, "window mean {mean} vs steady {expect}");
    }

    #[test]
    fn init_phase_deviates_from_steady() {
        let (c, sel) = setup();
        let k = GeneratorKnobs::default();
        let id = sel.ids()[0];
        let t = materialize(&spec(), &c, &sel, CollectorConfig::ideal(), &k);
        let s = t.series(NodeId(0), id).unwrap();
        let steady = s.window_mean(Interval::new(120, 240));
        let early = s.window_mean(Interval::new(0, 30));
        let late_dev = (s.window_mean(Interval::PAPER_DEFAULT) / steady - 1.0).abs();
        let early_dev = (early / steady - 1.0).abs();
        assert!(
            early_dev > late_dev * 3.0,
            "init transient too weak: early {early_dev} vs late {late_dev}"
        );
    }

    #[test]
    fn different_reps_produce_different_means() {
        let (c, sel) = setup();
        let k = GeneratorKnobs::default();
        let id = sel.ids()[0];
        let mut means = Vec::new();
        for rep in 0..5u32 {
            let s = RunSpec {
                rep,
                seed: derive_seed(1, &[rep as u64]),
                ..spec()
            };
            let t = materialize(&s, &c, &sel, CollectorConfig::default(), &k);
            means.push(
                t.series(NodeId(0), id)
                    .unwrap()
                    .window_mean(Interval::PAPER_DEFAULT),
            );
        }
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        means.dedup();
        assert!(means.len() >= 4, "means too identical: {means:?}");
        // …but they all stay near the app level (fingerprints repeat after
        // rounding).
        let spread = means.last().unwrap() / means.first().unwrap() - 1.0;
        assert!(spread < 0.01, "run-to-run spread {spread}");
    }

    #[test]
    fn window_means_fast_path_matches_full_trace() {
        let (c, sel) = setup();
        let k = GeneratorKnobs::default();
        let id = sel.ids()[0];
        let w = Interval::PAPER_DEFAULT;
        let fast = window_means(&spec(), &c, &sel, w, CollectorConfig::default(), &k);
        let t = materialize(&spec(), &c, &sel, CollectorConfig::default(), &k);
        for n in 0..4u16 {
            let full = t.series(NodeId(n), id).unwrap().window_mean(w);
            assert_eq!(
                fast[n as usize][0], full,
                "node {n}: fast path diverged from full trace"
            );
        }
    }

    #[test]
    fn miniamr_ramp_shifts_later_windows() {
        let (c, sel) = setup();
        let k = GeneratorKnobs::default();
        let id = sel.ids()[0];
        let s = RunSpec {
            app: AppId::MiniAmr,
            ..spec()
        };
        let t = materialize(&s, &c, &sel, CollectorConfig::ideal(), &k);
        let series = t.series(NodeId(0), id).unwrap();
        let w1 = series.window_mean(Interval::new(60, 120));
        let w2 = series.window_mean(Interval::new(180, 240));
        assert!(w2 > w1 * 1.01, "ramp missing: {w1} -> {w2}");
    }

    #[test]
    fn values_never_negative() {
        let (c, _) = setup();
        // Weak-tier metric with heavy noise.
        let id = c.id("load1_loadavg").unwrap();
        let sel = MetricSelection::single(id);
        let k = GeneratorKnobs::default();
        let t = materialize(&spec(), &c, &sel, CollectorConfig::default(), &k);
        for n in &t.nodes {
            assert!(n.series[0]
                .values()
                .iter()
                .filter(|v| v.is_finite())
                .all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn prefix_equals_full_prefix() {
        let (c, sel) = setup();
        let k = GeneratorKnobs::default();
        let id = sel.ids()[0];
        let pre = materialize_prefix(&spec(), &c, &sel, CollectorConfig::default(), &k, 120);
        let full = materialize(&spec(), &c, &sel, CollectorConfig::default(), &k);
        let a = pre.series(NodeId(2), id).unwrap().values();
        let b = &full.series(NodeId(2), id).unwrap().values()[..120];
        assert_eq!(a.len(), 120);
        for (x, y) in a.iter().zip(b) {
            assert!((x == y) || (x.is_nan() && y.is_nan()));
        }
    }
}
