//! The per-(application, metric) signal model.
//!
//! Every metric stream of every run is generated as
//!
//! ```text
//! value(t) = level · input_factor · node_factor · run_jitter
//!            · init(t) · pattern(t) · ramp(t)  +  noise(t)
//! ```
//!
//! with all factors deterministic functions of (app, input, metric, node)
//! and the run seed. The structure encodes the paper's qualitative findings
//! so the experiments can *re-derive* them:
//!
//! * **Discriminability tiers** — some metrics separate applications well
//!   (the memory metrics topping the paper's Table 3), some moderately
//!   (NIC counters, 0.95–0.96), some barely (per-core jiffies), some not at
//!   all (hardware constants like `MemTotal`). Tier controls both app-level
//!   separation and noise magnitude.
//! * **SP/BT near-collision** — BT's levels are derived from SP's with a
//!   sub-percent offset on every metric, so the two NPB twins collide at
//!   shallow rounding depths and separate at deeper ones (paper §5 and
//!   Table 4; on the curated metric the offset is exactly the paper's).
//! * **Input dependence** — miniAMR's footprint scales strongly with input
//!   size, Kripke/miniMD moderately, the rest barely (paper §5: fingerprints
//!   repeat across inputs "but this does not apply to all applications,
//!   e.g. miniAMR").
//! * **Node-role asymmetry** — SP/BT drive node 0 slightly harder and the
//!   last node markedly less (Table 4's 7600/7500/7500/7100 row); LU has a
//!   mild root-node bump.
//! * **Initialization transient** — the first ~45 s start away from the
//!   steady level and decay toward it with extra noise, which is why the
//!   paper fingerprints `[60:120]` instead of `[0:60]`.

use efd_telemetry::metric::{MetricCategory, MetricInfo};
use efd_telemetry::trace::NodeId;
use efd_util::rng::{derive_seed, mix64};

use crate::apps::{AppId, InputSize};

/// How well a metric separates applications (and how noisy it is).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Clean, app-specific levels: the paper's top Table 3 metrics.
    Strong,
    /// Informative but noisier (NIC/router counters, netdev, power).
    Medium,
    /// Weak separation under heavy noise (per-core jiffies, loadavg).
    Weak,
    /// Identical on every app (hardware constants): useless for
    /// recognition, present because real catalogs carry them.
    Constant,
}

/// Metric fields that are hardware/configuration constants.
const CONSTANT_FIELDS: &[&str] = &[
    "MemTotal_meminfo",
    "SwapTotal_meminfo",
    "SwapFree_meminfo",
    "VmallocTotal_meminfo",
    "VmallocChunk_meminfo",
    "Hugepagesize_meminfo",
    "HugePages_Total_meminfo",
    "HugePages_Free_meminfo",
    "HugePages_Rsvd_meminfo",
    "HugePages_Surp_meminfo",
    "HardwareCorrupted_meminfo",
    "CommitLimit_meminfo",
    "DirectMap4k_meminfo",
    "DirectMap2M_meminfo",
    "DirectMap1G_meminfo",
    "nr_dirty_threshold_vmstat",
    "nr_dirty_background_threshold_vmstat",
    "nr_free_cma_vmstat",
];

/// Metrics pinned to [`Tier::Strong`]: the paper's Table 3 leaders.
const STRONG_METRICS: &[&str] = &[
    "nr_mapped_vmstat",
    "Committed_AS_meminfo",
    "nr_active_anon_vmstat",
    "nr_anon_pages_vmstat",
    "Active_meminfo",
    "Mapped_meminfo",
    "AnonPages_meminfo",
    "MemFree_meminfo",
    "PageTables_meminfo",
    "nr_page_table_pages_vmstat",
    "Active_anon_meminfo",
    "nr_inactive_anon_vmstat",
    "current_freemem",
];

/// The NIC counters the paper's Table 3 excerpt names (0.95–0.96): they
/// get stronger-than-Medium app separation while keeping Medium noise.
const NIC_EXCERPT: &[&str] = &[
    "AMO_PKTS_metric_set_nic",
    "AMO_FLITS_metric_set_nic",
    "PI_PKTS_metric_set_nic",
];

/// Tier of a metric (see [`Tier`]).
pub fn tier_of(info: &MetricInfo) -> Tier {
    if CONSTANT_FIELDS.contains(&info.name.as_str()) {
        return Tier::Constant;
    }
    if STRONG_METRICS.contains(&info.name.as_str()) {
        return Tier::Strong;
    }
    match info.category {
        MetricCategory::Vmstat | MetricCategory::Meminfo => match info.salt % 4 {
            0 => Tier::Strong,
            1 | 2 => Tier::Medium,
            _ => Tier::Weak,
        },
        MetricCategory::Nic | MetricCategory::Netdev | MetricCategory::Power => Tier::Medium,
        MetricCategory::Router => {
            if info.salt.is_multiple_of(2) {
                Tier::Medium
            } else {
                Tier::Weak
            }
        }
        MetricCategory::Procstat => {
            if info.name.contains("_cpu") {
                Tier::Weak
            } else {
                Tier::Medium
            }
        }
        MetricCategory::Loadavg => Tier::Weak,
        MetricCategory::Misc => Tier::Strong,
    }
}

/// Tunable generator magnitudes. Defaults reproduce the paper's shapes;
/// ablation benches sweep them.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorKnobs {
    /// Log-scale half-range of app separation for Strong metrics.
    pub sep_strong: f64,
    /// … for Medium metrics.
    pub sep_medium: f64,
    /// … for Weak metrics.
    pub sep_weak: f64,
    /// (white, drift, spike) noise relative to level, Strong tier.
    pub noise_strong: (f64, f64, f64),
    /// (white, drift, spike) relative noise, Medium tier.
    pub noise_medium: (f64, f64, f64),
    /// (white, drift, spike) relative noise, Weak tier.
    pub noise_weak: (f64, f64, f64),
    /// Relative run-to-run level jitter (Strong tier; scaled ×4 Medium,
    /// ×10 Weak).
    pub run_jitter: f64,
    /// SP→BT relative level offset half-range (the near-collision).
    pub bt_offset: f64,
    /// Use the curated `nr_mapped_vmstat` table reproducing Table 4
    /// geometry exactly.
    pub curated: bool,
}

impl Default for GeneratorKnobs {
    fn default() -> Self {
        Self {
            sep_strong: 0.28,
            sep_medium: 0.12,
            sep_weak: 0.03,
            noise_strong: (0.002, 0.0004, 0.003),
            noise_medium: (0.012, 0.0035, 0.015),
            noise_weak: (0.06, 0.03, 0.12),
            run_jitter: 0.0002,
            bt_offset: 0.004,
            curated: true,
        }
    }
}

/// Everything needed to synthesize one (run, node, metric) stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalParams {
    /// Steady level for this (app, input, metric, node) before run jitter.
    pub level: f64,
    /// Per-sample white-noise standard deviation (absolute).
    pub white_sd: f64,
    /// Stationary sd of the OU drift (absolute).
    pub drift_sd: f64,
    /// Mean spike height (absolute; 0 disables spikes).
    pub spike_height: f64,
    /// Compute-phase oscillation period (seconds; 0 disables).
    pub period_s: f64,
    /// Oscillation amplitude (absolute).
    pub period_amp: f64,
    /// Relative growth per second after the init phase (miniAMR refinement).
    pub ramp_per_s: f64,
    /// Relative level at t = 0 (decays toward 1).
    pub init_mult: f64,
    /// Init transient decay constant, seconds.
    pub init_tau_s: f64,
    /// Relative sd of the per-run level jitter (applied with the run seed).
    pub run_jitter_rel: f64,
}

/// Map a 64-bit hash to a deterministic value in `[-1, 1]`.
fn unit(h: u64) -> f64 {
    (mix64(h) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Evenly-spaced app position in `[-1, 1]` for one metric, with jitter.
///
/// Applications are genuinely *different programs*: on an informative
/// metric their levels are distinct, not iid draws that may coincide. Each
/// metric deterministically permutes the apps into 11 slots and jitters
/// within ±35% of a slot, guaranteeing pairwise separation while keeping
/// per-metric orderings independent.
fn app_slot(metric_salt: u64, app: AppId) -> f64 {
    let n = AppId::ALL.len();
    let key = |a: AppId| mix64(derive_seed(metric_salt, &[a.tag(), 0x510D]));
    let rank = AppId::ALL.iter().filter(|&&b| key(b) < key(app)).count();
    let jitter = 0.35 * unit(derive_seed(metric_salt, &[app.tag(), 0x51E6]));
    -1.0 + 2.0 * (rank as f64 + 0.5 + jitter) / n as f64
}

/// Map a 64-bit hash to `[0, 1]`.
fn unit01(h: u64) -> f64 {
    (mix64(h) >> 11) as f64 / (1u64 << 53) as f64
}

/// Curated steady levels for `nr_mapped_vmstat` (input X), reproducing the
/// paper's Table 4 geometry: values chosen so depth-2 rounding collides
/// SP/BT while depth 3 separates them, and node factors land on the
/// published cells.
fn curated_nr_mapped(app: AppId) -> f64 {
    match app {
        AppId::Ft => 6020.0,
        AppId::Mg => 6110.0,
        AppId::Sp => 7520.0,
        AppId::Lu => 8330.0,
        AppId::Bt => 7540.0,
        AppId::Cg => 6840.0,
        AppId::CoMd => 5230.0,
        AppId::MiniGhost => 7910.0,
        AppId::MiniAmr => 7820.0,
        AppId::MiniMd => 5640.0,
        AppId::Kripke => 8730.0,
    }
}

/// Strength of an app's input-size dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InputDependence {
    /// Footprint strongly tracks the input (miniAMR).
    Strong,
    /// Moderate scaling (Kripke, miniMD).
    Moderate,
    /// Nearly input-invariant (the paper's "fingerprints repeat" cases).
    Weak,
}

fn input_dependence(app: AppId) -> InputDependence {
    match app {
        AppId::MiniAmr => InputDependence::Strong,
        AppId::Kripke | AppId::MiniMd => InputDependence::Moderate,
        _ => InputDependence::Weak,
    }
}

fn input_factor(app: AppId, input: InputSize, metric: &MetricInfo) -> f64 {
    let step = input.step() as f64;
    let u = unit01(derive_seed(metric.salt, &[app.tag(), 0x1177]));
    match input_dependence(app) {
        InputDependence::Strong => {
            // Curated metric matches Table 4: X 7820 → Y ~8040 → Z ~10980.
            let per_step = [0.0, 0.028, 0.404, 0.90];
            let scale = 0.7 + 0.6 * u;
            1.0 + per_step[input.step() as usize] * scale
        }
        // Moderate (Kripke, miniMD): footprint is stable across the X/Y/Z
        // problem sizes (strong-scaling regime on a fixed 4-node
        // allocation) but jumps at L, which is a different problem *and*
        // allocation class (32 nodes) — so the hard-input experiment fails
        // on them only in its L variant.
        InputDependence::Moderate => {
            if input == InputSize::L {
                1.05 + 0.08 * u
            } else {
                1.0 + step * 0.0009 * u
            }
        }
        // Sub-grain at depth 3: the paper's "fingerprints repeat even for
        // different application input sizes" cases.
        InputDependence::Weak => 1.0 + step * 0.0008 * u,
    }
}

fn node_factor(app: AppId, node: NodeId, n_nodes: u16) -> f64 {
    let last = n_nodes.saturating_sub(1);
    match app {
        // SP/BT: root coordinates harder, the last rank is under-filled
        // (paper Table 4: 7600 / 7500 / 7500 / 7100).
        AppId::Sp | AppId::Bt => {
            if node.0 == 0 {
                1.013
            } else if node.0 == last && n_nodes > 1 {
                0.947
            } else {
                1.0
            }
        }
        // LU: mild root-node bump (Table 4: 8400 vs 8300).
        AppId::Lu if node.0 == 0 => 1.012,
        _ => 1.0,
    }
}

/// Steady level for (app, input, metric, node) — the heart of the model.
pub fn steady_level(
    app: AppId,
    input: InputSize,
    metric: &MetricInfo,
    node: NodeId,
    n_nodes: u16,
    knobs: &GeneratorKnobs,
) -> f64 {
    let tier = tier_of(metric);
    if tier == Tier::Constant {
        // Hardware constants: same value regardless of app, input, or node.
        return metric.base_scale;
    }
    let base = if knobs.curated && metric.name == "nr_mapped_vmstat" {
        curated_nr_mapped(app)
    } else {
        let sep = if NIC_EXCERPT.contains(&metric.name.as_str()) {
            0.20
        } else {
            match tier {
                Tier::Strong => knobs.sep_strong,
                Tier::Medium => knobs.sep_medium,
                Tier::Weak => knobs.sep_weak,
                Tier::Constant => 0.0,
            }
        };
        // BT's level is SP's with a small metric-specific offset: the NPB
        // twins stay within a rounding grain of each other everywhere.
        let (level_app, twin_offset) = if app == AppId::Bt {
            (
                AppId::Sp,
                knobs.bt_offset * unit(derive_seed(metric.salt, &[AppId::Bt.tag(), 0x7717])),
            )
        } else {
            (app, 0.0)
        };
        let g = app_slot(metric.salt, level_app);
        metric.base_scale * (sep * g).exp() * (1.0 + twin_offset)
    };
    base * input_factor(app, input, metric) * node_factor(app, node, n_nodes)
}

/// Full signal parameters for (app, input, metric, node).
pub fn signal_params(
    app: AppId,
    input: InputSize,
    metric: &MetricInfo,
    node: NodeId,
    n_nodes: u16,
    knobs: &GeneratorKnobs,
) -> SignalParams {
    let tier = tier_of(metric);
    let level = steady_level(app, input, metric, node, n_nodes, knobs);

    let (white_rel, drift_rel, spike_rel) = match tier {
        Tier::Strong => knobs.noise_strong,
        Tier::Medium => knobs.noise_medium,
        Tier::Weak => knobs.noise_weak,
        // Constants still carry sensor LSB noise so means are not exactly
        // integral — rounding must still do work.
        Tier::Constant => (1e-6, 0.0, 0.0),
    };
    let run_jitter_rel = match tier {
        Tier::Strong => knobs.run_jitter,
        Tier::Medium => knobs.run_jitter * 4.0,
        Tier::Weak => knobs.run_jitter * 10.0,
        Tier::Constant => 0.0,
    };

    // Compute-phase oscillation for the iterative solvers.
    let (period_s, period_amp_rel) = match app {
        AppId::Sp | AppId::Bt | AppId::Lu | AppId::Cg | AppId::Mg => {
            let p = 15.0 + 25.0 * unit01(derive_seed(metric.salt, &[app.tag(), 0x9e51]));
            (p, 0.003)
        }
        AppId::Kripke => (60.0, 0.006),
        _ => (0.0, 0.0),
    };

    // miniAMR refines its mesh over time: slow upward ramp.
    let ramp_per_s = if app == AppId::MiniAmr { 3.0e-4 } else { 0.0 };

    // Init transient: app/metric-specific starting point, ~6–10 s decay.
    // The decay must be fast enough that the residual inside [60:120] is
    // below the rounding grain (<0.05% of level), else the transient —
    // not the steady level — would set the fingerprint.
    let init_mult = if tier == Tier::Constant {
        1.0
    } else {
        1.0 + 0.75 * unit(derive_seed(metric.salt, &[app.tag(), 0x1817]))
    };
    let init_tau_s = 6.0 + 4.0 * unit01(derive_seed(metric.salt, &[app.tag(), 0x7A40]));

    SignalParams {
        level,
        white_sd: level.abs() * white_rel,
        drift_sd: level.abs() * drift_rel,
        spike_height: level.abs() * spike_rel,
        period_s,
        period_amp: level.abs() * period_amp_rel,
        ramp_per_s,
        init_mult,
        init_tau_s,
        run_jitter_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_telemetry::catalog::taxonomist_catalog;
    use efd_telemetry::MetricCatalog;

    fn catalog() -> MetricCatalog {
        taxonomist_catalog()
    }

    fn nr_mapped(c: &MetricCatalog) -> MetricInfo {
        c.info(c.id("nr_mapped_vmstat").unwrap()).clone()
    }

    #[test]
    fn curated_levels_reproduce_table4_geometry() {
        let c = catalog();
        let m = nr_mapped(&c);
        let k = GeneratorKnobs::default();
        // SP on 4 nodes: 7620 / 7520 / 7520 / 7121 — the Table 4 row once
        // rounded at depth 2 (7600/7500/7500/7100).
        let sp: Vec<f64> = (0..4)
            .map(|n| steady_level(AppId::Sp, InputSize::X, &m, NodeId(n), 4, &k))
            .collect();
        assert!((sp[0] - 7617.76).abs() < 0.1, "sp node0 {}", sp[0]);
        assert_eq!(sp[1], 7520.0);
        assert_eq!(sp[2], 7520.0);
        assert!((sp[3] - 7121.44).abs() < 0.1, "sp node3 {}", sp[3]);

        // BT stays within the same depth-2 grain (collision) but a
        // different depth-3 grain (separation).
        let bt0 = steady_level(AppId::Bt, InputSize::X, &m, NodeId(0), 4, &k);
        assert!((bt0 - 7638.02).abs() < 0.1, "bt node0 {bt0}");
        // Same hundred (7600), different ten (7620 vs 7640).
        assert_eq!((sp[0] / 100.0).round(), (bt0 / 100.0).round());
        assert_ne!((sp[0] / 10.0).round(), (bt0 / 10.0).round());
    }

    #[test]
    fn miniamr_is_strongly_input_dependent() {
        let c = catalog();
        let m = nr_mapped(&c);
        let k = GeneratorKnobs::default();
        let lv = |i| steady_level(AppId::MiniAmr, i, &m, NodeId(0), 4, &k);
        let (x, y, z) = (lv(InputSize::X), lv(InputSize::Y), lv(InputSize::Z));
        assert!(y / x > 1.015, "Y/X = {}", y / x);
        assert!(z / x > 1.25, "Z/X = {}", z / x);
        // Table 4 ballpark: X≈7800, Y≈8000, Z≈11000.
        assert!((7750.0..7900.0).contains(&x), "X level {x}");
        assert!((7950.0..8150.0).contains(&y), "Y level {y}");
        assert!((10000.0..12000.0).contains(&z), "Z level {z}");
    }

    #[test]
    fn npb_apps_are_nearly_input_invariant() {
        let c = catalog();
        let m = nr_mapped(&c);
        let k = GeneratorKnobs::default();
        for app in [
            AppId::Ft,
            AppId::Mg,
            AppId::Sp,
            AppId::Lu,
            AppId::Bt,
            AppId::Cg,
        ] {
            let x = steady_level(app, InputSize::X, &m, NodeId(1), 4, &k);
            let z = steady_level(app, InputSize::Z, &m, NodeId(1), 4, &k);
            assert!((z / x - 1.0).abs() < 0.005, "{app}: Z/X = {}", z / x);
        }
    }

    #[test]
    fn bt_tracks_sp_on_every_metric() {
        let c = catalog();
        let k = GeneratorKnobs::default();
        let mut max_rel = 0.0f64;
        for id in c.ids() {
            let m = c.info(id);
            if tier_of(m) == Tier::Constant {
                continue;
            }
            let sp = steady_level(AppId::Sp, InputSize::X, m, NodeId(1), 4, &k);
            let bt = steady_level(AppId::Bt, InputSize::X, m, NodeId(1), 4, &k);
            let rel = (bt / sp - 1.0).abs();
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel < 0.006, "BT strays {max_rel} from SP");
    }

    #[test]
    fn constants_are_app_independent() {
        let c = catalog();
        let m = c.info(c.id("MemTotal_meminfo").unwrap()).clone();
        assert_eq!(tier_of(&m), Tier::Constant);
        let k = GeneratorKnobs::default();
        let levels: Vec<f64> = AppId::ALL
            .iter()
            .map(|&a| steady_level(a, InputSize::X, &m, NodeId(0), 4, &k))
            .collect();
        for w in levels.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn table3_leaders_are_strong_tier() {
        let c = catalog();
        for name in [
            "nr_mapped_vmstat",
            "Committed_AS_meminfo",
            "nr_active_anon_vmstat",
            "nr_anon_pages_vmstat",
        ] {
            let m = c.info(c.id(name).unwrap());
            assert_eq!(tier_of(m), Tier::Strong, "{name}");
        }
        // NIC counters are Medium (paper: 0.95–0.96, below the leaders).
        let nic = c.info(c.id("AMO_PKTS_metric_set_nic").unwrap());
        assert_eq!(tier_of(nic), Tier::Medium);
    }

    #[test]
    fn node_asymmetry_only_where_paper_reports_it() {
        let c = catalog();
        let m = nr_mapped(&c);
        let k = GeneratorKnobs::default();
        for app in [AppId::Ft, AppId::Mg, AppId::MiniGhost, AppId::MiniAmr] {
            let levels: Vec<f64> = (0..4)
                .map(|n| steady_level(app, InputSize::X, &m, NodeId(n), 4, &k))
                .collect();
            for w in levels.windows(2) {
                assert_eq!(w[0], w[1], "{app} should be node-uniform");
            }
        }
        let lu0 = steady_level(AppId::Lu, InputSize::X, &m, NodeId(0), 4, &k);
        let lu1 = steady_level(AppId::Lu, InputSize::X, &m, NodeId(1), 4, &k);
        assert!(lu0 > lu1, "LU root-node bump missing");
    }

    #[test]
    fn signal_params_scale_with_tier() {
        let c = catalog();
        let k = GeneratorKnobs::default();
        let strong = c.info(c.id("nr_mapped_vmstat").unwrap());
        let weak = c.info(c.id("load1_loadavg").unwrap());
        let ps = signal_params(AppId::Ft, InputSize::X, strong, NodeId(0), 4, &k);
        let pw = signal_params(AppId::Ft, InputSize::X, weak, NodeId(0), 4, &k);
        assert!(ps.white_sd / ps.level < pw.white_sd / pw.level);
        assert!(ps.drift_sd / ps.level < pw.drift_sd / pw.level);
        assert!(ps.init_tau_s >= 6.0 && ps.init_tau_s <= 10.0);
    }

    #[test]
    fn miniamr_has_ramp_others_do_not() {
        let c = catalog();
        let m = nr_mapped(&c);
        let k = GeneratorKnobs::default();
        let amr = signal_params(AppId::MiniAmr, InputSize::X, &m, NodeId(0), 4, &k);
        let ft = signal_params(AppId::Ft, InputSize::X, &m, NodeId(0), 4, &k);
        assert!(amr.ramp_per_s > 0.0);
        assert_eq!(ft.ramp_per_s, 0.0);
    }

    #[test]
    fn deterministic_across_calls() {
        let c = catalog();
        let m = nr_mapped(&c);
        let k = GeneratorKnobs::default();
        let a = signal_params(AppId::Cg, InputSize::Y, &m, NodeId(2), 4, &k);
        let b = signal_params(AppId::Cg, InputSize::Y, &m, NodeId(2), 4, &k);
        assert_eq!(a, b);
    }
}
