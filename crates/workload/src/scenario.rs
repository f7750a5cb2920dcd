//! Adversarial and drift scenarios: named perturbations of the clean dataset.
//!
//! The paper's Table 2 evaluates recognition on clean, in-distribution
//! runs; the surrounding literature is adversarial — cryptomining
//! masquerade ("Using Malware Detection Techniques for HPC Application
//! Classification"), recognition under production drift (SIREN). This
//! module turns those threat models into *named, parameterized, seeded*
//! perturbations of the generated dataset, so every engine backend can be
//! scored on the same hostile inputs:
//!
//! | Scenario | Perturbation | Ground truth of perturbed runs |
//! |---|---|---|
//! | `cryptomining-masquerade` | injects miner runs whose window means interpolate from an out-of-dictionary level toward a victim run's fingerprint keys (fidelity = intensity) | should abstain ([`ScenarioRun::truth`] = `None`) |
//! | `metric-dropout` | each test node's window mean is lost (NaN) with probability = intensity — sensor faults, whole-metric loss | the original application |
//! | `node-heterogeneity` | systematic per-node scaling of interval values (up to ±5% at intensity 1) — hardware skew between nodes | the original application |
//! | `input-extrapolation` | all test means scaled up (up to +25%) — input sizes outside the learned range | the original application |
//! | `concept-drift` | gradual fingerprint shift over the ordered test sequence (up to +35% by the end), with [`ScenarioRun::relearn`] marking the online-relearning arm | the original application |
//!
//! Everything is a pure function of ([`CleanRuns`], [`ScenarioSpec`]):
//! two processes building the same spec get bit-identical scenario data.
//! The **null-perturbation invariant** is load-bearing and property-tested:
//! at `intensity == 0.0` every scenario's test means are *byte-identical*
//! to the clean dataset (`1.0 + 0.0·x == 1.0` exactly, `m · 1.0 == m`
//! bit-exact for finite `m`, zero injected runs, zero dropout draws).

use efd_telemetry::trace::MetricSelection;
use efd_telemetry::{AppLabel, Interval, MetricId};
use efd_util::rng::{derive_seed, str_tag, SplitMix64};

use crate::dataset::Dataset;

/// Maximum relative scale of `node-heterogeneity` at intensity 1.
pub const HETEROGENEITY_MAX: f64 = 0.05;
/// Relative scale-up of `input-extrapolation` at intensity 1.
pub const EXTRAPOLATION_MAX: f64 = 0.25;
/// Relative fingerprint shift reached by the *last* drifted run at
/// intensity 1 (`concept-drift` ramps linearly from ~0 to this).
pub const DRIFT_MAX: f64 = 0.35;
/// Miner runs injected by `cryptomining-masquerade` at intensity 1.
pub const MASQUERADE_MAX_MINERS: usize = 16;

/// A named perturbation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// A cryptominer mimicking a victim application's fingerprint keys.
    CryptominingMasquerade,
    /// Per-run random loss of whole per-node metrics (sensor faults).
    MetricDropout,
    /// Systematic per-node scaling of interval values.
    NodeHeterogeneity,
    /// Test inputs outside the learned size range.
    InputExtrapolation,
    /// Gradual fingerprint shift over an ordered run sequence.
    ConceptDrift,
}

impl ScenarioKind {
    /// Every scenario, in canonical (report) order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::CryptominingMasquerade,
        ScenarioKind::MetricDropout,
        ScenarioKind::NodeHeterogeneity,
        ScenarioKind::InputExtrapolation,
        ScenarioKind::ConceptDrift,
    ];

    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::CryptominingMasquerade => "cryptomining-masquerade",
            ScenarioKind::MetricDropout => "metric-dropout",
            ScenarioKind::NodeHeterogeneity => "node-heterogeneity",
            ScenarioKind::InputExtrapolation => "input-extrapolation",
            ScenarioKind::ConceptDrift => "concept-drift",
        }
    }

    /// Parse a CLI / report name.
    pub fn parse(name: &str) -> Option<ScenarioKind> {
        ScenarioKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One fully-determined scenario instance.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Which perturbation axis.
    pub kind: ScenarioKind,
    /// Perturbation intensity in `[0, 1]`; `0.0` is the clean dataset.
    pub intensity: f64,
    /// Scenario seed — drives miner placement, dropout draws, node skew.
    /// Independent of the dataset's master seed.
    pub seed: u64,
}

/// The clean dataset reduced to the scenario substrate: per-run ground
/// truth plus per-node window means over one metric/interval — computed
/// once, then perturbed cheaply per ([`ScenarioKind`], intensity, seed).
#[derive(Debug, Clone)]
pub struct CleanRuns {
    /// Ground-truth label per run, aligned with [`CleanRuns::means`].
    pub labels: Vec<AppLabel>,
    /// Per-run, per-node window means: `means[run][node]`.
    pub means: Vec<Vec<f64>>,
}

impl CleanRuns {
    /// Materialize the scenario substrate from a dataset (the same data
    /// diet as the evaluation harness: one metric, one window).
    pub fn from_dataset(dataset: &Dataset, metric: MetricId, interval: Interval) -> CleanRuns {
        let sel = MetricSelection::single(metric);
        let means = dataset
            .window_means_all(&sel, interval)
            .into_iter()
            .map(|per_node| per_node.into_iter().map(|m| m[0]).collect())
            .collect();
        CleanRuns {
            labels: dataset.labels(),
            means,
        }
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.means.len()
    }

    /// Whether the substrate is empty.
    pub fn is_empty(&self) -> bool {
        self.means.is_empty()
    }
}

/// The canonical train/test split used by every scenario: run `i` is a
/// test run iff `i % 5 == 0` (the idiom the engine tests use). Returns
/// `(train, test)` index lists into [`CleanRuns`].
pub fn split(n_runs: usize) -> (Vec<usize>, Vec<usize>) {
    let train = (0..n_runs).filter(|i| i % 5 != 0).collect();
    let test = (0..n_runs).filter(|i| i % 5 == 0).collect();
    (train, test)
}

/// One (possibly perturbed) run presented to a backend.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// Ground truth: `Some(label)` when a correct system should recognize
    /// the application, `None` when it should *abstain* (out-of-dictionary
    /// execution, e.g. an injected miner).
    pub truth: Option<AppLabel>,
    /// Concept-drift only: after scoring this run, the online-relearning
    /// arm learns it (labeled with `truth`) into the live dictionary.
    pub relearn: bool,
    /// Per-node window means. `NaN` marks a lost sensor (`metric-dropout`);
    /// consumers must skip non-finite points when building queries.
    pub means: Vec<f64>,
}

/// A built scenario: clean training runs plus the (perturbed) ordered
/// test sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioData {
    /// Training runs — always clean, always labeled.
    pub train: Vec<ScenarioRun>,
    /// Test runs, in scenario order (meaningful for `concept-drift`).
    pub test: Vec<ScenarioRun>,
}

/// Build a scenario from the clean substrate.
///
/// Deterministic: identical `(clean, spec)` produce identical output.
/// At `spec.intensity == 0.0` the test means are byte-identical to the
/// clean dataset (see the module docs).
///
/// # Panics
///
/// Panics if `spec.intensity` is not finite in `[0, 1]`.
pub fn build(clean: &CleanRuns, spec: &ScenarioSpec) -> ScenarioData {
    assert!(
        spec.intensity.is_finite() && (0.0..=1.0).contains(&spec.intensity),
        "scenario intensity must be in [0, 1], got {}",
        spec.intensity
    );
    let (train_idx, test_idx) = split(clean.len());
    let train = train_idx
        .iter()
        .map(|&i| ScenarioRun {
            truth: Some(clean.labels[i].clone()),
            relearn: false,
            means: clean.means[i].clone(),
        })
        .collect();
    let mut test: Vec<ScenarioRun> = test_idx
        .iter()
        .map(|&i| ScenarioRun {
            truth: Some(clean.labels[i].clone()),
            relearn: false,
            means: clean.means[i].clone(),
        })
        .collect();

    match spec.kind {
        ScenarioKind::CryptominingMasquerade => {
            let n_victims = test.len();
            let n_miners = (spec.intensity * MASQUERADE_MAX_MINERS as f64).round() as usize;
            for k in 0..n_miners {
                let mut rng =
                    SplitMix64::new(derive_seed(spec.seed, &[str_tag("masquerade"), k as u64]));
                let victim = (rng.next_u64() % n_victims as u64) as usize;
                let means = test[victim]
                    .means
                    .iter()
                    .map(|&v| {
                        if !v.is_finite() {
                            return v;
                        }
                        // Base level: far outside every learned footprint;
                        // intensity interpolates toward the victim's keys
                        // (this lerp form reproduces `v` bit-exactly at
                        // intensity 1 — a perfect masquerade).
                        let base = v * (3.0 + rng.next_f64());
                        base * (1.0 - spec.intensity) + v * spec.intensity
                    })
                    .collect();
                test.push(ScenarioRun {
                    truth: None,
                    relearn: false,
                    means,
                });
            }
        }
        ScenarioKind::MetricDropout => {
            for (t, run) in test.iter_mut().enumerate() {
                let mut rng =
                    SplitMix64::new(derive_seed(spec.seed, &[str_tag("dropout"), t as u64]));
                for m in run.means.iter_mut() {
                    if rng.next_f64() < spec.intensity {
                        *m = f64::NAN;
                    }
                }
            }
        }
        ScenarioKind::NodeHeterogeneity => {
            for run in test.iter_mut() {
                for (n, m) in run.means.iter_mut().enumerate() {
                    if !m.is_finite() {
                        continue;
                    }
                    let mut rng =
                        SplitMix64::new(derive_seed(spec.seed, &[str_tag("hetero"), n as u64]));
                    let skew = 2.0 * rng.next_f64() - 1.0;
                    *m *= 1.0 + spec.intensity * HETEROGENEITY_MAX * skew;
                }
            }
        }
        ScenarioKind::InputExtrapolation => {
            let factor = 1.0 + spec.intensity * EXTRAPOLATION_MAX;
            for run in test.iter_mut() {
                for m in run.means.iter_mut() {
                    if m.is_finite() {
                        *m *= factor;
                    }
                }
            }
        }
        ScenarioKind::ConceptDrift => {
            let n = test.len().max(1);
            for (p, run) in test.iter_mut().enumerate() {
                let ramp = (p + 1) as f64 / n as f64;
                let factor = 1.0 + spec.intensity * DRIFT_MAX * ramp;
                for m in run.means.iter_mut() {
                    if m.is_finite() {
                        *m *= factor;
                    }
                }
                run.relearn = true;
            }
        }
    }
    ScenarioData { train, test }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetSpec};
    use efd_telemetry::catalog::small_catalog;

    fn substrate() -> CleanRuns {
        let d = Dataset::with_catalog(DatasetSpec::default(), small_catalog());
        let metric = d.catalog().id("nr_mapped_vmstat").unwrap();
        CleanRuns::from_dataset(&d, metric, Interval::PAPER_DEFAULT)
    }

    fn spec(kind: ScenarioKind, intensity: f64) -> ScenarioSpec {
        ScenarioSpec {
            kind,
            intensity,
            seed: 9,
        }
    }

    #[test]
    fn names_round_trip() {
        for k in ScenarioKind::ALL {
            assert_eq!(ScenarioKind::parse(k.name()), Some(k));
        }
        assert_eq!(ScenarioKind::parse("nope"), None);
    }

    #[test]
    fn split_partitions_every_run() {
        let (train, test) = split(10);
        assert_eq!(test, vec![0, 5]);
        assert_eq!(train.len() + test.len(), 10);
    }

    #[test]
    fn builds_are_deterministic() {
        // Bit-level comparison: `PartialEq` on f64 would fail on the NaNs
        // metric-dropout plants on purpose.
        let bits = |d: &ScenarioData| -> Vec<(Option<AppLabel>, bool, Vec<u64>)> {
            d.test
                .iter()
                .map(|r| {
                    (
                        r.truth.clone(),
                        r.relearn,
                        r.means.iter().map(|m| m.to_bits()).collect(),
                    )
                })
                .collect()
        };
        let clean = substrate();
        for kind in ScenarioKind::ALL {
            let a = build(&clean, &spec(kind, 0.7));
            let b = build(&clean, &spec(kind, 0.7));
            assert_eq!(bits(&a), bits(&b), "{kind}");
        }
    }

    #[test]
    fn masquerade_injects_abstention_targets() {
        let clean = substrate();
        let data = build(&clean, &spec(ScenarioKind::CryptominingMasquerade, 0.5));
        let miners: Vec<_> = data.test.iter().filter(|r| r.truth.is_none()).collect();
        assert_eq!(miners.len(), 8, "round(0.5 * 16) miners");
        for m in miners {
            assert!(m.means.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn masquerade_fidelity_scales_with_intensity() {
        let clean = substrate();
        let near = build(&clean, &spec(ScenarioKind::CryptominingMasquerade, 1.0));
        let far = build(&clean, &spec(ScenarioKind::CryptominingMasquerade, 0.5));
        // At intensity 1 the first miner sits exactly on its victim's keys.
        let miner = near.test.iter().find(|r| r.truth.is_none()).unwrap();
        assert!(near
            .test
            .iter()
            .filter(|r| r.truth.is_some())
            .any(|v| v.means == miner.means));
        // At intensity 0.5 no miner coincides with any victim.
        let miner = far.test.iter().find(|r| r.truth.is_none()).unwrap();
        assert!(!far
            .test
            .iter()
            .filter(|r| r.truth.is_some())
            .any(|v| v.means == miner.means));
    }

    #[test]
    fn dropout_rate_tracks_intensity() {
        let clean = substrate();
        let data = build(&clean, &spec(ScenarioKind::MetricDropout, 0.5));
        let (lost, total) = data.test.iter().fold((0usize, 0usize), |(l, t), r| {
            (
                l + r.means.iter().filter(|m| m.is_nan()).count(),
                t + r.means.len(),
            )
        });
        let rate = lost as f64 / total as f64;
        assert!((0.35..=0.65).contains(&rate), "dropout rate {rate}");
        for r in &data.test {
            assert!(r.truth.is_some(), "dropout keeps ground truth");
        }
    }

    #[test]
    fn heterogeneity_is_systematic_per_node() {
        let clean = substrate();
        let data = build(&clean, &spec(ScenarioKind::NodeHeterogeneity, 1.0));
        let (_, test_idx) = split(clean.len());
        // Same node index ⇒ same relative skew, across every run.
        let mut per_node: Vec<Option<f64>> = Vec::new();
        for (run, &i) in data.test.iter().zip(&test_idx) {
            for (n, (&p, &c)) in run.means.iter().zip(&clean.means[i]).enumerate() {
                if c == 0.0 {
                    continue;
                }
                let skew = p / c;
                assert!((skew - 1.0).abs() <= HETEROGENEITY_MAX + 1e-12);
                if per_node.len() <= n {
                    per_node.resize(n + 1, None);
                }
                match per_node[n] {
                    None => per_node[n] = Some(skew),
                    Some(s) => assert!((s - skew).abs() < 1e-12, "node {n}"),
                }
            }
        }
    }

    #[test]
    fn drift_ramps_monotonically_and_marks_relearn() {
        let clean = substrate();
        let data = build(&clean, &spec(ScenarioKind::ConceptDrift, 1.0));
        let (_, test_idx) = split(clean.len());
        let mut last = 0.0f64;
        for (run, &i) in data.test.iter().zip(&test_idx) {
            assert!(run.relearn);
            let c = clean.means[i][0];
            if c == 0.0 {
                continue;
            }
            let factor = run.means[0] / c;
            assert!(factor >= last - 1e-12, "ramp not monotone");
            last = factor;
        }
        assert!(
            (last - (1.0 + DRIFT_MAX)).abs() < 1e-9,
            "final factor {last}"
        );
    }

    #[test]
    fn intensity_zero_is_byte_identical_to_clean() {
        let clean = substrate();
        let (_, test_idx) = split(clean.len());
        for kind in ScenarioKind::ALL {
            let data = build(&clean, &spec(kind, 0.0));
            assert_eq!(data.test.len(), test_idx.len(), "{kind}: no injected runs");
            for (run, &i) in data.test.iter().zip(&test_idx) {
                for (&a, &b) in run.means.iter().zip(&clean.means[i]) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{kind}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "intensity")]
    fn rejects_out_of_range_intensity() {
        let clean = CleanRuns {
            labels: vec![],
            means: vec![],
        };
        build(&clean, &spec(ScenarioKind::MetricDropout, 1.5));
    }
}
