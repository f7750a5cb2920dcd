//! The scenario × backend robustness matrix.
//!
//! `efd_workload::scenario` builds the hostile inputs; this module runs
//! them against **every** engine backend — the whole dictionary family
//! (in-memory oracle, snapshot, combo, WAL-recovered) and
//! the ml family (forest / kNN / Gaussian NB) — and
//! scores each cell with [`crate::scoring`]'s abstention-quality metrics.
//!
//! The plumbing is the engine API end to end: [`fit_backend`] has an
//! [`EngineClassifier`] build each [`BackendKind`] from the training
//! observations as an `Arc<dyn Recognize + Send + Sync>`, and
//! [`run_cell`] scores any of them. Two arms exist only here — the
//! in-memory oracle and the WAL-recovered store (which round-trips
//! through close-and-recover); every other arm is a registry
//! [`Backend`], built by [`train_backend`], the same build `efd evaluate
//! --classifier knn|gaussian-nb` runs. Dictionary-family cells must
//! produce identical verdict histograms — the conformance suite pins
//! that on the masquerade scenario.
//!
//! [`drift_relearn`] is the online-relearning arm of `concept-drift`: the
//! drifted test sequence is answered by the store a `--wal` daemon
//! serves, a [`DurableDictionary`], and each run flagged for relearning
//! is learned into it after its verdict — the next run sees it, as a
//! daemon's `LEARNED` reply promises.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use efd_core::engine::{Recognize, VoteScratch};
use efd_core::wal::WalOptions;
use efd_core::{EfdDictionary, LabeledObservation, ObsPoint, Query, RoundingDepth};
use efd_serve::{Backend, DurableDictionary};
use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::{Interval, MetricId, NodeId};
use efd_workload::scenario::{split, ScenarioData};
use efd_workload::Dataset;

use crate::classifier::ExecutionClassifier;
use crate::engine::EngineClassifier;
use crate::scoring::{score, AbstentionReport, ScoredQuery};

/// Rounding depth of every dictionary-family arm.
pub const DEPTH: u8 = 2;
/// Neighbours of the matrix's (and `efd evaluate`'s) kNN.
pub const KNN_K: usize = 5;
/// Abstention threshold of the matrix's (and `efd evaluate`'s) ml
/// backends.
pub const ML_CONFIDENCE: f64 = 0.5;

/// Every backend the matrix can run a scenario against: the two
/// harness-only arms, and the registry's backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The single-threaded in-memory oracle ([`EfdDictionary`]).
    Dict,
    /// WAL-backed [`DurableDictionary`], closed and *recovered* before
    /// serving — every cell also exercises the durability path.
    Wal,
    /// A registry backend, built by [`train_backend`].
    Served(Backend),
}

impl BackendKind {
    /// Every backend, in canonical (report) order.
    pub const ALL: [BackendKind; 7] = [
        BackendKind::Dict,
        BackendKind::Served(Backend::Snapshot),
        BackendKind::Served(Backend::Combo),
        BackendKind::Wal,
        BackendKind::Served(Backend::Forest),
        BackendKind::Served(Backend::Knn { k: KNN_K }),
        BackendKind::Served(Backend::GaussianNb),
    ];

    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Dict => "dict",
            BackendKind::Wal => "wal",
            BackendKind::Served(b) => b.name(),
        }
    }

    /// Parse a CLI / report name.
    pub fn parse(name: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Whether this backend answers with the dictionary family's exact
    /// vote semantics (identical verdict histograms required) rather than
    /// the ml family's confidence-threshold semantics.
    pub fn dictionary_family(self) -> bool {
        matches!(
            self,
            BackendKind::Dict
                | BackendKind::Wal
                | BackendKind::Served(Backend::Snapshot | Backend::Combo)
        )
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Distinguishes concurrent WAL scratch directories within one process.
static WAL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A WAL directory of its own under the system temp dir, removed on
/// drop: where the `wal` and relearning arms keep their store.
struct ScratchWal(PathBuf);

impl ScratchWal {
    fn new() -> ScratchWal {
        let dir = std::env::temp_dir().join(format!(
            "efd-scenario-wal-{}-{}",
            std::process::id(),
            WAL_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchWal(dir)
    }

    /// Open — or, when it already holds a log, recover — the store a
    /// `--wal` daemon serves, at [`DEPTH`]; `catalog` resolves metric
    /// names for the log's bytes.
    fn open(&self, catalog: &MetricCatalog) -> DurableDictionary {
        let depth = RoundingDepth::new(DEPTH);
        DurableDictionary::open(&self.0, depth, catalog, WalOptions::default())
            .expect("open scratch WAL")
            .0
    }
}

impl Drop for ScratchWal {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `backend` built by the registry from the training `observations`: a
/// dictionary store learns them at [`DEPTH`], an ml backend trains on
/// them and abstains below [`ML_CONFIDENCE`]. Every registry arm of the
/// matrix and `efd evaluate --classifier knn|gaussian-nb` build here.
pub fn train_backend(
    backend: Backend,
    observations: &[LabeledObservation],
) -> Arc<dyn Recognize + Send + Sync> {
    backend
        .fit(observations, RoundingDepth::new(DEPTH), ML_CONFIDENCE)
        .unwrap_or_else(|e| panic!("{backend}: {e}"))
}

/// `kind` built from the training `observations`; `catalog` resolves
/// metric names for the WAL's bytes. The WAL arm writes a real log in a
/// scratch directory, closes it, and *recovers* — the answer path is the
/// one a crash-restarted server would take.
fn build_backend(
    kind: BackendKind,
    catalog: &MetricCatalog,
    observations: &[LabeledObservation],
) -> Arc<dyn Recognize + Send + Sync> {
    let depth = RoundingDepth::new(DEPTH);
    match kind {
        BackendKind::Dict => {
            let mut d = EfdDictionary::new(depth);
            d.learn_all(observations);
            Arc::new(d)
        }
        BackendKind::Served(backend) => train_backend(backend, observations),
        BackendKind::Wal => {
            let wal = ScratchWal::new();
            {
                let served = wal.open(catalog);
                for obs in observations {
                    served.learn(obs).expect("WAL learn");
                }
                served.sync().expect("WAL sync");
            }
            // Reopen: the serving state is the *recovered* one.
            let recovered = wal.open(catalog);
            Arc::new(recovered.dictionary().snapshot())
        }
    }
}

/// A query over one run's per-node means; non-finite means (dropped
/// sensors) are skipped, preserving the node identity of the rest.
pub fn query_from_means(metric: MetricId, interval: Interval, means: &[f64]) -> Query {
    Query {
        points: means
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_finite())
            .map(|(n, &mean)| ObsPoint {
                metric,
                node: NodeId(n as u16),
                interval,
                mean,
            })
            .collect(),
    }
}

/// `backend` fitted on the dataset's canonical clean training split (run
/// `i` trains iff `i % 5 != 0` — the same split every scenario's test
/// sequence is built against), via [`EngineClassifier`], the adapter
/// every engine backend shares.
pub fn fit_backend(
    backend: BackendKind,
    dataset: &Dataset,
    metric: MetricId,
    interval: Interval,
) -> Arc<dyn Recognize + Send + Sync> {
    let catalog = dataset.catalog();
    let mut clf = EngineClassifier::with_interval(backend.name(), metric, interval, |train| {
        build_backend(backend, catalog, train)
    });
    let (train_idx, _) = split(dataset.len());
    clf.fit(dataset, &train_idx);
    Arc::clone(clf.engine().expect("fitted"))
}

/// Score one matrix cell: every test run of `data` recognized by the
/// fitted `engine`, abstention-quality metrics over the verdicts.
pub fn run_cell(
    engine: &dyn Recognize,
    data: &ScenarioData,
    metric: MetricId,
    interval: Interval,
) -> AbstentionReport {
    let mut scratch = VoteScratch::default();
    let scored: Vec<ScoredQuery> = data
        .test
        .iter()
        .map(|run| {
            let q = query_from_means(metric, interval, &run.means);
            let r = engine.recognize_into(&q, &mut scratch);
            ScoredQuery::from_recognition(run.truth.as_ref().map(|l| l.app.as_str()), &r)
        })
        .collect();
    score(&scored)
}

/// The online-relearning arm of `concept-drift`.
///
/// Serves the drifted test sequence the way a `--wal` daemon would: the
/// training runs are learned into a [`DurableDictionary`] (in a scratch
/// directory; `catalog` resolves metric names for its log), then each
/// test run is answered from it and scored, and — when flagged
/// [`relearn`](efd_workload::scenario::ScenarioRun::relearn) — learned
/// with its ground truth, so the next run is answered with it.
///
/// Returns the arm's report; compare against the static cell from
/// [`run_cell`] to see what relearning buys under drift.
pub fn drift_relearn(
    catalog: &MetricCatalog,
    data: &ScenarioData,
    metric: MetricId,
    interval: Interval,
) -> AbstentionReport {
    let wal = ScratchWal::new();
    let store = wal.open(catalog);
    for run in &data.train {
        let label = run.truth.clone().expect("training runs are labeled");
        let query = query_from_means(metric, interval, &run.means);
        store
            .learn(&LabeledObservation { label, query })
            .expect("WAL learn");
    }

    let mut scratch = VoteScratch::default();
    let mut scored = Vec::with_capacity(data.test.len());
    for run in &data.test {
        let query = query_from_means(metric, interval, &run.means);
        let r = store.recognize_into(&query, &mut scratch);
        scored.push(ScoredQuery::from_recognition(
            run.truth.as_ref().map(|l| l.app.as_str()),
            &r,
        ));
        if let (true, Some(label)) = (run.relearn, &run.truth) {
            let label = label.clone();
            store
                .learn(&LabeledObservation { label, query })
                .expect("WAL learn");
        }
    }
    score(&scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_telemetry::catalog::small_catalog;
    use efd_workload::scenario::{build, CleanRuns, ScenarioKind, ScenarioSpec};
    use efd_workload::{Dataset, DatasetSpec};

    fn fixture() -> (Dataset, MetricId, CleanRuns) {
        seeded_fixture(DatasetSpec::default().master_seed)
    }

    fn seeded_fixture(master_seed: u64) -> (Dataset, MetricId, CleanRuns) {
        let spec = DatasetSpec {
            master_seed,
            ..DatasetSpec::default()
        };
        let d = Dataset::with_catalog(spec, small_catalog());
        let metric = d.catalog().id("nr_mapped_vmstat").unwrap();
        let clean = CleanRuns::from_dataset(&d, metric, Interval::PAPER_DEFAULT);
        (d, metric, clean)
    }

    fn spec(kind: ScenarioKind, intensity: f64) -> ScenarioSpec {
        ScenarioSpec {
            kind,
            intensity,
            seed: 0x5EED,
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for b in BackendKind::ALL {
            assert_eq!(BackendKind::parse(b.name()), Some(b));
        }
        assert_eq!(BackendKind::parse("nope"), None);
    }

    #[test]
    fn query_from_means_skips_lost_sensors() {
        let q = query_from_means(MetricId(0), Interval::PAPER_DEFAULT, &[1.0, f64::NAN, 3.0]);
        assert_eq!(q.points.len(), 2);
        assert_eq!(q.points[1].node, NodeId(2), "node identity preserved");
    }

    #[test]
    fn clean_baseline_recognizes_well_on_every_dictionary_backend() {
        let (d, metric, clean) = fixture();
        let data = build(&clean, &spec(ScenarioKind::MetricDropout, 0.0));
        for kind in [
            BackendKind::Dict,
            BackendKind::Served(Backend::Snapshot),
            BackendKind::Wal,
        ] {
            let clf = fit_backend(kind, &d, metric, Interval::PAPER_DEFAULT);
            let r = run_cell(&clf, &data, metric, Interval::PAPER_DEFAULT);
            assert!(
                r.macro_f1 > 0.6,
                "{kind}: clean macro-F1 {:.3} too low",
                r.macro_f1
            );
            assert_eq!(r.n, data.test.len());
        }
    }

    #[test]
    fn masquerade_degrades_unknown_recall_with_intensity() {
        let (d, metric, clean) = fixture();
        let clf = fit_backend(BackendKind::Dict, &d, metric, Interval::PAPER_DEFAULT);
        let faint = build(&clean, &spec(ScenarioKind::CryptominingMasquerade, 0.25));
        let perfect = build(&clean, &spec(ScenarioKind::CryptominingMasquerade, 1.0));
        let r_faint = run_cell(&clf, &faint, metric, Interval::PAPER_DEFAULT);
        let r_perfect = run_cell(&clf, &perfect, metric, Interval::PAPER_DEFAULT);
        // A faint masquerade sits far from its victim's keys: abstention
        // catches most of it (a miner can still collide with some *other*
        // app's higher level — that is the realistic false-accept).
        assert!(
            r_faint.unknown_recall >= 0.7,
            "faint miners must mostly be caught: {:?}",
            r_faint
        );
        // A perfect masquerade reproduces the victim's keys bit-exactly:
        // it *cannot* be caught, and unknown-recall collapses.
        assert!(
            r_perfect.unknown_recall <= 0.25,
            "perfect miners must mostly get through: {:?}",
            r_perfect.unknown_recall
        );
        assert!(r_perfect.unknown_recall < r_faint.unknown_recall);
    }

    #[test]
    fn drift_relearn_beats_static_dictionary_at_high_intensity() {
        let mut margins = Vec::new();
        for master_seed in [0xEFD_2021, 1, 2, 3, 4, 5, 6, 7] {
            let (d, metric, clean) = seeded_fixture(master_seed);
            let clf = fit_backend(
                BackendKind::Served(Backend::Snapshot),
                &d,
                metric,
                Interval::PAPER_DEFAULT,
            );
            for intensity in [0.0, 1.0] {
                let data = build(&clean, &spec(ScenarioKind::ConceptDrift, intensity));
                let static_arm = run_cell(&clf, &data, metric, Interval::PAPER_DEFAULT);
                let relearn_arm =
                    drift_relearn(d.catalog(), &data, metric, Interval::PAPER_DEFAULT);
                if intensity == 0.0 {
                    // Clean data: learning what is recognized costs nothing.
                    assert!(
                        relearn_arm.macro_f1 >= static_arm.macro_f1,
                        "seed {master_seed:#x}, clean: relearn {:.3} below static {:.3}",
                        relearn_arm.macro_f1,
                        static_arm.macro_f1
                    );
                } else {
                    margins.push((master_seed, relearn_arm.macro_f1, static_arm.macro_f1));
                }
            }
        }
        let (seed, relearn, stat) = margins
            .iter()
            .copied()
            .min_by(|a, b| (a.1 - a.2).total_cmp(&(b.1 - b.2)))
            .unwrap();
        assert!(
            relearn > stat + 0.2,
            "seed {seed:#x}: relearn {relearn:.3} must clearly beat static {stat:.3} \
             (every seed: {margins:?})"
        );
    }
}
