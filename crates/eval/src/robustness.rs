//! The scenario × backend robustness matrix.
//!
//! `efd_workload::scenario` builds the hostile inputs; this module runs
//! them against **every** engine backend — the whole dictionary family
//! (in-memory oracle, EFDB-loaded snapshot, combo, WAL-recovered) and
//! the ml family (forest / kNN / Gaussian NB) — and
//! scores each cell with [`crate::scoring`]'s abstention-quality metrics.
//!
//! The plumbing is PR 5's engine API end to end: one concrete
//! [`ScenarioBackend`] type wraps all seven [`BackendKind`]s behind
//! [`Learn`]`+`[`Recognize`] (freeze-style backends buffer observations
//! and build lazily on first recognition, the WAL backend additionally
//! round-trips through close-and-recover), so a single
//! [`EngineClassifier`] drives the full matrix. Dictionary-family cells
//! must produce identical verdict histograms — the conformance suite pins
//! that on the masquerade scenario.
//!
//! [`drift_relearn`] is the online-relearning arm of `concept-drift`: an
//! [`AgingDictionary`] keeps learning each drifted run after its verdict,
//! republishing [`Snapshot`]s that live [`OnlineRecognizer`]s [`swap`] to
//! mid-stream, with epoch advances aging out stale keys — the
//! learn-while-serve loop a production deployment would run.
//!
//! [`swap`]: OnlineRecognizer::swap

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use efd_core::engine::{Learn, Recognize, VoteScratch};
use efd_core::maintenance::AgingDictionary;
use efd_core::online::OnlineRecognizer;
use efd_core::wal::WalOptions;
use efd_core::{
    binfmt, EfdDictionary, LabeledObservation, ObsPoint, Query, Recognition, RoundingDepth,
};
use efd_ml::taxonomist::TaxonomistConfig;
use efd_serve::{Backend, DurableDictionary, Snapshot};
use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::{Interval, MetricId, NodeId};
use efd_workload::scenario::{split, ScenarioData};
use efd_workload::Dataset;

use crate::engine::{EngineClassifier, MlBackend};
use crate::scoring::{score, AbstentionReport, ScoredQuery};

/// Every engine backend the matrix can run a scenario against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The single-threaded in-memory oracle ([`EfdDictionary`]).
    Dict,
    /// The read-only [`Snapshot`], loaded from canonical EFDB bytes
    /// through [`Backend::load`] — the daemon's own load path.
    Snapshot,
    /// Conjunctive multi-metric combo ([`efd_core::multi::ComboDictionary`]).
    Combo,
    /// WAL-backed [`DurableDictionary`], closed and *recovered* before
    /// serving — every cell also exercises the durability path.
    Wal,
    /// Random forest (Taxonomist configuration) behind the engine API.
    Forest,
    /// k-nearest-neighbors behind the engine API.
    Knn,
    /// Gaussian naive Bayes behind the engine API.
    GaussianNb,
}

impl BackendKind {
    /// Every backend, in canonical (report) order.
    pub const ALL: [BackendKind; 7] = [
        BackendKind::Dict,
        BackendKind::Snapshot,
        BackendKind::Combo,
        BackendKind::Wal,
        BackendKind::Forest,
        BackendKind::Knn,
        BackendKind::GaussianNb,
    ];

    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Dict => "dict",
            BackendKind::Snapshot => "snapshot",
            BackendKind::Combo => "combo",
            BackendKind::Wal => "wal",
            BackendKind::Forest => "forest",
            BackendKind::Knn => "knn",
            BackendKind::GaussianNb => "gaussian-nb",
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
        !matches!(
            self,
            BackendKind::Forest | BackendKind::Knn | BackendKind::GaussianNb
        )
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Knobs shared by every cell of a matrix run.
#[derive(Debug, Clone, Copy)]
pub struct CellOptions {
    /// Rounding depth of every dictionary-family backend.
    pub depth: u8,
    /// Trees in the forest backend.
    pub forest_trees: usize,
    /// Abstention threshold of the ml backends.
    pub ml_confidence: f64,
    /// Online-relearning arm: epochs a key survives without refresh.
    pub drift_max_age: u64,
    /// Online-relearning arm: runs between republish + epoch advance.
    pub drift_chunk: usize,
}

impl Default for CellOptions {
    fn default() -> Self {
        Self {
            depth: 2,
            forest_trees: 20,
            ml_confidence: 0.5,
            drift_max_age: 3,
            drift_chunk: 8,
        }
    }
}

/// Any of the seven backends as one `Learn + Recognize` type, so a single
/// [`EngineClassifier`] can host the whole matrix.
///
/// Learning buffers observations; the actual backend is built lazily on
/// first recognition (freeze-style backends need the full training set
/// before they exist). The WAL variant writes a real log in a scratch
/// directory, closes it, and *recovers* — the answer path is the one a
/// crash-restarted server would take.
pub struct ScenarioBackend {
    kind: BackendKind,
    opts: CellOptions,
    catalog: MetricCatalog,
    buffered: Vec<LabeledObservation>,
    built: OnceLock<Arc<dyn Recognize + Send + Sync>>,
}

impl std::fmt::Debug for ScenarioBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioBackend")
            .field("kind", &self.kind)
            .field("buffered", &self.buffered.len())
            .field("built", &self.built.get().is_some())
            .finish_non_exhaustive()
    }
}

/// Distinguishes concurrent WAL scratch directories within one process.
static WAL_SEQ: AtomicU64 = AtomicU64::new(0);

impl ScenarioBackend {
    /// An empty backend of `kind`; `catalog` resolves metric names for
    /// EFDB/WAL bytes.
    pub fn new(kind: BackendKind, catalog: MetricCatalog, opts: CellOptions) -> Self {
        Self {
            kind,
            opts,
            catalog,
            buffered: Vec::new(),
            built: OnceLock::new(),
        }
    }

    /// Which backend this is.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    fn depth(&self) -> RoundingDepth {
        RoundingDepth::new(self.opts.depth)
    }

    fn learned_dict(&self) -> EfdDictionary {
        let mut d = EfdDictionary::new(self.depth());
        d.learn_all(&self.buffered);
        d
    }

    fn build_backend(&self) -> Arc<dyn Recognize + Send + Sync> {
        match self.kind {
            BackendKind::Dict => Arc::new(self.learned_dict()),
            // The registry backends build exactly as `efd serve` builds
            // them: the snapshot from a dictionary file's bytes.
            BackendKind::Snapshot => {
                let bytes = binfmt::write_dictionary(&self.learned_dict(), &self.catalog);
                Backend::Snapshot
                    .load(bytes, &self.catalog, "scenario")
                    .expect("canonical EFDB bytes load")
                    .0
            }
            BackendKind::Combo => {
                Backend::Combo
                    .from_dictionary(&self.learned_dict())
                    .expect("a trained single-metric dictionary builds a combo")
                    .0
            }
            BackendKind::Wal => {
                let dir = std::env::temp_dir().join(format!(
                    "efd-scenario-wal-{}-{}",
                    std::process::id(),
                    WAL_SEQ.fetch_add(1, Ordering::Relaxed),
                ));
                let _ = std::fs::remove_dir_all(&dir);
                {
                    let (served, _recovery) = DurableDictionary::open(
                        &dir,
                        self.depth(),
                        &self.catalog,
                        WalOptions::default(),
                    )
                    .expect("open scratch WAL");
                    for obs in &self.buffered {
                        served.learn(obs).expect("WAL learn");
                    }
                    served.sync().expect("WAL sync");
                }
                // Reopen: the serving state is the *recovered* one.
                let (served, _recovery) = DurableDictionary::open(
                    &dir,
                    self.depth(),
                    &self.catalog,
                    WalOptions::default(),
                )
                .expect("recover scratch WAL");
                let snapshot = served.dictionary().snapshot();
                drop(served);
                let _ = std::fs::remove_dir_all(&dir);
                Arc::new(snapshot)
            }
            BackendKind::Forest => {
                let mut b = MlBackend::forest(TaxonomistConfig {
                    n_trees: self.opts.forest_trees,
                    confidence_threshold: self.opts.ml_confidence,
                    ..TaxonomistConfig::default()
                });
                b.learn_all(&self.buffered);
                Arc::new(b)
            }
            BackendKind::Knn => {
                let mut b = MlBackend::knn(5, self.opts.ml_confidence);
                b.learn_all(&self.buffered);
                Arc::new(b)
            }
            BackendKind::GaussianNb => {
                let mut b = MlBackend::gaussian_nb(self.opts.ml_confidence);
                b.learn_all(&self.buffered);
                Arc::new(b)
            }
        }
    }
}

impl Learn for ScenarioBackend {
    fn learn(&mut self, obs: &LabeledObservation) {
        // Invalidate a built backend: freeze-style backends rebuild from
        // the full buffer on the next recognition.
        self.built.take();
        self.buffered.push(obs.clone());
    }
}

impl Recognize for ScenarioBackend {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        self.built
            .get_or_init(|| self.build_backend())
            .recognize_into(query, scratch)
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

/// A fitted matrix harness: `backend` trained on the dataset's canonical
/// clean training split (run `i` trains iff `i % 5 != 0` — the same split
/// every scenario's test sequence is built against), via
/// [`EngineClassifier`], the adapter every engine backend shares.
pub fn fit_backend(
    backend: BackendKind,
    dataset: &Dataset,
    metric: MetricId,
    interval: Interval,
    opts: CellOptions,
) -> EngineClassifier<ScenarioBackend, impl Fn() -> ScenarioBackend> {
    let catalog = dataset.catalog().clone();
    let mut clf = EngineClassifier::with_interval(backend.name(), metric, interval, move || {
        ScenarioBackend::new(backend, catalog.clone(), opts)
    });
    let (train_idx, _) = split(dataset.len());
    crate::classifier::ExecutionClassifier::fit(&mut clf, dataset, &train_idx);
    clf
}

/// Score one matrix cell: every test run of `data` recognized by the
/// fitted backend, abstention-quality metrics over the verdicts.
pub fn run_cell<F>(
    clf: &EngineClassifier<ScenarioBackend, F>,
    data: &ScenarioData,
    metric: MetricId,
    interval: Interval,
) -> AbstentionReport
where
    F: Fn() -> ScenarioBackend,
{
    let engine = clf.engine().expect("fit_backend() fits before scoring");
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
/// Serves the drifted test sequence the way a live deployment would:
/// each run streams its samples into an [`OnlineRecognizer`] against the
/// current [`Snapshot`] publication (swapping to the newest publication
/// mid-stream, at the fingerprint window's open), is scored, and is then
/// learned — labeled with its ground truth — into an [`AgingDictionary`].
/// Every [`CellOptions::drift_chunk`] runs the dictionary advances an
/// epoch (evicting keys not refreshed for
/// [`CellOptions::drift_max_age`] epochs) and republishes.
///
/// Returns the arm's report; compare against the static cell from
/// [`run_cell`] to see what relearning buys under drift.
pub fn drift_relearn(
    data: &ScenarioData,
    metric: MetricId,
    interval: Interval,
    opts: &CellOptions,
) -> AbstentionReport {
    let mut aging = AgingDictionary::new(RoundingDepth::new(opts.depth), opts.drift_max_age);
    for run in &data.train {
        let label = run.truth.clone().expect("training runs are labeled");
        aging.learn(&LabeledObservation {
            label,
            query: query_from_means(metric, interval, &run.means),
        });
    }
    let mut current = Arc::new(Snapshot::freeze(aging.dictionary()));
    let mut previous = Arc::clone(&current);

    let mut scored = Vec::with_capacity(data.test.len());
    for chunk in data.test.chunks(opts.drift_chunk.max(1)) {
        for run in chunk {
            let nodes: Vec<NodeId> = run
                .means
                .iter()
                .enumerate()
                .filter(|(_, m)| m.is_finite())
                .map(|(n, _)| NodeId(n as u16))
                .collect();
            // The session opens against the previous publication and
            // swaps to the newest one mid-stream, exactly when the
            // fingerprint window opens — the learn-while-serve handoff.
            let mut session =
                OnlineRecognizer::new(Arc::clone(&previous), &[metric], &nodes, vec![interval]);
            for t in 0..=interval.end {
                if t == interval.start {
                    session.swap(Arc::clone(&current));
                }
                for &n in &nodes {
                    session.push(n, metric, t, run.means[n.0 as usize]);
                }
            }
            let r = session.finish();
            scored.push(ScoredQuery::from_recognition(
                run.truth.as_ref().map(|l| l.app.as_str()),
                &r,
            ));
            if run.relearn {
                if let Some(label) = &run.truth {
                    aging.learn(&LabeledObservation {
                        label: label.clone(),
                        query: query_from_means(metric, interval, &run.means),
                    });
                }
            }
        }
        // Age, evict, republish: live sessions pick the new publication
        // up at their next swap point.
        aging.advance();
        previous = current;
        current = Arc::new(Snapshot::freeze(aging.dictionary()));
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
        let d = Dataset::with_catalog(DatasetSpec::default(), small_catalog());
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
        let q = query_from_means(
            MetricId(0),
            Interval::PAPER_DEFAULT,
            &[1.0, f64::NAN, 3.0],
        );
        assert_eq!(q.points.len(), 2);
        assert_eq!(q.points[1].node, NodeId(2), "node identity preserved");
    }

    #[test]
    fn clean_baseline_recognizes_well_on_every_dictionary_backend() {
        let (d, metric, clean) = fixture();
        let data = build(&clean, &spec(ScenarioKind::MetricDropout, 0.0));
        for kind in [BackendKind::Dict, BackendKind::Snapshot, BackendKind::Wal] {
            let clf = fit_backend(kind, &d, metric, Interval::PAPER_DEFAULT, CellOptions::default());
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
        let clf = fit_backend(
            BackendKind::Dict,
            &d,
            metric,
            Interval::PAPER_DEFAULT,
            CellOptions::default(),
        );
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
        let (d, metric, clean) = fixture();
        let data = build(&clean, &spec(ScenarioKind::ConceptDrift, 1.0));
        let opts = CellOptions::default();
        let clf = fit_backend(BackendKind::Snapshot, &d, metric, Interval::PAPER_DEFAULT, opts);
        let static_arm = run_cell(&clf, &data, metric, Interval::PAPER_DEFAULT);
        let relearn_arm = drift_relearn(&data, metric, Interval::PAPER_DEFAULT, &opts);
        assert!(
            relearn_arm.macro_f1 > static_arm.macro_f1 + 0.2,
            "relearn {:.3} must clearly beat static {:.3}",
            relearn_arm.macro_f1,
            static_arm.macro_f1
        );
    }
}
