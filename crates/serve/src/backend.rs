//! The backend registry: one enum, [`Backend`], names every recognizer
//! that is served or scored — the dictionary stores (the read-only
//! snapshot and the conjunctive combo) and the ml baselines (kNN,
//! Gaussian naive Bayes and the Taxonomist-style forest) — and builds it
//! from a dictionary file's bytes, a live [`EfdDictionary`] or a set of
//! training observations. [`DictSource::open`] is the one loader that
//! reads those file bytes.
//!
//! Batch `efd serve`, the daemon's start-up load and its `SWAP`/SIGHUP
//! reloads, manifest stages, the scenario matrix and `efd evaluate
//! --classifier knn|gaussian-nb` all build through [`Backend::load`],
//! [`Backend::from_dictionary`] or [`Backend::fit`], so one backend name
//! means one construction everywhere. Every served dictionary file is
//! read once, by [`DictSource::open`]: a catalog artifact's bytes are
//! the very buffer its digest was checked over, moved into the backend.
//! Both a plain file and an artifact are read by one reader,
//! [`efd_util::read_file`], which reads a file of 2 MiB or more in
//! contiguous parts on every core, so a 1M-key EFDB's page faults and
//! copies do not all land on one thread.
//!
//! ```
//! use efd_core::{binfmt, EfdDictionary, Query, RoundingDepth};
//! use efd_serve::Backend;
//! use efd_telemetry::catalog::small_catalog;
//! use efd_telemetry::{AppLabel, Interval};
//!
//! let catalog = small_catalog();
//! let metric = catalog.id("nr_mapped_vmstat").unwrap();
//! let mut dict = EfdDictionary::new(RoundingDepth::new(2));
//! dict.insert_raw(metric, efd_telemetry::NodeId(0), Interval::PAPER_DEFAULT, 6020.0,
//!                 &AppLabel::new("ft", "X"));
//! let bytes = binfmt::write_dictionary(&dict, &catalog);
//!
//! let backend = Backend::parse("snapshot").unwrap();
//! let (recognizer, keys) = backend.load(bytes, &catalog, "ft.efdb", 0.0).unwrap();
//! let q = Query::from_node_means(metric, Interval::PAPER_DEFAULT, &[6004.0]);
//! assert_eq!(keys, 1);
//! assert_eq!(recognizer.recognize(&q).best(), Some("ft"));
//! assert!(Backend::parse("efdb")
//!     .unwrap_err()
//!     .contains("(snapshot|combo|knn|gaussian-nb|forest)"));
//! ```

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use efd_catalog::{Catalog, CatalogRef};
use efd_core::engine::Recognize;
use efd_core::multi::ComboDictionary;
use efd_core::observation::ObsPoint;
use efd_core::{binfmt, serialize, EfdDictionary, LabeledObservation, Query, RoundingDepth};
use efd_ml::taxonomist::TaxonomistConfig;
use efd_ml::{GaussianNb, KNearestNeighbors, RandomForest, RandomForestParams, TreeParams};
use efd_telemetry::MetricCatalog;

use crate::ml::MlBackend;
use crate::net::DriftBaseline;
use crate::Snapshot;

/// A built backend: the recognizer every request answers through, and
/// its key count (conjunctive keys for [`Backend::Combo`], the
/// dictionary's keys for the ml backends it trains).
pub type Built = (Arc<dyn Recognize + Send + Sync>, usize);

/// Neighbours of a `knn` backend named without a `k` (`--backend knn`,
/// a manifest stage with no `"k"` field).
pub const DEFAULT_K: usize = 3;

/// Trees in the [`Backend::Forest`]; depth and seed are Taxonomist's.
pub const FOREST_TREES: usize = 20;

/// Every recognizer that is served or scored. The dictionary stores
/// answer identically (the `engine_conformance` suite) and differ in
/// what they count as a key; the ml baselines classify each query point
/// and abstain below a confidence bar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The read-only [`Snapshot`] (the default): over EFDB bytes it
    /// serves the buffer in place, over a live dictionary it lays the
    /// keys out in memory.
    Snapshot,
    /// Conjunctive [`ComboDictionary`] over a single-metric dictionary.
    Combo,
    /// k-nearest-neighbours over single-point rows.
    Knn {
        /// Neighbour count.
        k: usize,
    },
    /// Gaussian naive Bayes over single-point rows.
    GaussianNb,
    /// Bagged random forest of [`FOREST_TREES`] trees with Taxonomist's
    /// tree depth and seed.
    Forest,
}

impl Backend {
    /// Every backend, in `--backend` help order; `knn` has
    /// [`DEFAULT_K`] neighbours.
    pub const ALL: [Backend; 5] = [
        Backend::Snapshot,
        Backend::Combo,
        Backend::Knn { k: DEFAULT_K },
        Backend::GaussianNb,
        Backend::Forest,
    ];

    /// Parse a backend name; the error lists the accepted names.
    pub fn parse(name: &str) -> Result<Backend, String> {
        Backend::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| {
                let names = Backend::ALL.map(Backend::name).join("|");
                format!("unknown backend {name:?} ({names})")
            })
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Snapshot => "snapshot",
            Backend::Combo => "combo",
            Backend::Knn { .. } => "knn",
            Backend::GaussianNb => "gaussian-nb",
            Backend::Forest => "forest",
        }
    }

    /// Build from the bytes of a dictionary file — EFDB (sniffed by its
    /// magic) or a JSON dump. `source` names the bytes in errors; an ml
    /// backend abstains below `min_confidence`.
    ///
    /// Over EFDB the snapshot backend serves the moved buffer in place
    /// ([`Snapshot::load`]) and decodes no [`EfdDictionary`]. Every
    /// other pairing decodes and goes through [`Backend::from_dictionary`].
    pub fn load(
        self,
        bytes: Vec<u8>,
        catalog: &MetricCatalog,
        source: &str,
        min_confidence: f64,
    ) -> Result<Built, String> {
        if bytes.starts_with(&binfmt::MAGIC) && self == Backend::Snapshot {
            let size = bytes.len();
            let snap = Snapshot::load(bytes, catalog)
                .map_err(|e| format!("{source}: {e} (file is {size} bytes)"))?;
            let keys = snap.len();
            return Ok((Arc::new(snap), keys));
        }
        let dict = decode_dictionary(&bytes, catalog, source)?;
        self.from_dictionary(&dict, min_confidence)
            .map_err(|e| format!("{source}: {e}"))
    }

    /// Build from a live dictionary. An ml backend trains on the
    /// dictionary's entries — one single-point observation per key and
    /// label, the knowledge the dictionary stores serve — and abstains
    /// below `min_confidence`.
    pub fn from_dictionary(
        self,
        dict: &EfdDictionary,
        min_confidence: f64,
    ) -> Result<Built, String> {
        Ok(match self {
            Backend::Snapshot => (Arc::new(Snapshot::freeze(dict)), dict.len()),
            Backend::Combo => {
                let combo = ComboDictionary::from_single_metric(dict)
                    .ok_or("the combo backend needs a non-empty single-metric dictionary")?;
                let keys = combo.len();
                (Arc::new(combo), keys)
            }
            ml => {
                // Keys in one canonical order, not learn order: a live
                // dictionary and its file train the same model (a
                // forest's bootstrap draws rows by position).
                let mut entries: Vec<_> = dict.entries().collect();
                entries.sort_by_key(|(fp, _)| {
                    let w = fp.interval;
                    (fp.metric.0, fp.node.0, w.start, w.end, fp.mean().to_bits())
                });
                let mut train = Vec::new();
                for (fp, labels) in entries {
                    for l in labels {
                        train.push(LabeledObservation {
                            label: (*l).clone(),
                            query: Query {
                                points: vec![ObsPoint {
                                    metric: fp.metric,
                                    node: fp.node,
                                    interval: fp.interval,
                                    mean: fp.mean(),
                                }],
                            },
                        });
                    }
                }
                (ml.fit(&train, dict.depth(), min_confidence)?, dict.len())
            }
        })
    }

    /// Build from labelled training observations: a dictionary store
    /// learns them into an [`EfdDictionary`] at `depth` and builds from
    /// it; an ml backend trains on their finite points and abstains
    /// below `min_confidence`.
    ///
    /// ```
    /// use efd_core::{LabeledObservation, Query, RoundingDepth};
    /// use efd_serve::Backend;
    /// use efd_telemetry::{AppLabel, Interval, MetricId};
    ///
    /// let train: Vec<LabeledObservation> = [("ft", 6020.0), ("cg", 8110.0)]
    ///     .into_iter()
    ///     .map(|(app, mean)| LabeledObservation {
    ///         label: AppLabel::new(app, "X"),
    ///         query: Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[mean; 4]),
    ///     })
    ///     .collect();
    /// let knn = Backend::Knn { k: 3 }.fit(&train, RoundingDepth::new(2), 0.5).unwrap();
    /// let q = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[8100.0; 4]);
    /// assert_eq!(knn.recognize(&q).best(), Some("cg"));
    /// ```
    pub fn fit(
        self,
        observations: &[LabeledObservation],
        depth: RoundingDepth,
        min_confidence: f64,
    ) -> Result<Arc<dyn Recognize + Send + Sync>, String> {
        Ok(match self {
            Backend::Snapshot | Backend::Combo => {
                let mut dict = EfdDictionary::new(depth);
                dict.learn_all(observations);
                self.from_dictionary(&dict, min_confidence)?.0
            }
            Backend::Knn { k } => Arc::new(MlBackend::fit(
                observations,
                min_confidence,
                |rows, y, n| KNearestNeighbors::fit(k, rows, y, n),
            )),
            Backend::GaussianNb => Arc::new(MlBackend::fit(
                observations,
                min_confidence,
                |rows, y, n| GaussianNb::fit(&rows, &y, n),
            )),
            Backend::Forest => Arc::new(MlBackend::fit(
                observations,
                min_confidence,
                |rows, y, n| {
                    let taxonomist = TaxonomistConfig::default();
                    let params = RandomForestParams {
                        n_trees: FOREST_TREES,
                        tree: TreeParams {
                            max_depth: taxonomist.max_depth,
                            ..TreeParams::default()
                        },
                        seed: taxonomist.seed,
                        bootstrap: true,
                    };
                    RandomForest::fit(params, &rows, &y, n)
                },
            )),
        })
    }
}

impl fmt::Display for Backend {
    /// The name, with a kNN's neighbour count: `knn(k=3)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Knn { k } => write!(f, "knn(k={k})"),
            other => f.write_str(other.name()),
        }
    }
}

/// A served dictionary operand, read once: a plain file, or a published
/// catalog artifact whose digest was checked over exactly these bytes.
pub struct DictSource {
    /// The file's bytes (EFDB or a JSON dump), for [`Backend::load`].
    pub bytes: Vec<u8>,
    /// Display name for report and error lines: the canonical catalog
    /// ref, or the path as given.
    pub shown: String,
    /// Provenance line when the source is a published artifact.
    pub provenance: Option<String>,
    /// Catalog version ref (`hpc-apps@v3`) of a published artifact.
    pub version: Option<String>,
    /// Abstention baseline recorded when the artifact was published.
    pub baseline: Option<DriftBaseline>,
}

impl DictSource {
    /// Resolve and read a `--load`/`diff` operand. A spec that parses as
    /// a catalog reference (`name`, `name@latest`, `name@vN`) resolves
    /// against `catalog_dir` when one is given or the spec contains `@`;
    /// anything else is a file path.
    pub fn open(spec: &str, catalog_dir: Option<&Path>) -> Result<DictSource, String> {
        let reference =
            CatalogRef::parse(spec).filter(|_| catalog_dir.is_some() || spec.contains('@'));
        let Some(reference) = reference else {
            return Ok(DictSource {
                bytes: efd_util::read_file(spec).map_err(|e| format!("{spec}: {e}"))?,
                shown: spec.to_string(),
                provenance: None,
                version: None,
                baseline: None,
            });
        };
        let dir = catalog_dir.ok_or_else(|| {
            format!("{spec:?} is a catalog reference; pass --catalog <dir> to resolve it")
        })?;
        let cat = Catalog::open(dir).map_err(|e| e.to_string())?;
        let a = cat.resolve(&reference).map_err(|e| e.to_string())?;
        Ok(DictSource {
            bytes: cat.read_bytes(a).map_err(|e| e.to_string())?,
            shown: a.artifact_ref(),
            provenance: Some(a.provenance()),
            version: Some(a.artifact_ref()),
            baseline: a.baseline.as_ref().map(|b| DriftBaseline {
                unknown_rate: b.unknown_rate,
                ambiguous_rate: b.ambiguous_rate,
            }),
        })
    }
}

/// Decode dictionary file bytes, EFDB or JSON (sniffed by the EFDB
/// magic). Errors name `source`; EFDB errors add the byte count, so a
/// truncation reads differently from schema drift.
pub fn decode_dictionary(
    bytes: &[u8],
    catalog: &MetricCatalog,
    source: &str,
) -> Result<EfdDictionary, String> {
    if bytes.starts_with(&binfmt::MAGIC) {
        binfmt::read_dictionary(bytes, catalog)
            .map_err(|e| format!("{source}: {e} (file is {} bytes)", bytes.len()))
    } else {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("{source}: {e}"))?;
        serialize::from_json(text, catalog).map_err(|e| format!("{source}: {e}"))
    }
}
