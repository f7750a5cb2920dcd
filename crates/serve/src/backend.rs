//! The backend registry: the one construction path from a backend name
//! plus a dictionary (file bytes or a live [`EfdDictionary`]) to a
//! served `Arc<dyn Recognize + Send + Sync>`, and the one loader,
//! [`DictSource::open`], that reads those file bytes.
//!
//! Batch `efd serve`, the daemon's start-up load and its `SWAP`/SIGHUP
//! reloads, manifest stages and the scenario matrix all build through
//! [`Backend::load`] or [`Backend::from_dictionary`], so one backend
//! name means one construction everywhere. Every served dictionary file
//! is read once, by [`DictSource::open`]: a catalog artifact's bytes are
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
//! let (recognizer, keys) = backend.load(bytes, &catalog, "ft.efdb").unwrap();
//! let q = Query::from_node_means(metric, Interval::PAPER_DEFAULT, &[6004.0]);
//! assert_eq!(keys, 1);
//! assert_eq!(recognizer.recognize(&q).best(), Some("ft"));
//! assert!(Backend::parse("efdb").unwrap_err().contains("(snapshot|combo)"));
//! ```

use std::path::Path;
use std::sync::Arc;

use efd_catalog::{Catalog, CatalogRef, StageBackend};
use efd_core::engine::Recognize;
use efd_core::multi::ComboDictionary;
use efd_core::{binfmt, serialize, EfdDictionary};
use efd_telemetry::MetricCatalog;

use crate::net::DriftBaseline;
use crate::Snapshot;

/// A built backend: the recognizer every request answers through, and
/// its key count (conjunctive keys for [`Backend::Combo`]).
pub type Built = (Arc<dyn Recognize + Send + Sync>, usize);

/// A dictionary-serving backend: one per store whose keys differ. Both
/// answer identically (the `engine_conformance` suite); they differ in
/// what they count as a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The read-only [`Snapshot`] (the default): over EFDB bytes it
    /// serves the buffer in place, over a live dictionary it lays the
    /// keys out in memory.
    Snapshot,
    /// Conjunctive [`ComboDictionary`] over a single-metric dictionary.
    Combo,
}

impl Backend {
    /// Every backend, in `--backend` help order.
    pub const ALL: [Backend; 2] = [Backend::Snapshot, Backend::Combo];

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

    /// The backend a `recognizer.v1` dictionary stage serves through;
    /// `None` for the ml stages, which train on the dictionary instead.
    pub fn for_stage(stage: &StageBackend) -> Option<Backend> {
        match stage {
            StageBackend::Exact => Some(Backend::Snapshot),
            StageBackend::Combo => Some(Backend::Combo),
            StageBackend::Knn { .. } | StageBackend::GaussianNb => None,
        }
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Snapshot => "snapshot",
            Backend::Combo => "combo",
        }
    }

    /// Build from the bytes of a dictionary file — EFDB (sniffed by its
    /// magic) or a JSON dump. `source` names the bytes in errors.
    ///
    /// Over EFDB the snapshot backend serves the moved buffer in place
    /// ([`Snapshot::load`]) and decodes no [`EfdDictionary`]. Every
    /// other pairing decodes and goes through [`Backend::from_dictionary`].
    pub fn load(
        self,
        bytes: Vec<u8>,
        catalog: &MetricCatalog,
        source: &str,
    ) -> Result<Built, String> {
        if bytes.starts_with(&binfmt::MAGIC) && self == Backend::Snapshot {
            let size = bytes.len();
            let snap = Snapshot::load(bytes, catalog)
                .map_err(|e| format!("{source}: {e} (file is {size} bytes)"))?;
            let keys = snap.len();
            return Ok((Arc::new(snap), keys));
        }
        let dict = decode_dictionary(&bytes, catalog, source)?;
        self.from_dictionary(&dict)
            .map_err(|e| format!("{source}: {e}"))
    }

    /// Build from a live dictionary.
    pub fn from_dictionary(self, dict: &EfdDictionary) -> Result<Built, String> {
        Ok(match self {
            Backend::Snapshot => (Arc::new(Snapshot::freeze(dict)), dict.len()),
            Backend::Combo => {
                let combo = ComboDictionary::from_single_metric(dict)
                    .ok_or("the combo backend needs a non-empty single-metric dictionary")?;
                let keys = combo.len();
                (Arc::new(combo), keys)
            }
        })
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
