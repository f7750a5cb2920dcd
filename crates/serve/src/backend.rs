//! The backend registry: the one construction path from a backend name
//! plus a dictionary (file bytes or a live [`EfdDictionary`]) to a
//! served `Arc<dyn Recognize + Send + Sync>`.
//!
//! Batch `efd serve`, the daemon's start-up load and its `SWAP`/SIGHUP
//! reloads, manifest stages and the scenario matrix all build through
//! [`Backend::load`] or [`Backend::from_dictionary`], so one backend
//! name means one construction everywhere.
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
//! let backend = Backend::parse("efdb").unwrap();
//! let (recognizer, keys) = backend.load(bytes, &catalog, 8, "ft.efdb").unwrap();
//! let q = Query::from_node_means(metric, Interval::PAPER_DEFAULT, &[6004.0]);
//! assert_eq!(keys, 1);
//! assert_eq!(recognizer.recognize(&q).best(), Some("ft"));
//! assert!(Backend::parse("bogus").unwrap_err().contains("snapshot|sharded|combo|efdb"));
//! ```

use std::sync::Arc;

use efd_core::engine::Recognize;
use efd_core::multi::ComboDictionary;
use efd_core::{binfmt, serialize, EfdDictionary};
use efd_telemetry::MetricCatalog;

use crate::{ComboSnapshot, EfdbSnapshot, ShardedDictionary, Snapshot};

/// A built backend: the recognizer every request answers through, and
/// its key count (conjunctive keys for [`Backend::Combo`]).
pub type Built = (Arc<dyn Recognize + Send + Sync>, usize);

/// A dictionary-serving backend. All four answer identically (the
/// `engine_conformance` suite); they differ in load cost, probe cost
/// and whether they accept learns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Immutable [`Snapshot`] with owned hash shards (the default).
    Snapshot,
    /// Live [`ShardedDictionary`] behind per-shard `RwLock`s.
    Sharded,
    /// Conjunctive [`ComboSnapshot`] over a single-metric dictionary.
    Combo,
    /// Zero-copy [`EfdbSnapshot`] over canonical EFDB bytes.
    Efdb,
}

impl Backend {
    /// Every backend, in `--backend` help order.
    pub const ALL: [Backend; 4] = [
        Backend::Snapshot,
        Backend::Sharded,
        Backend::Combo,
        Backend::Efdb,
    ];

    /// Parse a backend name; the error lists the accepted names.
    pub fn parse(name: &str) -> Result<Backend, String> {
        Backend::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| format!("unknown backend {name:?} (snapshot|sharded|combo|efdb)"))
    }

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Snapshot => "snapshot",
            Backend::Sharded => "sharded",
            Backend::Combo => "combo",
            Backend::Efdb => "efdb",
        }
    }

    /// Build from the bytes of a dictionary file — EFDB (sniffed by its
    /// magic) or a JSON dump. `source` names the bytes in errors.
    ///
    /// Over EFDB the snapshot backend checks the bytes once and thaws
    /// the view, and the efdb backend serves the moved buffer in place;
    /// neither decodes an [`EfdDictionary`]. Every other pairing decodes
    /// and goes through [`Backend::from_dictionary`], so `efdb` over a
    /// JSON dump serves its canonical re-encoding.
    pub fn load(
        self,
        bytes: Vec<u8>,
        catalog: &MetricCatalog,
        shards: usize,
        source: &str,
    ) -> Result<Built, String> {
        let size = bytes.len();
        let efdb_err = |e: binfmt::BinFormatError| format!("{source}: {e} (file is {size} bytes)");
        if bytes.starts_with(&binfmt::MAGIC) {
            match self {
                Backend::Efdb => {
                    let snap = EfdbSnapshot::load(bytes, catalog).map_err(efdb_err)?;
                    let keys = snap.len();
                    return Ok((Arc::new(snap), keys));
                }
                Backend::Snapshot => {
                    let view = binfmt::check(&bytes).map_err(efdb_err)?;
                    let snap = Snapshot::from_view(&view, catalog, shards).map_err(efdb_err)?;
                    let keys = snap.len();
                    return Ok((Arc::new(snap), keys));
                }
                Backend::Sharded | Backend::Combo => {}
            }
        }
        let dict = decode_dictionary(&bytes, catalog, source)?;
        self.from_dictionary(&dict, catalog, shards)
            .map_err(|e| format!("{source}: {e}"))
    }

    /// Build from a live dictionary.
    pub fn from_dictionary(
        self,
        dict: &EfdDictionary,
        catalog: &MetricCatalog,
        shards: usize,
    ) -> Result<Built, String> {
        Ok(match self {
            Backend::Snapshot => (Arc::new(Snapshot::freeze(dict, shards)), dict.len()),
            Backend::Sharded => (
                Arc::new(ShardedDictionary::from_parts(dict.to_parts(), shards)),
                dict.len(),
            ),
            Backend::Combo => {
                let combo = ComboDictionary::from_single_metric(dict)
                    .ok_or("the combo backend needs a non-empty single-metric dictionary")?;
                let keys = combo.len();
                (Arc::new(ComboSnapshot::freeze(combo)), keys)
            }
            Backend::Efdb => {
                let bytes = binfmt::write_dictionary(dict, catalog);
                let snap = EfdbSnapshot::load(bytes, catalog).map_err(|e| e.to_string())?;
                (Arc::new(snap), dict.len())
            }
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
