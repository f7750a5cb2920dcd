//! # efd — Execution Fingerprint Dictionary
//!
//! A reproduction of *“An Execution Fingerprint Dictionary for HPC
//! Application Recognition”* (Jakobsche, Lachiche, Cavelan, Ciorba —
//! IEEE CLUSTER 2021): recognize repeated HPC application executions from
//! a **single system metric** and the **first two minutes** of telemetry,
//! Shazam-style, with a rounded-mean key-value dictionary.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] (`efd-core`) — the dictionary itself: rounding depth,
//!   fingerprints, learning/recognition, depth selection, persistence
//!   (JSON dumps and the EFDB binary format, spec in `docs/FORMAT.md`),
//!   plus the paper's future-work extensions (combinatorial fingerprints,
//!   streaming recognition) — and the
//!   **engine API** (`efd_core::engine`): the object-safe
//!   [`Recognize`](prelude::Recognize) trait unifying every backend,
//!   re-exported through the [`prelude`].
//! * [`telemetry`] (`efd-telemetry`) — the simulated LDMS substrate:
//!   562-metric catalog, 1 Hz sampling, noise processes, traces.
//! * [`workload`] (`efd-workload`) — synthetic application models and the
//!   Table 2 dataset generator.
//! * [`ml`] (`efd-ml`) — the from-scratch Taxonomist baseline and
//!   scikit-learn-compatible classification metrics.
//! * [`eval`] (`efd-eval`) — the paper's five experiments, Table 3
//!   screening, and paper-vs-measured reporting.
//! * [`serve`] (`efd-serve`) — the concurrent serving layer: the live
//!   dictionary behind one lock, immutable published snapshots, the backend registry,
//!   `recognizer.v1` manifests stacking backends with explicit
//!   precedence, parallel batch and streaming recognition.
//! * [`catalog`] (`efd-catalog`) — versioned dictionary artifacts: the
//!   named catalog store with its signed index.
//! * [`util`] (`efd-util`) — hashing, RNG derivation, online statistics,
//!   scoped-thread parallelism, text tables.
//!
//! See `README.md` for a tour, `ARCHITECTURE.md` for the crate map and
//! data flow, and `examples/` for runnable scenarios.

#![warn(rust_2018_idioms)]

pub use efd_catalog as catalog;
pub use efd_core as core;
pub use efd_eval as eval;
pub use efd_ml as ml;
pub use efd_serve as serve;
pub use efd_telemetry as telemetry;
pub use efd_util as util;
pub use efd_workload as workload;

/// The types most programs need.
pub mod prelude {
    pub use efd_core::dictionary::{DictionaryStats, EfdDictionary, Recognition, Verdict};
    pub use efd_core::engine::{Answer, ParallelRecognize, Recognize, VoteScratch};
    pub use efd_core::fingerprint::Fingerprint;
    pub use efd_core::observation::{LabeledObservation, ObsPoint, Query};
    pub use efd_core::online::OnlineRecognizer;
    pub use efd_core::rounding::{round_to_depth, RoundingDepth};
    pub use efd_core::training::{DepthPolicy, Efd, EfdConfig};
    pub use efd_serve::{ShardedDictionary, Snapshot};
    pub use efd_telemetry::trace::{ExecutionTrace, MetricSelection, NodeTrace};
    pub use efd_telemetry::{AppLabel, Interval, MetricCatalog, MetricId, NodeId, TimeSeries};
    pub use efd_workload::{AppId, Dataset, DatasetSpec, InputSize, SubsetKind};
}
