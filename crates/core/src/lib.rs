//! # Execution Fingerprint Dictionary (EFD)
//!
//! The paper's contribution: a Shazam-inspired key-value store that
//! recognizes repeated HPC application executions from a *single system
//! metric* and the *first two minutes* of telemetry.
//!
//! ```text
//! key   = [metric name, node id, time interval, ROUNDED mean]
//! value = [app input, app input, …]   (insertion-ordered)
//! ```
//!
//! * [`rounding`] — the paper's Table 1 "rounding depth" (significant-digit
//!   pruning), the EFD's only tunable parameter.
//! * [`fingerprint`] — fingerprint identity, display, and packing.
//! * [`observation`] — executions reduced to fingerprintable points.
//! * [`dictionary`] — learning, lookup, vote-based recognition with tie
//!   arrays and the `Unknown` safeguard, statistics, Table 4 rendering.
//! * [`training`] — rounding-depth selection by cross-fold validation
//!   inside the training set, and the high-level [`Efd`] facade.
//! * [`maintenance`] — forgetting an application, or one of its inputs,
//!   everywhere: what WAL replay and the live store apply.
//! * [`multi`] — combinatorial fingerprints over several metrics /
//!   intervals (paper's future work §6).
//! * [`engine`] — the engine API: the object-safe [`Recognize`] trait
//!   (and the [`VoteScratch`] dense-vote contract) unifying every
//!   backend — core dictionaries, combo keys, and the `efd-serve` forms —
//!   behind one interface.
//! * [`online`] — streaming recognizer: feed live samples, get a verdict
//!   the moment the fingerprint window closes.
//! * [`serialize`] — JSON dumps of dictionaries ("learning new applications
//!   is as simple as adding new keys").
//! * [`binfmt`] — EFDB, the versioned binary dictionary format: zero-parse
//!   persistence for instant serve cold-starts (spec in `docs/FORMAT.md`).
//! * [`diff`] — structural dictionary diffing (added/removed/relabelled
//!   keys, per-app coverage deltas, verdict-divergence sampling) backing
//!   `efd diff` and the versioned catalog.
//! * [`wal`] — crash-safe incremental persistence: an append-only learn
//!   log plus LSM-style immutable EFDB segments, with structured-error
//!   recovery and deterministic fault injection for testing it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binfmt;
pub mod dictionary;
pub mod diff;
pub mod engine;
pub mod fingerprint;
pub mod maintenance;
pub mod multi;
pub mod observation;
pub mod online;
pub mod rounding;
pub mod serialize;
pub mod training;
pub mod wal;

pub use binfmt::{BinFormatError, Efdb};
pub use dictionary::{
    AppNameId, DictionaryParts, DictionaryStats, EfdDictionary, LabelId, Recognition, Verdict,
    VerdictKind,
};
pub use engine::{Answer, ParallelRecognize, Recognize, VoteScratch};
pub use fingerprint::Fingerprint;
pub use observation::{LabeledObservation, ObsPoint, Query};
pub use rounding::{round_to_depth, RoundingDepth};
pub use training::{DepthPolicy, Efd, EfdConfig};
pub use wal::{SyncPolicy, WalDir, WalError, WalRecord};
