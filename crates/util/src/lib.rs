//! Shared utilities for the EFD workspace.
//!
//! This crate hosts the small, dependency-light building blocks used by every
//! other crate in the workspace:
//!
//! * [`hash`] — a fast FxHash-style hasher and the [`FxHashMap`]/[`FxHashSet`]
//!   aliases used for all hot integer-keyed maps (fingerprint dictionaries,
//!   metric interners). The default SipHash is measurably slower for the
//!   short fixed-size keys the EFD uses; the maps' [`FxMapHasher`] folds
//!   the high product bits down so rounded means still spread over buckets.
//! * [`rng`] — SplitMix64 and deterministic seed *derivation*: every
//!   stochastic component in the workspace receives a seed derived from a
//!   master seed plus a stable tag path, so any sub-computation (one run, one
//!   node, one metric) can be re-materialized independently and in parallel
//!   with bit-identical results.
//! * [`stats`] — Welford-style mergeable online moments (mean/var/skew/kurt),
//!   exact percentiles, and a P² streaming quantile estimator. These feed
//!   both the EFD fingerprint means and the Taxonomist-baseline feature
//!   extraction without ever holding full traces in memory.
//! * [`parallel`] — a scoped-thread `parallel_map` with dynamic load
//!   balancing and deterministic output ordering (std scoped threads, no
//!   global pool), `parallel_parts_mut` over contiguous parts of a slice,
//!   and `read_file`, a whole-file read in parts.
//! * [`table`] — plain-text/markdown table rendering for the experiment
//!   harness so benches can print the paper's tables verbatim.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hash;
pub mod parallel;
pub mod rng;
pub mod split;
pub mod stats;
pub mod table;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher, FxMapHasher};
pub use parallel::{
    num_threads, parallel_for_each, parallel_map, parallel_map_init, parallel_parts_mut, read_file,
};
pub use rng::{derive_seed, str_tag, SplitMix64};
pub use split::{stratified_k_fold_by, FoldIndices};
pub use stats::{percentile, OnlineStats, P2Quantile};
pub use table::{Align, TextTable};
