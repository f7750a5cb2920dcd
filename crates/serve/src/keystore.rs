//! The `KeyStore` contract: probe and vote one fingerprint.
//!
//! [`crate::Snapshot`] answers a query through one probe pipeline that
//! takes the query's points in chunks of up to 16 (see the `snapshot`
//! module docs): it rounds and hashes every point of a chunk, reads
//! every home slot of its hash index, then compares records and walks
//! probe chains, and only then votes the matched keys in point order.
//! The loads of the middle two passes do not depend on one another, so
//! a store larger than the CPU caches waits on their misses together
//! rather than one after another.
//!
//! [`KeyStore`] is the one-point case of that pipeline: `vote` and
//! `vote_apps` probe a single fingerprint through the same chain-walk
//! helper and vote it as the pipeline's last pass does. `Snapshot` is
//! the trait's one implementation. The trait stays public only because
//! the benchmark's trace (`perfbench/`) votes through it to time probe
//! and vote apart; it goes once that trace replays the daemon's own
//! calls (ROADMAP, item 1).

use efd_core::engine::VoteScratch;
use efd_core::{Fingerprint, RoundingDepth};
use efd_telemetry::AppLabel;

/// The storage contract behind a served snapshot: resolve a fingerprint
/// and vote its stored labels/apps.
///
/// Implementations supply per-key *voting*, not per-key *data access*, so
/// the store walks its postings in place without materializing a label
/// list.
pub trait KeyStore {
    /// Rounding depth the stored keys were built with (query means are
    /// rounded to this depth before probing).
    fn depth(&self) -> RoundingDepth;

    /// Labels in interned order (resolves `LabelId` → name pairs).
    fn labels(&self) -> &[AppLabel];

    /// Application names in tie-break (interned) order.
    fn apps(&self) -> &[String];

    /// Probe `fp` and, if present, vote its labels and its
    /// **deduplicated** apps into `scratch` (one app vote per matched
    /// point, however many labels share the app). Label votes go through
    /// [`VoteScratch::vote_label_wide`] when `wide` is set, the scalar
    /// path otherwise. Returns whether the key exists.
    fn vote(&self, fp: &Fingerprint, scratch: &mut VoteScratch, wide: bool) -> bool;

    /// Probe `fp` and vote only its deduplicated apps — the one-point
    /// case of the verdict-only path behind `answer_into`. Returns
    /// whether the key exists.
    fn vote_apps(&self, fp: &Fingerprint, scratch: &mut VoteScratch) -> bool;
}
