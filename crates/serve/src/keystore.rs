//! One `KeyStore` contract behind every snapshot vote path.
//!
//! The owned [`crate::Snapshot`] (hash-partitioned maps of decoded
//! entries) and the zero-copy [`crate::EfdbSnapshot`] (binary search over
//! raw EFDB key records) answer queries through the same two-phase shape:
//! probe a fingerprint per query point, then accumulate label and app
//! votes in a [`VoteScratch`]. [`KeyStore`] is that shape as a trait, and
//! [`recognize_with`] / [`answer_with`] / [`best_with`] are the *single*
//! vote kernel both backends run — probe loop, wide/scalar counter
//! selection, and the scratch's finish live here once, so a fix or a
//! fast path lands in every backend at the same time. [`answer_with`] and
//! [`best_with`] probe with [`KeyStore::vote_apps`] and count no label
//! votes at all: a verdict needs only the app tallies.
//!
//! The kernel picks the widened SWAR counter path
//! ([`VoteScratch::vote_label_wide`]) whenever the query is small enough
//! that no label's packed 16-bit lane can saturate (one vote per label
//! per matched point, so `points.len() <= WIDE_VOTE_LIMIT` bounds every
//! lane), and falls back to the exact scalar path otherwise.

use efd_core::engine::{Answer, VoteScratch};
use efd_core::{Fingerprint, Query, Recognition, RoundingDepth};
use efd_telemetry::AppLabel;

/// The storage contract behind a served snapshot: resolve a fingerprint
/// and vote its stored labels/apps, whatever the backing representation
/// (decoded shard maps, raw EFDB bytes, …).
///
/// Implementations supply per-key *voting*, not per-key *data access*, so
/// a zero-copy store can walk its postings in place without materializing
/// a label list. The shared kernels [`recognize_with`] and [`best_with`]
/// turn any `KeyStore` into the engine API's recognition semantics; a
/// backend's `Recognize::recognize_into` is one call into them.
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

    /// Probe `fp` and vote only its deduplicated apps — the verdict-only
    /// fast path behind `best`-style calls. Returns whether the key
    /// exists.
    fn vote_apps(&self, fp: &Fingerprint, scratch: &mut VoteScratch) -> bool;
}

/// Whether a query is small enough for the widened counter path: every
/// label gets at most one vote per matched point, so the point count
/// bounds every 16-bit lane.
#[inline]
fn use_wide(query: &Query) -> bool {
    query.points.len() <= VoteScratch::WIDE_VOTE_LIMIT
}

/// The shared vote kernel: full [`Recognition`] over any [`KeyStore`].
///
/// Rounds each query point at the store's depth, probes it, accumulates
/// votes (wide counters when the query size permits), and finishes in
/// [`Recognition::normalized`] order — the engine API's answer contract.
pub fn recognize_with<S: KeyStore + ?Sized>(
    store: &S,
    query: &Query,
    scratch: &mut VoteScratch,
) -> Recognition {
    scratch.ensure(store.labels().len(), store.apps().len());
    let wide = use_wide(query);
    let depth = store.depth();
    let mut matched = 0usize;
    for p in &query.points {
        let Some(fp) = Fingerprint::from_raw(p.metric, p.node, p.interval, p.mean, depth) else {
            continue;
        };
        if store.vote(&fp, scratch, wide) {
            matched += 1;
        }
    }
    scratch.finish(store.labels(), store.apps(), matched, query.points.len())
}

/// Probe every query point and vote only its apps; returns the points
/// whose key exists. App counters only — the label counters are not
/// even grown.
fn vote_apps_all<S: KeyStore + ?Sized>(
    store: &S,
    query: &Query,
    scratch: &mut VoteScratch,
) -> usize {
    scratch.ensure(0, store.apps().len());
    let depth = store.depth();
    let mut matched = 0usize;
    for p in &query.points {
        let Some(fp) = Fingerprint::from_raw(p.metric, p.node, p.interval, p.mean, depth) else {
            continue;
        };
        if store.vote_apps(&fp, scratch) {
            matched += 1;
        }
    }
    matched
}

/// The shared answer kernel: the verdict and point counts over any
/// [`KeyStore`], written into a reusable [`Answer`]. Equals
/// `Answer::from(&recognize_with(store, query, scratch))` by construction
/// (same probes, same app tallies, same name-order tie rule) but builds
/// no vote tables and clones no names, so a warm scratch and answer make
/// it allocation-free.
pub fn answer_with<S: KeyStore + ?Sized>(
    store: &S,
    query: &Query,
    scratch: &mut VoteScratch,
    out: &mut Answer,
) {
    let matched = vote_apps_all(store, query, scratch);
    scratch.finish_answer(store.apps(), matched, query.points.len(), out);
}

/// The shared verdict-only kernel: the most-voted application over any
/// [`KeyStore`] (ties broken lexicographically), `None` when nothing
/// matched. Agrees with `recognize_with(store, query, scratch).best()`
/// by construction; no vote tables, no strings.
pub fn best_with<'s, S: KeyStore + ?Sized>(
    store: &'s S,
    query: &Query,
    scratch: &mut VoteScratch,
) -> Option<&'s str> {
    vote_apps_all(store, query, scratch);
    scratch.finish_best(store.apps())
}
