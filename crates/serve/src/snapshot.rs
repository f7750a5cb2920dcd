//! The published, immutable form of a dictionary.
//!
//! A [`Snapshot`] is what the serving read path actually touches: no
//! locks, no interior mutability — just hash-partitioned maps behind an
//! `Arc`. Publication follows the classic read-copy-update shape: a
//! learner (an [`crate::ShardedDictionary`] or a plain
//! [`EfdDictionary`]) freezes its current state, the new `Arc<Snapshot>`
//! is swapped into the serving path, and in-flight readers finish on the
//! old one.
//!
//! ## Layout
//!
//! The shard maps hold `Fingerprint → Slot`, and every key's postings
//! live either in its slot or in one contiguous `u32` arena:
//!
//! ```text
//! shards[shard_of(fp)] : FxHashMap<Fingerprint, Slot>
//!     Slot [label, app]       one label: its id and its app, inline
//!     Slot [offset, ARENA] ──┐  any other label count
//!                            v
//! arena : … | n | m | label_0 … label_{n-1} | app_0 … app_{m-1} | …
//! ```
//!
//! `n` labels are stored in the dictionary's order, followed by their `m`
//! deduplicated applications in first-occurrence order (mirroring the
//! oracle's per-point vote dedup), so the recognition inner loop does zero
//! label→app indirection. Most keys hold one label, and the 24-byte
//! fingerprint pads a map slot to 32 bytes anyway, so those keys cost no
//! arena words and a probe that hits one touches no memory beyond the map.
//! One arena instead of two boxed slices per key keeps a 1M-key snapshot
//! to a handful of allocations, and the maps are presized so a load never
//! rehashes.

use efd_core::binfmt::{BinFormatError, Efdb, EfdbView};
use efd_core::dictionary::{AppNameId, LabelId};
use efd_core::engine::{Answer, Recognize, VoteScratch};
use efd_core::{DictionaryParts, EfdDictionary, Fingerprint, Query, Recognition, RoundingDepth};
use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::AppLabel;
use efd_util::FxHashMap;

use crate::keystore::{self, KeyStore};
use crate::{shard_bits_for, shard_of};

/// An immutable, shard-partitioned freeze of a dictionary.
///
/// Cheap to share (`Arc<Snapshot>`), safe to read from any number of
/// threads, and answer-identical to the [`EfdDictionary`] it was frozen
/// from (modulo [`Recognition::normalized`] ordering). Recognition goes
/// through the engine API ([`Recognize`], re-exported from this crate):
/// `recognize_into` counts votes in caller-owned scratch, `answer_into`
/// is the allocation-free verdict-only path the daemon replies with, and
/// `recognize` / `recognize_batch` are the provided conveniences.
///
/// ```
/// use efd_core::{EfdDictionary, Query, RoundingDepth};
/// use efd_serve::{Recognize, Snapshot};
/// use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
///
/// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
/// for (node, mean) in [6020.0, 6019.0].into_iter().enumerate() {
///     dict.insert_raw(MetricId(0), NodeId(node as u16), Interval::PAPER_DEFAULT,
///                     mean, &AppLabel::new("ft", "X"));
/// }
/// let snap = Snapshot::freeze(&dict, 8);
/// let q = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[6001.0, 5999.0]);
/// // Same verdict as the live dictionary, from an immutable shared form.
/// assert_eq!(snap.recognize(&q).verdict, dict.recognize(&q).verdict);
/// assert_eq!(snap.len(), dict.len());
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot {
    depth: RoundingDepth,
    shard_bits: u32,
    /// Per shard: fingerprint → its postings, inline or in `arena`.
    shards: Box<[FxHashMap<Fingerprint, Slot>]>,
    /// `[n, m, n labels, m apps]` postings of every key whose slot does
    /// not hold them inline, back to back.
    arena: Box<[u32]>,
    labels: Vec<AppLabel>,
    apps: Vec<String>,
    label_app: Vec<AppNameId>,
}

/// A key's postings: `[label, app]` inline when the key holds exactly one
/// label, `[arena offset, ARENA]` otherwise. App ids index the snapshot's
/// app table, so they never reach [`ARENA`].
type Slot = [u32; 2];

/// The second word of a [`Slot`] whose postings live in the arena.
const ARENA: u32 = u32::MAX;

/// Capacity for each of `shards` maps sharing `keys` keys: the mean share
/// plus a margin for hash imbalance (a shard's share is binomial, with a
/// standard deviation of about √mean), so that no shard rehashes while a
/// snapshot is assembled.
fn shard_capacity(keys: usize, shards: usize) -> usize {
    let mean = keys.div_ceil(shards);
    mean + 4 * mean.isqrt() + 8
}

impl Snapshot {
    /// Freeze [`DictionaryParts`] into `shards` hash partitions (rounded
    /// up to a power of two, clamped to [`crate::MAX_SHARD_BITS`] bits).
    /// Duplicate fingerprints across entries (hand-concatenated parts)
    /// merge their label lists, duplicates pruned — same semantics as
    /// [`EfdDictionary::from_parts`].
    ///
    /// # Panics
    ///
    /// Panics if the parts are internally inconsistent (out-of-range ids),
    /// like [`EfdDictionary::from_parts`]. Parts produced by
    /// [`EfdDictionary::into_parts`] are always consistent.
    pub fn from_parts(parts: DictionaryParts, shards: usize) -> Self {
        // Canonicalize through the core dictionary: one shared
        // implementation of key merging, per-list dedup, and consistency
        // validation (which is where the documented panics originate).
        let parts = EfdDictionary::from_parts(parts).into_parts();
        Self::assemble(
            parts.depth,
            parts.entries.into_iter(),
            parts.labels,
            parts.apps,
            parts.label_app,
            shards,
        )
    }

    /// The one build every constructor funnels through: presized shard
    /// maps over one postings arena. `entries` must already be canonical
    /// (unique keys, deduplicated label lists) — guaranteed by
    /// [`EfdDictionary::from_parts`] or a checked EFDB file — and its
    /// `size_hint` lower bound is the key count the maps are sized for.
    ///
    /// # Panics
    ///
    /// Panics if the arena outgrows `u32` offsets (billions of postings)
    /// or the app table reaches [`ARENA`] entries.
    fn assemble<L: IntoIterator<Item = LabelId>>(
        depth: RoundingDepth,
        entries: impl Iterator<Item = (Fingerprint, L)>,
        labels: Vec<AppLabel>,
        apps: Vec<String>,
        label_app: Vec<AppNameId>,
        shards: usize,
    ) -> Self {
        assert!(
            apps.len() < ARENA as usize,
            "app table too large for inline slots"
        );
        let shard_bits = shard_bits_for(shards);
        let keys = entries.size_hint().0;
        let capacity = shard_capacity(keys, 1 << shard_bits);
        let mut maps: Vec<FxHashMap<Fingerprint, Slot>> = (0..(1usize << shard_bits))
            .map(|_| FxHashMap::with_capacity_and_hasher(capacity, Default::default()))
            .collect();
        let mut arena: Vec<u32> = Vec::new();
        for (fp, ids) in entries {
            let at = arena.len();
            let offset = u32::try_from(at).expect("postings arena exceeds u32 offsets");
            arena.extend([0, 0]);
            arena.extend(ids.into_iter().map(|id| id.index() as u32));
            let apps_at = arena.len();
            let slot = if apps_at == at + 3 {
                let label = arena[at + 2];
                arena.truncate(at);
                [label, label_app[label as usize].index() as u32]
            } else {
                for i in at + 2..apps_at {
                    let app = label_app[arena[i] as usize].index() as u32;
                    if !arena[apps_at..].contains(&app) {
                        arena.push(app);
                    }
                }
                arena[at] = (apps_at - at - 2) as u32;
                arena[at + 1] = (arena.len() - apps_at) as u32;
                [offset, ARENA]
            };
            let prev = maps[shard_of(&fp, shard_bits)].insert(fp, slot);
            debug_assert!(prev.is_none(), "assemble needs unique keys");
        }
        Self {
            depth,
            shard_bits,
            shards: maps.into_boxed_slice(),
            arena: arena.into_boxed_slice(),
            labels,
            apps,
            label_app,
        }
    }

    /// Freeze a live dictionary without consuming it (clones the content;
    /// the dictionary can keep learning and re-publish later).
    pub fn freeze(dict: &EfdDictionary, shards: usize) -> Self {
        Self::from_parts(dict.to_parts(), shards)
    }

    /// Build a snapshot **straight from a checked EFDB view** — the serve
    /// cold-start path (daemon startup, `SWAP`, SIGHUP).
    ///
    /// [`efd_core::binfmt::check`] already guarantees unique,
    /// bounds-checked keys and a consistent label table, so this
    /// constructor decodes nothing it does not keep: metric names resolve
    /// to ids once, the small label tables are decoded, and then every key
    /// record becomes one map insert (plus one arena append when it holds
    /// several labels), its postings read in place. No [`Efdb`] and no [`EfdDictionary`] is built. The
    /// only failure mode left is a metric name absent from `catalog`
    /// ([`BinFormatError::UnknownMetric`]).
    ///
    /// Answer-identical to [`Snapshot::from_efdb`] and to loading the same
    /// file through [`efd_core::binfmt::read_dictionary`] and
    /// [`Snapshot::freeze`].
    ///
    /// ```
    /// use efd_core::{binfmt, EfdDictionary, Query, RoundingDepth};
    /// use efd_serve::{Recognize, Snapshot};
    /// use efd_telemetry::catalog::small_catalog;
    /// use efd_telemetry::{AppLabel, Interval, NodeId};
    ///
    /// let catalog = small_catalog();
    /// let metric = catalog.id("nr_mapped_vmstat").unwrap();
    /// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
    /// for (node, mean) in [6020.0, 6019.0].into_iter().enumerate() {
    ///     dict.insert_raw(metric, NodeId(node as u16), Interval::PAPER_DEFAULT,
    ///                     mean, &AppLabel::new("ft", "X"));
    /// }
    /// let bytes = binfmt::write(&dict.to_parts(), &catalog);
    ///
    /// // Cold start: check the bytes once, thaw the view.
    /// let view = binfmt::check(&bytes).unwrap();
    /// let snap = Snapshot::from_view(&view, &catalog, 8).unwrap();
    /// let q = Query::from_node_means(metric, Interval::PAPER_DEFAULT, &[6001.0, 5999.0]);
    /// assert_eq!(snap.recognize(&q).verdict, dict.recognize(&q).verdict);
    /// assert_eq!(snap.len(), dict.len());
    /// ```
    pub fn from_view(
        view: &EfdbView<'_>,
        catalog: &MetricCatalog,
        shards: usize,
    ) -> Result<Self, BinFormatError> {
        let metric_ids = view.resolve_metrics(catalog)?;
        let (apps, labels, label_app) = view.label_tables();
        let postings = view.postings();
        let entries = view.keys().iter().map(|r| {
            let fp = Fingerprint::from_rounded(
                metric_ids[r.metric as usize],
                r.node,
                r.interval,
                f64::from_bits(r.mean_bits),
            );
            let ids = postings
                .label_ids(r.postings_off)
                .map(|id| LabelId::from_index(id as usize));
            (fp, ids)
        });
        Ok(Self::assemble(
            view.depth(),
            entries,
            labels,
            apps,
            label_app,
            shards,
        ))
    }

    /// Build a snapshot from an already decoded EFDB file.
    ///
    /// A validated [`Efdb`] guarantees the same invariants as a checked
    /// view, so this is [`Snapshot::from_view`] over the decoded sections:
    /// metric names resolve to ids once, then every entry becomes one map
    /// insert. Fails only with [`BinFormatError::UnknownMetric`]. Prefer
    /// [`Snapshot::from_view`] when all you have is bytes: it skips the
    /// decoded copy of every key.
    ///
    /// ```
    /// use efd_core::{binfmt, EfdDictionary, Query, RoundingDepth};
    /// use efd_serve::{Recognize, Snapshot};
    /// use efd_telemetry::catalog::small_catalog;
    /// use efd_telemetry::{AppLabel, Interval, NodeId};
    ///
    /// let catalog = small_catalog();
    /// let metric = catalog.id("nr_mapped_vmstat").unwrap();
    /// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
    /// for (node, mean) in [6020.0, 6019.0].into_iter().enumerate() {
    ///     dict.insert_raw(metric, NodeId(node as u16), Interval::PAPER_DEFAULT,
    ///                     mean, &AppLabel::new("ft", "X"));
    /// }
    /// let bytes = binfmt::write(&dict.to_parts(), &catalog);
    ///
    /// let efdb = binfmt::read(&bytes).unwrap();
    /// let snap = Snapshot::from_efdb(&efdb, &catalog, 8).unwrap();
    /// let q = Query::from_node_means(metric, Interval::PAPER_DEFAULT, &[6001.0, 5999.0]);
    /// assert_eq!(snap.recognize(&q).verdict, dict.recognize(&q).verdict);
    /// assert_eq!(snap.len(), dict.len());
    /// ```
    pub fn from_efdb(
        efdb: &Efdb,
        catalog: &MetricCatalog,
        shards: usize,
    ) -> Result<Self, BinFormatError> {
        let metric_ids = efdb.resolve_metrics(catalog)?;
        let entries = efdb.entries().iter().map(|e| {
            let fp = Fingerprint::from_rounded(
                metric_ids[e.metric as usize],
                e.node,
                e.interval,
                e.mean(),
            );
            (fp, e.labels.iter().copied())
        });
        Ok(Self::assemble(
            efdb.depth(),
            entries,
            efdb.labels().to_vec(),
            efdb.apps().to_vec(),
            efdb.label_app().to_vec(),
            shards,
        ))
    }

    /// The `(labels, apps)` postings of `fp`, if the key exists.
    #[inline]
    fn postings(&self, fp: &Fingerprint) -> Option<(&[u32], &[u32])> {
        let slot = self.shards[shard_of(fp, self.shard_bits)].get(fp)?;
        Some(self.postings_of(slot))
    }

    /// The `(labels, apps)` postings a [`Slot`] holds or points at.
    #[inline]
    fn postings_of<'s>(&'s self, slot: &'s Slot) -> (&'s [u32], &'s [u32]) {
        let [first, second] = slot;
        if *second != ARENA {
            return (std::slice::from_ref(first), std::slice::from_ref(second));
        }
        let at = *first as usize;
        let (n, m) = (self.arena[at] as usize, self.arena[at + 1] as usize);
        self.arena[at + 2..at + 2 + n + m].split_at(n)
    }

    /// Thaw back into a mutable [`EfdDictionary`] — e.g. to keep learning
    /// from a published artifact. Entries are emitted in deterministic
    /// packed-key order (the concurrent learn order is not recorded).
    pub fn to_dictionary(&self) -> EfdDictionary {
        let mut entries: Vec<(Fingerprint, Vec<LabelId>)> = self
            .shards
            .iter()
            .flat_map(|m| m.iter())
            .map(|(fp, slot)| {
                let (labels, _) = self.postings_of(slot);
                let ids = labels.iter().map(|&id| LabelId::from_index(id as usize));
                (*fp, ids.collect())
            })
            .collect();
        entries.sort_by_key(|(fp, _)| fp.pack());
        EfdDictionary::from_parts(DictionaryParts {
            depth: self.depth,
            entries,
            labels: self.labels.clone(),
            apps: self.apps.clone(),
            label_app: self.label_app.clone(),
        })
    }

    /// The rounding depth the frozen entries were built with.
    pub fn depth(&self) -> RoundingDepth {
        self.depth
    }

    /// Total number of keys across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(FxHashMap::len).sum()
    }

    /// Whether the snapshot holds no keys.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(FxHashMap::is_empty)
    }

    /// Number of hash partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Keys per shard, for load-balance inspection.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(FxHashMap::len).collect()
    }

    /// Distinct application names, in interned order.
    pub fn app_names(&self) -> &[String] {
        &self.apps
    }

    /// Distinct labels learned.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Fast-path recognition that skips building the full [`Recognition`]:
    /// returns only what the paper's evaluation scores
    /// ([`Recognition::best`]) — the recognized application, the
    /// lexicographically smallest tied application, or `None` for unknown.
    ///
    /// Agrees with `recognize(query).best()` by construction.
    pub fn best(&self, query: &Query) -> Option<&str> {
        let mut scratch = VoteScratch::default();
        self.best_with(query, &mut scratch)
    }

    /// [`Snapshot::best`] with caller-owned scratch: the zero-allocation
    /// serving hot path. No vote tables, no strings — dense app counters
    /// and a final scan. This is what
    /// [`crate::BatchRecognizer::best_batch`] runs per worker thread.
    pub fn best_with<'s>(&'s self, query: &Query, scratch: &mut VoteScratch) -> Option<&'s str> {
        keystore::best_with(self, query, scratch)
    }
}

/// The owned [`KeyStore`]: fingerprints resolve through the shard maps
/// to their `Slot`, and app votes come from each key's pre-deduplicated
/// app list (built at freeze time, so no per-point dedup set is needed).
impl KeyStore for Snapshot {
    fn depth(&self) -> RoundingDepth {
        self.depth
    }

    fn labels(&self) -> &[AppLabel] {
        &self.labels
    }

    fn apps(&self) -> &[String] {
        &self.apps
    }

    #[inline]
    fn vote(&self, fp: &Fingerprint, scratch: &mut VoteScratch, wide: bool) -> bool {
        let Some((labels, apps)) = self.postings(fp) else {
            return false;
        };
        if wide {
            for &id in labels {
                scratch.vote_label_wide(LabelId::from_index(id as usize));
            }
        } else {
            for &id in labels {
                scratch.vote_label(LabelId::from_index(id as usize));
            }
        }
        for &app in apps {
            scratch.vote_app(AppNameId::from_index(app as usize));
        }
        true
    }

    #[inline]
    fn vote_apps(&self, fp: &Fingerprint, scratch: &mut VoteScratch) -> bool {
        let Some((_, apps)) = self.postings(fp) else {
            return false;
        };
        for &app in apps {
            scratch.vote_app(AppNameId::from_index(app as usize));
        }
        true
    }
}

/// The published form as an engine backend — `recognize_into` runs the
/// shared [`keystore`] vote kernel over the shard maps: dense per-thread
/// vote counters, no locks, answers in [`Recognition::normalized`] order.
impl Recognize for Snapshot {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        keystore::recognize_with(self, query, scratch)
    }

    fn answer_into(&self, query: &Query, scratch: &mut VoteScratch, out: &mut Answer) {
        keystore::answer_with(self, query, scratch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_core::LabeledObservation;
    use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};

    const M: MetricId = MetricId(0);
    const W: Interval = Interval::PAPER_DEFAULT;

    fn toy_dict() -> EfdDictionary {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        for (app, input, means) in [
            ("ft", "X", [6020.0, 6020.0, 6020.0, 6020.0]),
            ("sp", "X", [7617.0, 7520.0, 7520.0, 7121.0]),
            ("bt", "X", [7638.0, 7540.0, 7540.0, 7140.0]),
            ("miniAMR", "Z", [10980.0; 4]),
        ] {
            d.learn(&LabeledObservation {
                label: AppLabel::new(app, input),
                query: Query::from_node_means(M, W, &means),
            });
        }
        d
    }

    fn queries() -> Vec<Query> {
        vec![
            Query::from_node_means(M, W, &[6031.0, 5988.0, 6007.0, 6044.0]),
            Query::from_node_means(M, W, &[7601.0, 7512.0, 7533.0, 7098.0]),
            Query::from_node_means(M, W, &[10951.0, 11020.0, 10990.0, 11043.0]),
            Query::from_node_means(M, W, &[1.0, 2.0, 3.0, 4.0]),
            Query::from_node_means(M, W, &[6000.0, 6000.0, 7500.0, f64::NAN]),
        ]
    }

    #[test]
    fn matches_oracle_on_every_query_at_every_shard_count() {
        let dict = toy_dict();
        for shards in [1usize, 2, 4, 8, 64] {
            let snap = Snapshot::freeze(&dict, shards);
            assert_eq!(snap.len(), dict.len());
            for q in queries() {
                let served = snap.recognize(&q);
                let oracle = dict.recognize(&q).normalized();
                assert_eq!(served, oracle, "shards={shards}");
                assert_eq!(snap.best(&q), oracle.best(), "shards={shards}");
            }
        }
    }

    #[test]
    fn shard_sizes_partition_all_keys() {
        let snap = Snapshot::freeze(&toy_dict(), 8);
        assert_eq!(snap.shard_count(), 8);
        assert_eq!(snap.shard_sizes().iter().sum::<usize>(), snap.len());
    }

    #[test]
    fn thaw_preserves_answers_and_supports_further_learning() {
        let dict = toy_dict();
        let snap = Snapshot::freeze(&dict, 4);
        let mut thawed = snap.to_dictionary();
        for q in queries() {
            assert_eq!(
                thawed.recognize(&q).normalized(),
                dict.recognize(&q).normalized()
            );
        }
        // "Learning new applications is as simple as adding new keys."
        thawed.learn(&LabeledObservation {
            label: AppLabel::new("kripke", "Y"),
            query: Query::from_node_means(M, W, &[8730.0; 4]),
        });
        let q = Query::from_node_means(M, W, &[8700.0; 4]);
        assert_eq!(thawed.recognize(&q).best(), Some("kripke"));
    }

    #[test]
    fn from_parts_merges_duplicate_fingerprints_like_core() {
        use efd_core::dictionary::LabelId;

        let dict = toy_dict();
        let mut parts = dict.to_parts();
        let fp = parts.entries[0].0;
        parts.entries.push((fp, vec![LabelId::from_index(1), LabelId::from_index(0)]));

        let snap = Snapshot::from_parts(parts.clone(), 4);
        let oracle = EfdDictionary::from_parts(parts);
        assert_eq!(snap.len(), oracle.len());
        for q in queries() {
            assert_eq!(snap.recognize(&q), oracle.recognize(&q).normalized());
        }
    }

    #[test]
    fn from_efdb_matches_freeze_on_every_query() {
        let catalog = efd_telemetry::catalog::small_catalog();
        let dict = toy_dict();
        let bytes = efd_core::binfmt::write(&dict.to_parts(), &catalog);
        let efdb = efd_core::binfmt::read(&bytes).unwrap();
        for shards in [1usize, 4, 16] {
            let via_efdb = Snapshot::from_efdb(&efdb, &catalog, shards).unwrap();
            let via_freeze = Snapshot::freeze(&dict, shards);
            assert_eq!(via_efdb.len(), via_freeze.len());
            assert_eq!(via_efdb.depth(), dict.depth());
            assert_eq!(via_efdb.app_names(), via_freeze.app_names());
            for q in queries() {
                assert_eq!(
                    via_efdb.recognize(&q),
                    via_freeze.recognize(&q),
                    "shards={shards}"
                );
                assert_eq!(via_efdb.best(&q), via_freeze.best(&q));
            }
        }
    }

    #[test]
    fn from_efdb_rejects_unresolvable_metric() {
        let catalog = efd_telemetry::catalog::small_catalog();
        let bytes = efd_core::binfmt::write(&toy_dict().to_parts(), &catalog);
        let efdb = efd_core::binfmt::read(&bytes).unwrap();
        let empty = efd_telemetry::MetricCatalog::new();
        assert!(matches!(
            Snapshot::from_efdb(&efdb, &empty, 4),
            Err(efd_core::BinFormatError::UnknownMetric(_))
        ));
    }

    #[test]
    fn from_view_rejects_unresolvable_metric() {
        let catalog = efd_telemetry::catalog::small_catalog();
        let bytes = efd_core::binfmt::write(&toy_dict().to_parts(), &catalog);
        let view = efd_core::binfmt::check(&bytes).unwrap();
        let empty = efd_telemetry::MetricCatalog::new();
        assert!(matches!(
            Snapshot::from_view(&view, &empty, 4),
            Err(efd_core::BinFormatError::UnknownMetric(_))
        ));
    }

    #[test]
    fn from_view_matches_from_efdb_and_freeze() {
        let catalog = efd_telemetry::catalog::small_catalog();
        let dict = toy_dict();
        let bytes = efd_core::binfmt::write(&dict.to_parts(), &catalog);
        let view = efd_core::binfmt::check(&bytes).unwrap();
        let efdb = efd_core::binfmt::read(&bytes).unwrap();
        for shards in [1usize, 4, 16] {
            let via_view = Snapshot::from_view(&view, &catalog, shards).unwrap();
            let via_efdb = Snapshot::from_efdb(&efdb, &catalog, shards).unwrap();
            assert_eq!(via_view.len(), dict.len());
            assert_eq!(via_view.shard_sizes(), via_efdb.shard_sizes());
            assert_eq!(
                via_view.arena, via_efdb.arena,
                "same file order, same arena"
            );
            for q in queries() {
                assert_eq!(
                    via_view.recognize(&q),
                    via_efdb.recognize(&q),
                    "shards={shards}"
                );
                assert_eq!(via_view.recognize(&q), dict.recognize(&q).normalized());
            }
        }
    }

    #[test]
    fn arena_dedups_apps_in_first_occurrence_order() {
        // One key, four labels over two apps: ft, sp, ft, sp.
        let mut dict = EfdDictionary::new(RoundingDepth::new(2));
        for (app, input) in [("ft", "X"), ("sp", "X"), ("ft", "Y"), ("sp", "Y")] {
            dict.insert_raw(M, NodeId(0), W, 6020.0, &AppLabel::new(app, input));
        }
        // A second key with one label stays inline, off the arena.
        dict.insert_raw(M, NodeId(1), W, 6020.0, &AppLabel::new("sp", "Y"));
        let snap = Snapshot::freeze(&dict, 2);
        assert_eq!(&*snap.arena, &[4, 2, 0, 1, 2, 3, 0, 1]);
        let q = Query::from_node_means(M, W, &[6001.0, 5990.0]);
        assert_eq!(snap.recognize(&q), dict.recognize(&q).normalized());
        assert_eq!(snap.to_dictionary().to_parts().entries.len(), 2);
    }

    #[test]
    fn empty_snapshot_answers_unknown() {
        let snap = Snapshot::freeze(&EfdDictionary::new(RoundingDepth::new(2)), 8);
        assert!(snap.is_empty());
        let r = snap.recognize(&Query::from_node_means(M, W, &[1.0]));
        assert_eq!(r.verdict, efd_core::Verdict::Unknown);
        assert_eq!(snap.best(&Query::from_node_means(M, W, &[1.0])), None);
    }
}
