//! The published, immutable form of a dictionary: the one read-only
//! store every frozen dictionary is served from.
//!
//! A [`Snapshot`] is what the serving read path actually touches: no
//! locks, no interior mutability. Publication follows the classic
//! read-copy-update shape: a learner (an [`crate::ShardedDictionary`] or
//! a plain [`EfdDictionary`]) freezes its current state, the new
//! `Arc<Snapshot>` is swapped into the serving path, and in-flight
//! readers finish on the old one.
//!
//! ## Layout
//!
//! The store keeps its keys in the EFDB layout (`docs/FORMAT.md`): the
//! fixed 26-byte key records and the postings blob they point into. A
//! loaded file keeps its checked buffer as is ([`Snapshot::load`] moves
//! it in, nothing is copied); a frozen dictionary lays out the same two
//! sections in memory, with catalog ids as metric indices. A hash index
//! built at load time in one pass over the records finds a key:
//!
//! ```text
//! metrics : MetricId -> metric index of the records (dense table)
//! index   : [record, app] per slot, open addressing, linear probing
//!             app = the key's one application when all its labels
//!                   belong to it, MULTI otherwise
//!                  │ record
//!                  v
//! bytes   : … | metric node start end mean_bits postings_off | …   (records)
//!           … | n label_0 … label_{n-1} | …                        (postings)
//! ```
//!
//! A probe hashes the record's first 22 bytes (read as three `u64`
//! words) with `FxMapHasher`, walks the slots, and compares those words
//! with the record a slot points at. The index has at least twice as
//! many slots as keys, so probe chains stay short. Most keys belong to
//! one application, and the verdict-only path ([`Recognize::answer_into`])
//! votes a slot's inline app without touching the postings; full
//! recognition and keys of several apps walk the postings in place.
//!
//! ## Probe pipeline
//!
//! `recognize_into`, `answer_into` and `best_with` all run one pipeline.
//! It takes the query's points in chunks of up to `PROBE_CHUNK` (16)
//! and makes four passes over each chunk:
//!
//! 1. round and hash every point (a metric the store has no key for,
//!    or a NaN or infinite mean, is a miss here);
//! 2. read every point's home slot of the index;
//! 3. compare records and walk probe chains;
//! 4. vote the matched keys in point order.
//!
//! No load of pass 2 or 3 depends on another point's, so on a store
//! larger than the CPU caches (a 1M-key store is 48 MiB) a chunk's
//! index and record misses are in flight together instead of one after
//! another. Pass 4 runs in point order, so the votes, and so the
//! answers, are those of a point-at-a-time loop. A single probe
//! ([`KeyStore::vote`], [`KeyStore::vote_apps`]) is the one-point case:
//! it reads its home slot and walks the chain through the same helper.

use std::hash::Hasher;
use std::ops::Range;

use efd_core::binfmt::{self, BinFormatError, Efdb, KeyRecords, Postings, KEY_RECORD_LEN};
use efd_core::dictionary::{AppNameId, LabelId};
use efd_core::engine::{Answer, Recognize, VoteScratch};
use efd_core::{DictionaryParts, EfdDictionary, Fingerprint, Query, Recognition, RoundingDepth};
use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::{AppLabel, MetricId};
use efd_util::hash::FxMapHasher;

use crate::keystore::KeyStore;

/// The record word of a vacant index slot, and the metrics-table entry
/// of a catalog metric the store holds no key for.
const VACANT: u32 = u32::MAX;

/// The app word of an index slot whose key's labels span several
/// applications (or none): votes walk its postings.
const MULTI: u32 = u32::MAX;

/// Query points probed as one batch: enough independent index and
/// record loads in flight to overlap their cache misses, few enough
/// that a chunk's keys stay on the stack.
const PROBE_CHUNK: usize = 16;

/// What the pipeline's last pass counts for each matched point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Votes {
    /// Only the deduplicated apps: a verdict needs no label tallies.
    Apps,
    /// Labels and deduplicated apps, for a full [`Recognition`].
    Labels,
}

/// An immutable dictionary served from EFDB-layout bytes through a
/// load-time hash index.
///
/// Cheap to share (`Arc<Snapshot>`), safe to read from any number of
/// threads, and answer-identical to the [`EfdDictionary`] it holds
/// (modulo [`Recognition::normalized`] ordering). Recognition goes
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
/// let snap = Snapshot::freeze(&dict);
/// let q = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[6001.0, 5999.0]);
/// // Same verdict as the live dictionary, from an immutable shared form.
/// assert_eq!(snap.recognize(&q).verdict, dict.recognize(&q).verdict);
/// assert_eq!(snap.len(), dict.len());
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot {
    depth: RoundingDepth,
    /// Holds the key records and the postings blob: a whole checked
    /// EFDB file, or just those two sections laid out in memory.
    bytes: Vec<u8>,
    records: Range<usize>,
    postings: Range<usize>,
    /// Open-addressed `[record index, app]` slots, a power of two long.
    index: Box<[[u32; 2]]>,
    /// Catalog [`MetricId`] → the records' metric index, [`VACANT`]
    /// for a metric no key uses.
    metrics: Box<[u32]>,
    /// The records' metric index → catalog [`MetricId`].
    metric_ids: Vec<MetricId>,
    labels: Vec<AppLabel>,
    apps: Vec<String>,
    label_app: Vec<AppNameId>,
}

/// The first 22 bytes of a key record (metric index, node, interval,
/// mean bits) as three little-endian words, the last one 6 bytes wide.
#[inline]
fn record_words(r: &[u8]) -> [u64; 3] {
    let word = |at: usize| u64::from_le_bytes(r[at..at + 8].try_into().expect("8 bytes"));
    [word(0), word(8), word(16) & 0xFFFF_FFFF_FFFF]
}

/// [`record_words`] of the record `fp` would have under metric index
/// `metric`.
#[inline]
fn key_words(metric: u32, fp: &Fingerprint) -> [u64; 3] {
    let start = u64::from(fp.interval.start);
    let end = u64::from(fp.interval.end);
    let mean = fp.mean().to_bits();
    [
        u64::from(metric) | u64::from(fp.node.0) << 32 | (start & 0xFFFF) << 48,
        start >> 16 | end << 16 | (mean & 0xFFFF) << 48,
        mean >> 16,
    ]
}

/// Home slot of a key's words in an index of `mask + 1` slots.
#[inline]
fn home_slot(words: &[u64; 3], mask: usize) -> usize {
    let mut h = FxMapHasher::default();
    for &w in words {
        h.write_u64(w);
    }
    h.finish() as usize & mask
}

impl Snapshot {
    /// Freeze [`DictionaryParts`]. Duplicate fingerprints across entries
    /// (hand-concatenated parts) merge their label lists, duplicates
    /// pruned — same semantics as [`EfdDictionary::from_parts`].
    ///
    /// # Panics
    ///
    /// Panics if the parts are internally inconsistent (out-of-range ids),
    /// like [`EfdDictionary::from_parts`]. Parts produced by
    /// [`EfdDictionary::into_parts`] are always consistent.
    pub fn from_parts(parts: DictionaryParts) -> Self {
        // Canonicalize through the core dictionary: one shared
        // implementation of key merging, per-list dedup, and consistency
        // validation (which is where the documented panics originate).
        let parts = EfdDictionary::from_parts(parts).into_parts();
        let mut bytes = Vec::new();
        let postings = binfmt::write_key_records(&mut bytes, &parts.entries, |m| m.0);
        let records = 0..bytes.len();
        bytes.extend_from_slice(&postings);
        let postings = records.end..bytes.len();
        let metrics = parts.entries.iter().map(|(fp, _)| fp.metric.0 + 1).max();
        Self::assemble(
            parts.depth,
            bytes,
            records,
            postings,
            (0..metrics.unwrap_or(0)).map(MetricId).collect(),
            (parts.apps, parts.labels, parts.label_app),
        )
    }

    /// Freeze a live dictionary without consuming it (clones the content;
    /// the dictionary can keep learning and re-publish later).
    pub fn freeze(dict: &EfdDictionary) -> Self {
        Self::from_parts(dict.to_parts())
    }

    /// Serve an EFDB file: check the bytes once, then keep the buffer
    /// itself — it is moved in, not copied — and index its key records
    /// in place. The daemon's cold start, `SWAP` and SIGHUP all load
    /// through here.
    ///
    /// Fails with the [`BinFormatError`] [`binfmt::check`] reports on
    /// corrupt bytes, or [`BinFormatError::UnknownMetric`] when the file
    /// names a metric `catalog` does not know. Answer-identical to
    /// loading the same file through [`binfmt::read_dictionary`] and
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
    /// // Cold start: check the bytes once and serve them.
    /// let snap = Snapshot::load(bytes, &catalog).unwrap();
    /// let q = Query::from_node_means(metric, Interval::PAPER_DEFAULT, &[6001.0, 5999.0]);
    /// assert_eq!(snap.recognize(&q).verdict, dict.recognize(&q).verdict);
    /// assert_eq!(snap.len(), dict.len());
    /// ```
    pub fn load(bytes: Vec<u8>, catalog: &MetricCatalog) -> Result<Self, BinFormatError> {
        let view = binfmt::check(&bytes)?;
        let metric_ids = view.resolve_metrics(catalog)?;
        let tables = view.label_tables();
        let (depth, records, postings) = (
            view.depth(),
            view.key_records_range(),
            view.postings_blob_range(),
        );
        Ok(Self::assemble(
            depth, bytes, records, postings, metric_ids, tables,
        ))
    }

    /// Build a snapshot from an already decoded EFDB file. `shards` is
    /// ignored: the store has no partitions.
    ///
    /// Kept only for the benchmark's trace (`perfbench/`), which still
    /// times a decode-then-thaw load; it goes once that trace replays
    /// [`Snapshot::load`] (ROADMAP, item 1). Fails only with
    /// [`BinFormatError::UnknownMetric`].
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
        _shards: usize,
    ) -> Result<Self, BinFormatError> {
        Ok(Self::from_parts(efdb.to_dictionary(catalog)?.into_parts()))
    }

    /// The one build every constructor funnels through: index the
    /// key records `bytes[records]` (canonical: unique keys, label ids
    /// in range, postings offsets into `bytes[postings]`) in one pass.
    /// `metric_ids` maps the records' metric indices to catalog ids, and
    /// `tables` holds the app names, labels and each label's app, as
    /// [`binfmt::EfdbView::label_tables`] returns them.
    fn assemble(
        depth: RoundingDepth,
        bytes: Vec<u8>,
        records: Range<usize>,
        postings: Range<usize>,
        metric_ids: Vec<MetricId>,
        (apps, labels, label_app): (Vec<String>, Vec<AppLabel>, Vec<AppNameId>),
    ) -> Self {
        assert!(
            apps.len() < MULTI as usize,
            "app table too large for inline slots"
        );
        let width = metric_ids.iter().map(|m| m.0 as usize + 1).max();
        let mut metrics = vec![VACANT; width.unwrap_or(0)].into_boxed_slice();
        for (at, id) in metric_ids.iter().enumerate() {
            metrics[id.0 as usize] = at as u32;
        }

        let keys = KeyRecords::over(&bytes[records.clone()]);
        let blob = Postings::over(&bytes[postings.clone()]);
        let mut index = vec![[VACANT, MULTI]; (2 * keys.len()).next_power_of_two()];
        let mask = index.len() - 1;
        for (i, r) in keys.bytes().chunks_exact(KEY_RECORD_LEN).enumerate() {
            let off = u32::from_le_bytes(r[22..26].try_into().expect("4 bytes"));
            let mut apps = blob.label_ids(off).map(|id| label_app[id as usize]);
            let app = match apps.next() {
                Some(first) if apps.all(|a| a == first) => first.index() as u32,
                _ => MULTI,
            };
            let mut slot = home_slot(&record_words(r), mask);
            while index[slot][0] != VACANT {
                slot = (slot + 1) & mask;
            }
            index[slot] = [i as u32, app];
        }
        Self {
            depth,
            bytes,
            records,
            postings,
            index: index.into_boxed_slice(),
            metrics,
            metric_ids,
            labels,
            apps,
            label_app,
        }
    }

    /// The raw key records.
    #[inline]
    fn keys(&self) -> &[u8] {
        &self.bytes[self.records.clone()]
    }

    /// The postings blob the key records point into.
    #[inline]
    fn blob(&self) -> Postings<'_> {
        Postings::over(&self.bytes[self.postings.clone()])
    }

    /// The record words `fp` would have here and their home slot;
    /// `None` when no key uses `fp`'s metric.
    #[inline]
    fn home(&self, fp: &Fingerprint) -> Option<([u64; 3], usize)> {
        let metric = *self.metrics.get(fp.metric.0 as usize)?;
        if metric == VACANT {
            return None;
        }
        let key = key_words(metric, fp);
        Some((key, home_slot(&key, self.index.len() - 1)))
    }

    /// The chain walk every probe goes through: starting at `slot`,
    /// whose entry `entry` the caller has already read, compare records
    /// and step to the next slot until `key`'s record or a vacant slot.
    /// Returns the key's postings offset and inline app ([`MULTI`] if
    /// none), if it exists.
    #[inline]
    fn walk(&self, key: &[u64; 3], mut slot: usize, mut entry: [u32; 2]) -> Option<(u32, u32)> {
        let keys = self.keys();
        let mask = self.index.len() - 1;
        loop {
            let [record, app] = entry;
            if record == VACANT {
                return None;
            }
            let at = record as usize * KEY_RECORD_LEN;
            let r = &keys[at..at + KEY_RECORD_LEN];
            if record_words(r) == *key {
                let off = u32::from_le_bytes(r[22..26].try_into().expect("4 bytes"));
                return Some((off, app));
            }
            slot = (slot + 1) & mask;
            entry = self.index[slot];
        }
    }

    /// `fp`'s postings offset and inline app, if the key exists: the
    /// pipeline's one-point case.
    #[inline]
    fn find(&self, fp: &Fingerprint) -> Option<(u32, u32)> {
        let (key, slot) = self.home(fp)?;
        self.walk(&key, slot, self.index[slot])
    }

    /// Vote a found key's labels (wide SWAR counters when `wide` is set)
    /// and its deduplicated apps.
    #[inline]
    fn vote_labels(&self, off: u32, scratch: &mut VoteScratch, wide: bool) {
        scratch.begin_point();
        self.blob().for_each_label(off, |id| {
            let label = LabelId::from_index(id as usize);
            if wide {
                scratch.vote_label_wide(label);
            } else {
                scratch.vote_label(label);
            }
            scratch.vote_app_deduped(self.label_app[id as usize]);
        });
    }

    /// Vote a found key's deduplicated apps: its inline app, or the apps
    /// of its postings when its labels span several.
    #[inline]
    fn vote_apps_of(&self, off: u32, app: u32, scratch: &mut VoteScratch) {
        if app != MULTI {
            scratch.vote_app(AppNameId::from_index(app as usize));
            return;
        }
        scratch.begin_point();
        self.blob().for_each_label(off, |id| {
            scratch.vote_app_deduped(self.label_app[id as usize]);
        });
    }

    /// The probe pipeline (module docs): probe every point of `query`
    /// chunk by chunk and vote the matched keys into `scratch` in point
    /// order. Returns the points whose key exists. Label votes use the
    /// widened counters whenever no label's 16-bit lane can saturate
    /// (one vote per label per matched point, so
    /// `points <= WIDE_VOTE_LIMIT` bounds every lane); with
    /// [`Votes::Apps`] the label counters are not even grown.
    fn vote_points(&self, query: &Query, scratch: &mut VoteScratch, votes: Votes) -> usize {
        let labels = if votes == Votes::Labels {
            self.labels.len()
        } else {
            0
        };
        scratch.ensure(labels, self.apps.len());
        let wide = query.points.len() <= VoteScratch::WIDE_VOTE_LIMIT;
        let mut matched = 0usize;
        for chunk in query.points.chunks(PROBE_CHUNK) {
            let n = chunk.len();
            // 1. Round and hash every point.
            let mut homes = [None; PROBE_CHUNK];
            for (home, p) in homes.iter_mut().zip(chunk) {
                *home = Fingerprint::from_raw(p.metric, p.node, p.interval, p.mean, self.depth)
                    .and_then(|fp| self.home(&fp));
            }
            // 2. Read every home slot.
            let mut entries = [[VACANT, MULTI]; PROBE_CHUNK];
            for (entry, home) in entries.iter_mut().zip(&homes[..n]) {
                if let Some((_, slot)) = *home {
                    *entry = self.index[slot];
                }
            }
            // 3. Compare records and walk probe chains.
            let mut found = [None; PROBE_CHUNK];
            for ((hit, home), &entry) in found.iter_mut().zip(&homes[..n]).zip(&entries) {
                if let Some((key, slot)) = home {
                    *hit = self.walk(key, *slot, entry);
                }
            }
            // 4. Vote in point order.
            for &(off, app) in found[..n].iter().flatten() {
                matched += 1;
                match votes {
                    Votes::Apps => self.vote_apps_of(off, app, scratch),
                    Votes::Labels => self.vote_labels(off, scratch, wide),
                }
            }
        }
        matched
    }

    /// Thaw back into a mutable [`EfdDictionary`] — e.g. to keep learning
    /// from a published artifact. Entries are emitted in deterministic
    /// packed-key order (the concurrent learn order is not recorded).
    pub fn to_dictionary(&self) -> EfdDictionary {
        let blob = self.blob();
        let mut entries: Vec<(Fingerprint, Vec<LabelId>)> = KeyRecords::over(self.keys())
            .iter()
            .map(|r| {
                let fp = Fingerprint::from_rounded(
                    self.metric_ids[r.metric as usize],
                    r.node,
                    r.interval,
                    f64::from_bits(r.mean_bits),
                );
                let ids = blob.label_ids(r.postings_off);
                (fp, ids.map(|id| LabelId::from_index(id as usize)).collect())
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

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.records.len() / KEY_RECORD_LEN
    }

    /// Whether the snapshot holds no keys.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Bytes held resident: the buffer (a loaded file in full) plus the
    /// hash index.
    pub fn byte_len(&self) -> usize {
        self.bytes.len() + std::mem::size_of_val(&*self.index)
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
        self.vote_points(query, scratch, Votes::Apps);
        scratch.finish_best(&self.apps)
    }
}

/// One probe through the pipeline's chain walk; label votes stream from
/// the postings blob, and app votes dedup per point through the scratch
/// ([`VoteScratch::vote_app_deduped`]), exactly the oracle's semantics.
/// [`KeyStore::vote_apps`] votes a key's inline app directly.
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
        let Some((off, _)) = self.find(fp) else {
            return false;
        };
        self.vote_labels(off, scratch, wide);
        true
    }

    #[inline]
    fn vote_apps(&self, fp: &Fingerprint, scratch: &mut VoteScratch) -> bool {
        let Some((off, app)) = self.find(fp) else {
            return false;
        };
        self.vote_apps_of(off, app, scratch);
        true
    }
}

/// The published form as an engine backend — every call runs the probe
/// pipeline: dense per-thread vote counters, no locks, answers in
/// [`Recognition::normalized`] order. `answer_into` counts no label
/// votes, so a warm scratch and answer make it allocation-free.
impl Recognize for Snapshot {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        let matched = self.vote_points(query, scratch, Votes::Labels);
        scratch.finish(&self.labels, &self.apps, matched, query.points.len())
    }

    fn answer_into(&self, query: &Query, scratch: &mut VoteScratch, out: &mut Answer) {
        let matched = self.vote_points(query, scratch, Votes::Apps);
        scratch.finish_answer(&self.apps, matched, query.points.len(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedDictionary;
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
        // Frozen directly, and published by a live sharded dictionary of
        // any shard count: one store, one set of answers.
        let dict = toy_dict();
        let mut snaps = vec![("freeze".to_string(), Snapshot::freeze(&dict))];
        for shards in [1usize, 2, 4, 8, 64] {
            let live = ShardedDictionary::from_parts(dict.to_parts(), shards);
            snaps.push((format!("shards={shards}"), live.snapshot()));
        }
        for (how, snap) in snaps {
            assert_eq!(snap.len(), dict.len());
            for q in queries() {
                let served = snap.recognize(&q);
                let oracle = dict.recognize(&q).normalized();
                assert_eq!(served, oracle, "{how}");
                assert_eq!(snap.best(&q), oracle.best(), "{how}");
            }
        }
    }

    #[test]
    fn thaw_preserves_answers_and_supports_further_learning() {
        let dict = toy_dict();
        let snap = Snapshot::freeze(&dict);
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
        let dict = toy_dict();
        let mut parts = dict.to_parts();
        let fp = parts.entries[0].0;
        parts
            .entries
            .push((fp, vec![LabelId::from_index(1), LabelId::from_index(0)]));

        let snap = Snapshot::from_parts(parts.clone());
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
        let bytes = binfmt::write(&dict.to_parts(), &catalog);
        let efdb = binfmt::read(&bytes).unwrap();
        let via_efdb = Snapshot::from_efdb(&efdb, &catalog, 4).unwrap();
        let via_freeze = Snapshot::freeze(&dict);
        assert_eq!(via_efdb.len(), via_freeze.len());
        assert_eq!(via_efdb.depth(), dict.depth());
        assert_eq!(via_efdb.app_names(), via_freeze.app_names());
        for q in queries() {
            assert_eq!(via_efdb.recognize(&q), via_freeze.recognize(&q));
            assert_eq!(via_efdb.best(&q), via_freeze.best(&q));
        }
    }

    #[test]
    fn from_efdb_rejects_unresolvable_metric() {
        let catalog = efd_telemetry::catalog::small_catalog();
        let bytes = binfmt::write(&toy_dict().to_parts(), &catalog);
        let efdb = binfmt::read(&bytes).unwrap();
        let empty = efd_telemetry::MetricCatalog::new();
        assert!(matches!(
            Snapshot::from_efdb(&efdb, &empty, 4),
            Err(BinFormatError::UnknownMetric(_))
        ));
    }

    #[test]
    fn load_matches_from_efdb_and_freeze() {
        let catalog = efd_telemetry::catalog::small_catalog();
        let dict = toy_dict();
        let bytes = binfmt::write(&dict.to_parts(), &catalog);
        let efdb = binfmt::read(&bytes).unwrap();
        let file = bytes.as_ptr();
        let loaded = Snapshot::load(bytes, &catalog).unwrap();
        assert_eq!(loaded.bytes.as_ptr(), file, "the file buffer is moved in");
        let via_efdb = Snapshot::from_efdb(&efdb, &catalog, 1).unwrap();
        assert_eq!(loaded.len(), dict.len());
        // Same records and postings, whichever way they were laid out.
        assert_eq!(loaded.blob().bytes(), via_efdb.blob().bytes());
        for q in queries() {
            assert_eq!(loaded.recognize(&q), via_efdb.recognize(&q));
            assert_eq!(loaded.recognize(&q), dict.recognize(&q).normalized());
        }
    }

    #[test]
    fn inline_app_only_for_keys_of_one_app() {
        // Key A: four labels over two apps (ft, sp, ft, sp). Key B: two
        // labels of one app. Key C: one label.
        let mut dict = EfdDictionary::new(RoundingDepth::new(2));
        for (app, input) in [("ft", "X"), ("sp", "X"), ("ft", "Y"), ("sp", "Y")] {
            dict.insert_raw(M, NodeId(0), W, 6020.0, &AppLabel::new(app, input));
        }
        for input in ["X", "Y"] {
            dict.insert_raw(M, NodeId(1), W, 6020.0, &AppLabel::new("sp", input));
        }
        dict.insert_raw(M, NodeId(2), W, 6020.0, &AppLabel::new("ft", "X"));
        let snap = Snapshot::freeze(&dict);
        let fp = |node| Fingerprint::from_rounded(M, NodeId(node), W, 6000.0);
        assert_eq!(snap.find(&fp(0)).map(|(_, app)| app), Some(MULTI));
        assert_eq!(snap.find(&fp(1)).map(|(_, app)| app), Some(1), "sp");
        assert_eq!(snap.find(&fp(2)).map(|(_, app)| app), Some(0), "ft");
        assert_eq!(snap.find(&fp(3)), None);
        let q = Query::from_node_means(M, W, &[6001.0, 5990.0, 6010.0]);
        assert_eq!(snap.recognize(&q), dict.recognize(&q).normalized());
        let mut answer = Answer::default();
        snap.answer_into(&q, &mut VoteScratch::default(), &mut answer);
        assert_eq!(answer, Answer::from(&dict.recognize(&q)));
        assert_eq!(snap.to_dictionary().to_parts().entries.len(), 3);
    }

    #[test]
    fn adjacent_keys_form_probe_chains_that_resolve() {
        // Consecutive means on one metric and node: keys that differ only
        // in a few mean bits.
        let mut dict = EfdDictionary::new(RoundingDepth::new(6));
        for i in 0..4096 {
            let label = AppLabel::new(format!("app{}", i % 7), "X");
            dict.insert_raw(M, NodeId(0), W, 100_000.0 + i as f64, &label);
        }
        let snap = Snapshot::freeze(&dict);
        let mask = snap.index.len() - 1;
        let displaced = snap
            .index
            .iter()
            .enumerate()
            .filter(|(slot, [record, _])| {
                let at = *record as usize * KEY_RECORD_LEN;
                *record != VACANT
                    && home_slot(&record_words(&snap.keys()[at..at + KEY_RECORD_LEN]), mask)
                        != *slot
            })
            .count();
        assert!(displaced > 100, "only {displaced} keys off their home slot");
        for i in 0..4096 {
            let fp = Fingerprint::from_rounded(M, NodeId(0), W, 100_000.0 + i as f64);
            let (_, app) = snap.find(&fp).expect("every key resolves");
            assert_eq!(app, (i % 7) as u32);
        }
        let miss = Fingerprint::from_rounded(M, NodeId(0), W, 104_096.0);
        assert_eq!(snap.find(&miss), None);
    }

    #[test]
    fn empty_snapshot_answers_unknown() {
        let snap = Snapshot::freeze(&EfdDictionary::new(RoundingDepth::new(2)));
        assert!(snap.is_empty());
        let r = snap.recognize(&Query::from_node_means(M, W, &[1.0]));
        assert_eq!(r.verdict, efd_core::Verdict::Unknown);
        assert_eq!(snap.best(&Query::from_node_means(M, W, &[1.0])), None);
    }
}
