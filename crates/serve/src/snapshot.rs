//! The published, immutable form of a dictionary: the one read-only
//! store every frozen dictionary is served from.
//!
//! A [`Snapshot`] is what the serving read path actually touches: no
//! locks, no interior mutability. Publication follows the classic
//! read-copy-update shape: a learner (the live
//! [`crate::ShardedDictionary`] or a plain [`EfdDictionary`]) freezes
//! its current state, the new `Arc<Snapshot>` is swapped into the
//! serving path, and in-flight readers finish on the old one.
//!
//! ## Layout
//!
//! The store keeps its keys in the EFDB layout (`docs/FORMAT.md`): the
//! fixed 26-byte key records and the postings blob they point into. A
//! loaded file keeps its checked buffer ([`Snapshot::load`] moves it in,
//! nothing is decoded); a frozen dictionary lays out the same two
//! sections in memory, with catalog ids as metric indices. Either way the
//! postings are then interned in place: each distinct label list is kept
//! once, every record's `postings_off` is pointed at that copy, and the
//! buffer after the copies is released before the index is allocated. A
//! 1M-key store of 50 one-label lists keeps 400 bytes of its 8 MB blob,
//! and loading its file peaks at the larger of the file and records +
//! index rather than their sum. A hash index built at load time over
//! the records (see "Index build") finds a key:
//!
//! ```text
//! metrics : MetricId -> metric index of the records (dense table)
//! index   : one u32 per slot, open addressing, linear probing
//!             bits 31..b  app    = the key's one application when all
//!                                  its labels belong to it and its id
//!                                  fits the field; all ones (MULTI)
//!                                  otherwise
//!             bits b-1..0 record = the key's record number
//!             (b = bit length of the key count; all ones = vacant)
//!                  │ record
//!                  v
//! bytes   : … | metric node start end mean_bits postings_off | …   (records)
//!           … | n label_0 … label_{n-1} | …                        (postings)
//! ```
//!
//! A probe hashes the record's first 22 bytes (read as three `u64`
//! words) with `FxMapHasher`, walks the slots, and compares those words
//! with the record a slot points at. The index has at least twice as
//! many slots as keys, so probe chains stay short. Every record number
//! is below `2^b - 1`, so no key's slot is all ones, the vacant slot.
//! A 1M-key store packs 20 record bits and 12 app bits, a 10k-key store
//! 14 and 18; an app id too wide for its field is voted through its
//! postings, like a key of several apps. Most keys belong to
//! one application, and the verdict-only path ([`Recognize::answer_into`])
//! votes a slot's inline app without touching the postings; full
//! recognition and keys of several apps walk the postings in place.
//!
//! ## Probe pipeline
//!
//! `recognize_into` and `answer_into` both run one pipeline.
//! It takes the query's points in chunks of up to `PROBE_CHUNK` (16)
//! and makes four passes over each chunk:
//!
//! 1. round and hash every point (a metric the store has no key for is
//!    a miss here before its mean is rounded, and so is a NaN or
//!    infinite mean);
//! 2. read every point's home slot of the index;
//! 3. compare records and walk probe chains;
//! 4. vote the matched keys in point order.
//!
//! No load of pass 2 or 3 depends on another point's, so on a store
//! larger than the CPU caches (a 1M-key store is ~33 MiB) a chunk's
//! index and record misses are in flight together instead of one after
//! another. Pass 4 runs in point order, so the votes, and so the
//! answers, are those of a point-at-a-time loop. A single probe
//! ([`KeyStore::vote`], [`KeyStore::vote_apps`]) is the one-point case:
//! it reads its home slot and walks the chain through the same helper.
//!
//! ## Index build
//!
//! Every constructor builds the index the same way, in the probe
//! pipeline's shape. Every slot is set vacant first, in contiguous
//! parts of at least 1 MiB, one per core (`efd_util::parallel_parts_mut`),
//! so the page faults of an 8 MiB index are taken on every core rather
//! than one. Then the build takes the records in chunks of `BUILD_CHUNK`
//! (32) and makes three passes over each chunk:
//!
//! 1. read each record's words and postings for its home slot and
//!    inline app;
//! 2. read every home slot;
//! 3. place the records in record order, each at the first vacant slot
//!    from its home (linear probing).
//!
//! The reads of pass 2 are independent, so a chunk's misses into a
//! table larger than the caches (8 MiB for 1M keys) overlap. A slot
//! once taken stays taken, so pass 3 places every record where a
//! record-at-a-time build would: the index comes out slot for slot the
//! same.

use std::hash::Hasher;
use std::mem::MaybeUninit;
use std::ops::Range;

use efd_core::binfmt::{self, BinFormatError, Efdb, KeyRecords, Postings, KEY_RECORD_LEN};
use efd_core::dictionary::{AppNameId, LabelId};
use efd_core::engine::{Answer, Recognize, VoteScratch};
use efd_core::{DictionaryParts, EfdDictionary, Fingerprint, Query, Recognition, RoundingDepth};
use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::{AppLabel, MetricId};
use efd_util::hash::{FxHashMap, FxMapHasher};

use crate::keystore::KeyStore;

/// A vacant index slot, and the metrics-table entry of a catalog metric
/// the store holds no key for.
const VACANT: u32 = u32::MAX;

/// The inline app of a key whose labels span several applications (or
/// none), or whose app id is too wide for its slot's field: votes walk
/// its postings.
const MULTI: u32 = u32::MAX;

/// Query points probed as one batch: enough independent index and
/// record loads in flight to overlap their cache misses, few enough
/// that a chunk's keys stay on the stack.
const PROBE_CHUNK: usize = 16;

/// Key records placed as one batch when the index is built: enough
/// independent home-slot reads in flight to overlap their cache misses,
/// few enough that a chunk's homes stay on the stack.
const BUILD_CHUNK: usize = 32;

/// Index slots a thread fills at least when the index is built
/// (1 MiB): a 10k-key index, 128 KiB, fills on the calling thread.
const FILL_PART_MIN: usize = efd_util::parallel::PART_MIN_BYTES / std::mem::size_of::<u32>();

/// How an index slot packs a record number and an inline app into one
/// `u32` (module docs, "Layout"): the record in the low `record_bits`
/// bits, the app code in the rest, an all-ones code meaning [`MULTI`].
#[derive(Debug, Clone, Copy)]
struct SlotPacking {
    record_bits: u32,
}

impl SlotPacking {
    /// The packing of a store of `keys` keys: as many record bits as
    /// the key count's bit length, so every record number, being below
    /// `keys`, is below the all-ones record field.
    fn for_keys(keys: usize) -> Self {
        let record_bits = usize::BITS - keys.leading_zeros();
        assert!(record_bits <= 32, "{keys} keys overflow u32 record numbers");
        Self { record_bits }
    }

    /// The app field's all-ones code, [`MULTI`]'s code.
    #[inline]
    fn multi_code(self) -> u64 {
        u64::from(u32::MAX) >> self.record_bits
    }

    /// The slot of `record` with inline app `app`; an app at or past the
    /// field's all-ones code is stored as [`MULTI`].
    #[inline]
    fn pack(self, record: u32, app: u32) -> u32 {
        let code = u64::from(app).min(self.multi_code());
        (u64::from(record) | (code << self.record_bits)) as u32
    }

    /// The record number of an occupied slot.
    #[inline]
    fn record(self, slot: u32) -> u32 {
        (u64::from(slot) & ((1 << self.record_bits) - 1)) as u32
    }

    /// The inline app of an occupied slot, [`MULTI`] for the all-ones
    /// code.
    #[inline]
    fn app(self, slot: u32) -> u32 {
        let code = u64::from(slot) >> self.record_bits;
        if code == self.multi_code() {
            MULTI
        } else {
            code as u32
        }
    }
}

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
    /// Holds the key records and the interned postings blob: a checked
    /// EFDB file up to its postings, or just those two sections laid out
    /// in memory.
    bytes: Vec<u8>,
    records: Range<usize>,
    postings: Range<usize>,
    /// Open-addressed slots, a power of two long, each a record number
    /// and inline app packed by `packing`.
    index: Box<[u32]>,
    packing: SlotPacking,
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

/// The inline app of the key record `r`: the one app all its labels
/// belong to, or [`MULTI`].
#[inline]
fn inline_app(r: &[u8], blob: Postings<'_>, label_app: &[AppNameId]) -> u32 {
    let off = u32::from_le_bytes(r[22..26].try_into().expect("4 bytes"));
    let mut apps = blob.label_ids(off).map(|id| label_app[id as usize]);
    match apps.next() {
        Some(first) if apps.all(|a| a == first) => first.index() as u32,
        _ => MULTI,
    }
}

/// The index over `keys` (module docs, "Index build"): at least twice
/// as many slots as keys, a power of two, each record, packed with its
/// inline app by `packing`, at the first vacant slot from its home in
/// record order.
fn build_index(
    keys: KeyRecords<'_>,
    blob: Postings<'_>,
    label_app: &[AppNameId],
    packing: SlotPacking,
) -> Box<[u32]> {
    // The slots are set vacant in parts, on every core for a large
    // index, so the page faults of the fresh allocation are spread out.
    // The allocation is left uninitialised rather than zeroed: probes of
    // a zeroed (calloc) 1M-key index ran ~1.6x slower in the benchmark's
    // traced process.
    let mut index = Box::new_uninit_slice((2 * keys.len()).next_power_of_two());
    let filled: usize = efd_util::parallel_parts_mut(&mut index, FILL_PART_MIN, |_, part| {
        part.fill(MaybeUninit::new(VACANT));
        part.len()
    })
    .into_iter()
    .sum();
    assert_eq!(filled, index.len(), "the fill covers every index slot");
    // SAFETY: the parts are disjoint `&mut` borrows of `index`, each
    // filled whole, and the assertion above shows that their lengths
    // add up to its length: every slot is initialised.
    let mut index = unsafe { index.assume_init() };
    let mask = index.len() - 1;
    let chunks = keys.bytes().chunks(BUILD_CHUNK * KEY_RECORD_LEN);
    for (first, chunk) in (0..).step_by(BUILD_CHUNK).zip(chunks) {
        let n = chunk.len() / KEY_RECORD_LEN;
        // 1. Home slot and packed slot of every record.
        let mut homes = [(0, VACANT); BUILD_CHUNK];
        let records = chunk.chunks_exact(KEY_RECORD_LEN);
        for ((i, home), r) in homes.iter_mut().enumerate().zip(records) {
            let app = inline_app(r, blob, label_app);
            *home = (
                home_slot(&record_words(r), mask),
                packing.pack((first + i) as u32, app),
            );
        }
        // 2. Read every home slot. A slot that is taken stays taken, so
        //    a record whose home an earlier chunk took starts its probe
        //    one slot on.
        let mut taken = [false; BUILD_CHUNK];
        for (taken, &(slot, _)) in taken.iter_mut().zip(&homes[..n]) {
            *taken = index[slot] != VACANT;
        }
        // 3. Place the records in record order.
        for (&(home, packed), &taken) in homes[..n].iter().zip(&taken) {
            let mut slot = if taken { (home + 1) & mask } else { home };
            while index[slot] != VACANT {
                slot = (slot + 1) & mask;
            }
            index[slot] = packed;
        }
    }
    index
}

/// Intern the postings of the key records `bytes[records]` in place:
/// copy each distinct label list of the blob `bytes[postings]` once, in
/// the record order of its first use, point every record's
/// `postings_off` at its list's copy, lay the copies over the start of
/// the blob and release the buffer after them. Returns the interned
/// blob's range.
///
/// One-label lists are found through a dense table of `labels` slots,
/// longer ones through a map keyed by the list's bytes in the buffer.
/// Besides the buffer, the pass holds the copies, the table (4 B per
/// label), 8 B per distinct list and a map entry per distinct longer
/// list: 400 B of copies over a 1M-key store of 50 one-label lists,
/// 12 KB over paper-10k's 663 distinct lists.
///
/// Lists need not lie in key order, nor be unshared. Lists that overlap
/// in the file can copy out longer than its blob; then every offset is
/// put back and the blob is served as the file lays it out.
fn intern_postings(
    bytes: &mut Vec<u8>,
    records: Range<usize>,
    postings: Range<usize>,
    labels: usize,
) -> Range<usize> {
    let le_u32 =
        |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"));
    let (head, tail) = bytes.split_at_mut(postings.start);
    let (keys, blob) = (&mut head[records], &tail[..postings.len()]);
    let mut one_label = vec![VACANT; labels];
    // Fx, like the index's hash: EFDB files are trusted inputs
    // (docs/FORMAT.md, "Checksum").
    let mut longer: FxHashMap<&[u8], u32> = FxHashMap::default();
    let mut interned = Vec::new();
    // (offset of the copy, offset in the file) of each distinct list.
    let mut origins = Vec::new();
    let overflow = keys.chunks_exact_mut(KEY_RECORD_LEN).position(|r| {
        let off = le_u32(r, 22);
        let at = off as usize;
        let list = &blob[at..at + 4 + 4 * le_u32(blob, at) as usize];
        let copy = match list.len() {
            8 => &mut one_label[le_u32(list, 4) as usize],
            _ => longer.entry(list).or_insert(VACANT),
        };
        if *copy == VACANT {
            if interned.len() + list.len() > blob.len() {
                return true;
            }
            *copy = interned.len() as u32;
            origins.push((*copy, off));
            interned.extend_from_slice(list);
        }
        r[22..26].copy_from_slice(&copy.to_le_bytes());
        false
    });
    if let Some(done) = overflow {
        for r in keys[..done * KEY_RECORD_LEN].chunks_exact_mut(KEY_RECORD_LEN) {
            let copy = le_u32(r, 22);
            let (_, off) = origins[origins.partition_point(|&(at, _)| at < copy)];
            r[22..26].copy_from_slice(&off.to_le_bytes());
        }
        return postings;
    }
    let end = postings.start + interned.len();
    bytes[postings.start..end].copy_from_slice(&interned);
    bytes.truncate(end);
    bytes.shrink_to_fit();
    postings.start..end
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
    /// itself — it is moved in, not copied — intern its postings in
    /// place (module docs, "Layout") and index its key records. The
    /// daemon's cold start, `SWAP` and SIGHUP all load through here.
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

    /// The one build every constructor funnels through: intern the
    /// postings of the key records `bytes[records]` (canonical: unique
    /// keys, label ids in range, postings offsets into
    /// `bytes[postings]`) with [`intern_postings`], which shrinks the
    /// buffer before the index is allocated, then index the records
    /// with [`build_index`].
    /// `metric_ids` maps the records' metric indices to catalog ids, and
    /// `tables` holds the app names, labels and each label's app, as
    /// [`binfmt::EfdbView::label_tables`] returns them.
    fn assemble(
        depth: RoundingDepth,
        mut bytes: Vec<u8>,
        records: Range<usize>,
        postings: Range<usize>,
        metric_ids: Vec<MetricId>,
        (apps, labels, label_app): (Vec<String>, Vec<AppLabel>, Vec<AppNameId>),
    ) -> Self {
        let width = metric_ids.iter().map(|m| m.0 as usize + 1).max();
        let mut metrics = vec![VACANT; width.unwrap_or(0)].into_boxed_slice();
        for (at, id) in metric_ids.iter().enumerate() {
            metrics[id.0 as usize] = at as u32;
        }

        let postings = intern_postings(&mut bytes, records.clone(), postings, labels.len());
        let keys = KeyRecords::over(&bytes[records.clone()]);
        let packing = SlotPacking::for_keys(keys.len());
        let index = build_index(
            keys,
            Postings::over(&bytes[postings.clone()]),
            &label_app,
            packing,
        );
        Self {
            depth,
            bytes,
            records,
            postings,
            index,
            packing,
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

    /// The records' metric index of `metric`; `None` when no key uses
    /// it.
    #[inline]
    fn metric_index(&self, metric: MetricId) -> Option<u32> {
        let index = *self.metrics.get(metric.0 as usize)?;
        (index != VACANT).then_some(index)
    }

    /// The record words `fp` would have under metric index `metric`,
    /// and their home slot.
    #[inline]
    fn home(&self, metric: u32, fp: &Fingerprint) -> ([u64; 3], usize) {
        let key = key_words(metric, fp);
        (key, home_slot(&key, self.index.len() - 1))
    }

    /// The chain walk every probe goes through: starting at `slot`,
    /// whose entry `entry` the caller has already read, compare records
    /// and step to the next slot until `key`'s record or a vacant slot.
    /// Returns the key's postings offset and inline app ([`MULTI`] if
    /// none), if it exists.
    #[inline]
    fn walk(&self, key: &[u64; 3], mut slot: usize, mut entry: u32) -> Option<(u32, u32)> {
        let keys = self.keys();
        let mask = self.index.len() - 1;
        loop {
            if entry == VACANT {
                return None;
            }
            let at = self.packing.record(entry) as usize * KEY_RECORD_LEN;
            let r = &keys[at..at + KEY_RECORD_LEN];
            if record_words(r) == *key {
                let off = u32::from_le_bytes(r[22..26].try_into().expect("4 bytes"));
                return Some((off, self.packing.app(entry)));
            }
            slot = (slot + 1) & mask;
            entry = self.index[slot];
        }
    }

    /// `fp`'s postings offset and inline app, if the key exists: the
    /// pipeline's one-point case.
    #[inline]
    fn find(&self, fp: &Fingerprint) -> Option<(u32, u32)> {
        let (key, slot) = self.home(self.metric_index(fp.metric)?, fp);
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
            // 1. Round and hash every point whose metric some key uses
            //    (no other point can match, so it is not rounded).
            let mut homes = [None; PROBE_CHUNK];
            for (home, p) in homes.iter_mut().zip(chunk) {
                *home = self.metric_index(p.metric).and_then(|metric| {
                    let fp =
                        Fingerprint::from_raw(p.metric, p.node, p.interval, p.mean, self.depth)?;
                    Some(self.home(metric, &fp))
                });
            }
            // 2. Read every home slot.
            let mut entries = [VACANT; PROBE_CHUNK];
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

    /// Bytes held resident: the buffer (a loaded file up to its postings
    /// blob, then the interned postings) plus the hash index.
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

    /// The verdict-only answer, through fresh scratch.
    fn answer(snap: &Snapshot, q: &Query) -> Answer {
        let mut out = Answer::default();
        snap.answer_into(q, &mut VoteScratch::default(), &mut out);
        out
    }

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
        // Frozen directly, and published by the live dictionary: one
        // store, one set of answers.
        let dict = toy_dict();
        let live = ShardedDictionary::from_parts(dict.to_parts(), 1);
        for (how, snap) in [
            ("freeze", Snapshot::freeze(&dict)),
            ("live", live.snapshot()),
        ] {
            assert_eq!(snap.len(), dict.len());
            for q in queries() {
                let served = snap.recognize(&q);
                let oracle = dict.recognize(&q).normalized();
                assert_eq!(served, oracle, "{how}");
                assert_eq!(answer(&snap, &q), Answer::from(&oracle), "{how}");
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
            assert_eq!(answer(&via_efdb, &q), answer(&via_freeze, &q));
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

    /// The snapshot's index slots unpacked to `[record, app]`, a vacant
    /// slot as `[VACANT, MULTI]`.
    fn slots(snap: &Snapshot) -> Vec<[u32; 2]> {
        snap.index
            .iter()
            .map(|&slot| match slot {
                VACANT => [VACANT, MULTI],
                _ => [snap.packing.record(slot), snap.packing.app(slot)],
            })
            .collect()
    }

    #[test]
    fn slot_packing_round_trips_and_never_packs_vacant() {
        assert_eq!(SlotPacking::for_keys(0).record_bits, 0);
        assert_eq!(SlotPacking::for_keys(1_000_000).record_bits, 20);
        assert_eq!(SlotPacking::for_keys(10_228).record_bits, 14);
        for bits in [1, 20, 31, 32] {
            let keys = (1u64 << bits) - 1;
            let packing = SlotPacking::for_keys(keys as usize);
            assert_eq!(packing.record_bits, bits);
            // The field's all-ones code, as an app id.
            let multi = u64::from(u32::MAX) >> bits;
            let last = (keys - 1) as u32;
            let records = [0, last / 2, last];
            let fits = [0, 1, multi.saturating_sub(1)]
                .into_iter()
                .filter(|&app| app < multi);
            for record in records {
                for app in fits.clone() {
                    let slot = packing.pack(record, app as u32);
                    assert_ne!(slot, VACANT, "width {bits}: record {record}, app {app}");
                    assert_eq!(packing.record(slot), record, "width {bits}");
                    assert_eq!(u64::from(packing.app(slot)), app, "width {bits}");
                }
                let wide = [multi, multi + 1, u64::from(MULTI) - 1, u64::from(MULTI)];
                for app in wide {
                    let slot = packing.pack(record, app as u32);
                    assert_ne!(slot, VACANT, "width {bits}: record {record}, app {app}");
                    assert_eq!(packing.record(slot), record, "width {bits}");
                    assert_eq!(packing.app(slot), MULTI, "width {bits}: app {app}");
                }
            }
        }
    }

    /// `n` keys with consecutive means on one metric and node: keys that
    /// differ only in a few mean bits. Key `i` belongs to app `i % 7`.
    fn adjacent_keys(n: usize) -> EfdDictionary {
        let mut dict = EfdDictionary::new(RoundingDepth::new(6));
        for i in 0..n {
            let label = AppLabel::new(format!("app{}", i % 7), "X");
            dict.insert_raw(M, NodeId(0), W, 100_000.0 + i as f64, &label);
        }
        dict
    }

    #[test]
    fn adjacent_keys_form_probe_chains_that_resolve() {
        let snap = Snapshot::freeze(&adjacent_keys(4096));
        let mask = snap.index.len() - 1;
        let displaced = slots(&snap)
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

    /// The index a record-at-a-time build makes: each record, in record
    /// order, at the first vacant slot from its home.
    fn index_one_at_a_time(snap: &Snapshot) -> Vec<[u32; 2]> {
        let mut index = vec![[VACANT, MULTI]; (2 * snap.len()).next_power_of_two()];
        let mask = index.len() - 1;
        for (i, r) in snap.keys().chunks_exact(KEY_RECORD_LEN).enumerate() {
            let off = u32::from_le_bytes(r[22..26].try_into().unwrap());
            let mut apps = snap
                .blob()
                .label_ids(off)
                .map(|id| snap.label_app[id as usize]);
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
        index
    }

    /// 1000 keys on three nodes: keys of one app, of two inputs of one
    /// app, and of two apps.
    fn mixed_keys() -> EfdDictionary {
        let mut mixed = EfdDictionary::new(RoundingDepth::new(6));
        for i in 0..1000 {
            let (node, mean) = (NodeId((i % 3) as u16), 100_000.0 + i as f64);
            let (app, other) = (i % 5, i % 5 + 1);
            let labels = match i % 4 {
                1 => vec![(app, "X"), (app, "Y")],
                2 => vec![(app, "X"), (other, "X")],
                _ => vec![(app, "X")],
            };
            for (app, input) in labels {
                let label = AppLabel::new(format!("app{app}"), input);
                mixed.insert_raw(M, node, W, mean, &label);
            }
        }
        mixed
    }

    #[test]
    fn postings_are_interned_one_copy_per_distinct_list() {
        let catalog = efd_telemetry::catalog::small_catalog();
        for (name, dict) in [
            ("4096 adjacent keys", adjacent_keys(4096)),
            ("mixed one-app and multi-app keys", mixed_keys()),
        ] {
            let bytes = binfmt::write(&dict.to_parts(), &catalog);
            let file = binfmt::check(&bytes).unwrap();
            let lists: Vec<Vec<u32>> = file
                .keys()
                .iter()
                .map(|r| file.postings().label_ids(r.postings_off).collect())
                .collect();
            let distinct: std::collections::HashSet<_> = lists.iter().collect();
            let interned: usize = distinct.iter().map(|ids| 4 + 4 * ids.len()).sum();
            assert!(interned < file.postings().bytes().len() / 10, "{name}");
            for (how, snap) in [
                ("freeze", Snapshot::freeze(&dict)),
                ("load", Snapshot::load(bytes.clone(), &catalog).unwrap()),
            ] {
                assert_eq!(snap.blob().bytes().len(), interned, "{name}, {how}");
                let keys = KeyRecords::over(snap.keys());
                assert_eq!(keys.len(), lists.len(), "{name}, {how}");
                for (r, (file_record, ids)) in keys.iter().zip(file.keys().iter().zip(&lists)) {
                    assert_eq!(
                        (r.node, r.interval, r.mean_bits),
                        (
                            file_record.node,
                            file_record.interval,
                            file_record.mean_bits
                        ),
                        "{name}, {how}"
                    );
                    let served: Vec<u32> = snap.blob().label_ids(r.postings_off).collect();
                    assert_eq!(&served, ids, "{name}, {how}");
                }
            }
        }
    }

    #[test]
    fn chunked_index_build_matches_a_record_at_a_time_build() {
        let mixed = mixed_keys();
        let inline: Vec<u32> = slots(&Snapshot::freeze(&mixed))
            .iter()
            .filter(|[record, _]| *record != VACANT)
            .map(|[_, app]| *app)
            .collect();
        assert!(inline.contains(&MULTI) && inline.iter().any(|&app| app != MULTI));
        let stores = [
            ("empty", adjacent_keys(0)),
            ("1 key", adjacent_keys(1)),
            ("31 keys", adjacent_keys(31)),
            ("32 keys", adjacent_keys(32)),
            ("33 keys", adjacent_keys(33)),
            ("4095 adjacent keys", adjacent_keys(4095)),
            ("4096 adjacent keys", adjacent_keys(4096)),
            ("4097 adjacent keys", adjacent_keys(4097)),
            ("mixed one-app and multi-app keys", mixed),
        ];
        let catalog = efd_telemetry::catalog::small_catalog();
        for (name, dict) in stores {
            let bytes = binfmt::write(&dict.to_parts(), &catalog);
            for snap in [
                Snapshot::freeze(&dict),
                Snapshot::load(bytes, &catalog).unwrap(),
            ] {
                assert_eq!(snap.len(), dict.len(), "{name}");
                assert!(
                    slots(&snap) == index_one_at_a_time(&snap),
                    "{name}: the chunked build placed some record elsewhere"
                );
            }
        }
    }

    #[test]
    fn empty_snapshot_answers_unknown() {
        let snap = Snapshot::freeze(&EfdDictionary::new(RoundingDepth::new(2)));
        assert!(snap.is_empty());
        let r = snap.recognize(&Query::from_node_means(M, W, &[1.0]));
        assert_eq!(r.verdict, efd_core::Verdict::Unknown);
        assert_eq!(
            answer(&snap, &Query::from_node_means(M, W, &[1.0])).tied(),
            0
        );
    }
}
