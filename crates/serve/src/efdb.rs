//! Zero-copy serving straight over EFDB bytes.
//!
//! [`crate::Snapshot::from_view`] thaws every key of a dictionary file
//! into owned shard maps before the first query can be answered —
//! cold-start cost linear in dictionary size. [`EfdbSnapshot`] skips the
//! rebuild entirely: [`efd_core::binfmt::check`] validates the buffer
//! once, the small app/label tables are decoded (they are bounded by the
//! number of *applications*, not keys), and the key records and postings
//! — the two sections that scale with dictionary size — are served **in
//! place**. Lookup is a per-metric prefix fan-out (computed once at load)
//! followed by binary search over the sorted fixed-width records;
//! postings are walked with the chunked
//! [`efd_core::binfmt::Postings::for_each_label`] decoder, votes landing
//! in the same [`VoteScratch`] kernel the owned snapshot uses.
//!
//! Cold-start stops scaling with key count (beyond the one checksum +
//! validation pass every load must pay), so holding many resident
//! dictionary versions — the SIREN-style fleet scenario — costs bytes,
//! not rebuild time.

use std::ops::Range;
use std::sync::Arc;

use efd_core::binfmt::{self, BinFormatError, KeyRecords, Postings};
use efd_core::dictionary::{AppNameId, LabelId};
use efd_core::engine::{Answer, Recognize, VoteScratch};
use efd_core::{Fingerprint, Query, Recognition, RoundingDepth};
use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::{AppLabel, MetricId};
use efd_util::FxHashMap;

use crate::keystore::{self, KeyStore};

/// An immutable recognition backend serving directly from EFDB bytes.
///
/// Construction validates the buffer once ([`efd_core::binfmt::check`])
/// and resolves the file's metric names against a catalog; afterwards
/// every query binary-searches the raw key records and iterates postings
/// in place — the buffer *is* the index. Implements [`Recognize`], so
/// batch fan-out, recognizer stacking, and the CLI's backend selection
/// treat it like any other engine.
///
/// ```
/// use efd_core::{binfmt, EfdDictionary, Query, RoundingDepth};
/// use efd_serve::{EfdbSnapshot, Recognize};
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
/// // Cold start: check the bytes, then serve them in place.
/// let snap = EfdbSnapshot::load(bytes, &catalog).unwrap();
/// let q = Query::from_node_means(metric, Interval::PAPER_DEFAULT, &[6001.0, 5999.0]);
/// assert_eq!(snap.recognize(&q).verdict, dict.recognize(&q).verdict);
/// assert_eq!(snap.len(), dict.len());
/// ```
#[derive(Debug, Clone)]
pub struct EfdbSnapshot {
    /// The whole validated file; key records and postings are read from
    /// it in place.
    bytes: Arc<[u8]>,
    depth: RoundingDepth,
    key_records: Range<usize>,
    postings_blob: Range<usize>,
    /// Catalog [`MetricId`] → record-index span of that metric's keys:
    /// the prefix fan-out, computed once so each probe binary-searches
    /// only its metric's contiguous records.
    metric_spans: FxHashMap<MetricId, (u32, u32)>,
    labels: Vec<AppLabel>,
    apps: Vec<String>,
    label_app: Vec<AppNameId>,
}

impl EfdbSnapshot {
    /// Validate `bytes` as an EFDB file and serve it in place (metric
    /// names resolved via `catalog`).
    ///
    /// Accepts anything convertible into `Arc<[u8]>` — a freshly read
    /// `Vec<u8>`, or a shared `Arc<[u8]>` when several snapshots (or a
    /// snapshot and something else) serve the same buffer. Fails with the
    /// usual [`BinFormatError`]s on corrupt bytes, or
    /// [`BinFormatError::UnknownMetric`] when the file references a
    /// metric the catalog does not know.
    pub fn load(
        bytes: impl Into<Arc<[u8]>>,
        catalog: &MetricCatalog,
    ) -> Result<Self, BinFormatError> {
        let bytes: Arc<[u8]> = bytes.into();
        let view = binfmt::check(&bytes)?;

        let keys = view.keys();
        let metric_spans = view
            .resolve_metrics(catalog)?
            .into_iter()
            .enumerate()
            .map(|(idx, id)| {
                let span = keys.metric_range(idx as u32);
                (id, (span.start as u32, span.end as u32))
            })
            .collect();
        let (apps, labels, label_app) = view.label_tables();

        let key_records = view.key_records_range();
        let postings_blob = view.postings_blob_range();
        Ok(Self {
            depth: view.depth(),
            key_records,
            postings_blob,
            metric_spans,
            labels,
            apps,
            label_app,
            bytes,
        })
    }

    /// The sorted raw key records, rebound from the owned buffer.
    #[inline]
    fn keys(&self) -> KeyRecords<'_> {
        KeyRecords::over(&self.bytes[self.key_records.clone()])
    }

    /// The postings blob, rebound from the owned buffer.
    #[inline]
    fn postings(&self) -> Postings<'_> {
        Postings::over(&self.bytes[self.postings_blob.clone()])
    }

    /// Postings-blob offset of `fp`'s label list, if the key exists:
    /// prefix fan-out on the metric, then binary search within its span.
    #[inline]
    fn find(&self, fp: &Fingerprint) -> Option<u32> {
        let &(lo, hi) = self.metric_spans.get(&fp.metric)?;
        // A span is keyed by MetricId, and every record inside it holds
        // the same file-local metric index, so the metric component of
        // the search key is whatever that index is — read it from the
        // span's first record.
        let keys = self.keys();
        let metric_idx = keys.get(lo as usize)?.metric;
        let rec = keys.find_in(
            lo as usize..hi as usize,
            metric_idx,
            fp.node,
            fp.interval,
            fp.mean().to_bits(),
        )?;
        Some(rec.postings_off)
    }

    /// The rounding depth the served file was built with.
    pub fn depth(&self) -> RoundingDepth {
        self.depth
    }

    /// Number of keys in the served file.
    pub fn len(&self) -> usize {
        self.key_records.len() / binfmt::KEY_RECORD_LEN
    }

    /// Whether the served file holds no keys.
    pub fn is_empty(&self) -> bool {
        self.key_records.is_empty()
    }

    /// Size of the backing buffer in bytes — the entire serving cost of
    /// keeping this snapshot resident.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Distinct application names, in interned (tie-break) order.
    pub fn app_names(&self) -> &[String] {
        &self.apps
    }

    /// Distinct labels learned.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Verdict-only fast path (see [`crate::Snapshot::best`]): the
    /// most-voted application, ties broken lexicographically, `None`
    /// when nothing matched.
    pub fn best(&self, query: &Query) -> Option<&str> {
        let mut scratch = VoteScratch::default();
        self.best_with(query, &mut scratch)
    }

    /// [`EfdbSnapshot::best`] with caller-owned scratch — the
    /// zero-allocation hot path.
    pub fn best_with<'s>(&'s self, query: &Query, scratch: &mut VoteScratch) -> Option<&'s str> {
        keystore::best_with(self, query, scratch)
    }
}

/// The zero-copy [`KeyStore`]: probes binary-search the raw key records;
/// label votes stream from the postings blob via the chunked decoder.
/// Unlike the owned snapshot there is no precomputed per-entry app list,
/// so app votes dedup per point through the scratch
/// ([`VoteScratch::vote_app_deduped`]) — exactly the oracle's semantics.
impl KeyStore for EfdbSnapshot {
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
        let Some(off) = self.find(fp) else {
            return false;
        };
        scratch.begin_point();
        self.postings().for_each_label(off, |id| {
            let label = LabelId::from_index(id as usize);
            if wide {
                scratch.vote_label_wide(label);
            } else {
                scratch.vote_label(label);
            }
            scratch.vote_app_deduped(self.label_app[id as usize]);
        });
        true
    }

    #[inline]
    fn vote_apps(&self, fp: &Fingerprint, scratch: &mut VoteScratch) -> bool {
        let Some(off) = self.find(fp) else {
            return false;
        };
        scratch.begin_point();
        self.postings().for_each_label(off, |id| {
            scratch.vote_app_deduped(self.label_app[id as usize]);
        });
        true
    }
}

/// The zero-copy form as an engine backend — `recognize_into` runs the
/// shared [`keystore`] vote kernel over the raw file sections.
impl Recognize for EfdbSnapshot {
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
    use efd_core::{binfmt, EfdDictionary, LabeledObservation};
    use efd_telemetry::catalog::small_catalog;
    use efd_telemetry::Interval;

    const W: Interval = Interval::PAPER_DEFAULT;

    fn toy_dict(metric: MetricId) -> EfdDictionary {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        for (app, input, means) in [
            ("ft", "X", [6020.0, 6020.0, 6020.0, 6020.0]),
            ("sp", "X", [7617.0, 7520.0, 7520.0, 7121.0]),
            ("bt", "X", [7638.0, 7540.0, 7540.0, 7140.0]),
            ("miniAMR", "Z", [10980.0; 4]),
        ] {
            d.learn(&LabeledObservation {
                label: AppLabel::new(app, input),
                query: Query::from_node_means(metric, W, &means),
            });
        }
        d
    }

    #[test]
    fn matches_owned_snapshot_on_every_query() {
        let catalog = small_catalog();
        let m = catalog.id("nr_mapped_vmstat").unwrap();
        let dict = toy_dict(m);
        let bytes = binfmt::write(&dict.to_parts(), &catalog);
        let zero = EfdbSnapshot::load(bytes, &catalog).unwrap();
        assert_eq!(zero.len(), dict.len());
        assert_eq!(zero.depth(), dict.depth());
        for means in [
            [6031.0, 5988.0, 6007.0, 6044.0],
            [7601.0, 7512.0, 7533.0, 7098.0],
            [10951.0, 11020.0, 10990.0, 11043.0],
            [1.0, 2.0, 3.0, 4.0],
            [6000.0, 6000.0, 7500.0, f64::NAN],
        ] {
            let q = Query::from_node_means(m, W, &means);
            let oracle = dict.recognize(&q).normalized();
            assert_eq!(zero.recognize(&q), oracle);
            assert_eq!(zero.best(&q), oracle.best());
        }
    }

    #[test]
    fn unknown_metric_in_query_is_a_clean_miss() {
        let catalog = small_catalog();
        let m = catalog.id("nr_mapped_vmstat").unwrap();
        let bytes = binfmt::write(&toy_dict(m).to_parts(), &catalog);
        let zero = EfdbSnapshot::load(bytes, &catalog).unwrap();
        // A metric the file never stored: no span, no match, no panic.
        let q = Query::from_node_means(MetricId(9999), W, &[6020.0]);
        assert_eq!(zero.recognize(&q).verdict, efd_core::Verdict::Unknown);
    }

    #[test]
    fn load_rejects_unresolvable_metric() {
        let catalog = small_catalog();
        let m = catalog.id("nr_mapped_vmstat").unwrap();
        let bytes = binfmt::write(&toy_dict(m).to_parts(), &catalog);
        let empty = efd_telemetry::MetricCatalog::new();
        assert!(matches!(
            EfdbSnapshot::load(bytes, &empty),
            Err(BinFormatError::UnknownMetric(_))
        ));
    }

    #[test]
    fn empty_file_serves_unknown() {
        let catalog = small_catalog();
        let m = catalog.id("nr_mapped_vmstat").unwrap();
        let dict = EfdDictionary::new(RoundingDepth::new(2));
        let bytes = binfmt::write(&dict.to_parts(), &catalog);
        let zero = EfdbSnapshot::load(bytes, &catalog).unwrap();
        assert!(zero.is_empty());
        let q = Query::from_node_means(m, W, &[1.0]);
        assert_eq!(zero.recognize(&q).verdict, efd_core::Verdict::Unknown);
        assert_eq!(zero.best(&q), None);
    }

    #[test]
    fn shared_buffer_loads_cheaply() {
        let catalog = small_catalog();
        let m = catalog.id("nr_mapped_vmstat").unwrap();
        let dict = toy_dict(m);
        let buf: Arc<[u8]> = binfmt::write(&dict.to_parts(), &catalog).into();
        let a = EfdbSnapshot::load(Arc::clone(&buf), &catalog).unwrap();
        let b = EfdbSnapshot::load(buf, &catalog).unwrap();
        let q = Query::from_node_means(m, W, &[6031.0, 5988.0]);
        assert_eq!(a.recognize(&q), b.recognize(&q));
        assert_eq!(a.byte_len(), b.byte_len());
    }
}
