//! EFDB — the versioned binary on-disk dictionary format.
//!
//! [`crate::serialize`]'s JSON dumps are the inspectable, mergeable form;
//! EFDB is the *operational* form: a compact little-endian binary that a
//! serving process can load in milliseconds, so cold-starts and mid-stream
//! snapshot swaps never pay a text parse. The byte-level layout — offsets,
//! widths, endianness, the version/compatibility policy, and a worked hex
//! dump — is specified in `docs/FORMAT.md`; this module is the reference
//! implementation.
//!
//! Shape of a file (all integers little-endian):
//!
//! ```text
//! magic "EFDB" | header (version, depth, catalog digest, section offsets)
//! strings      sorted, deduplicated, length-prefixed UTF-8
//! metrics      string ids of every metric name used by the keys
//! apps         string ids of application names, in tie-break order
//! labels       (app id, input string id) pairs, in LabelId order
//! keys         fixed 26-byte records, sorted, each → postings offset
//! postings     label-id lists, one per key
//! checksum     FxHash over everything above
//! ```
//!
//! Like the JSON dump, keys reference metrics **by name** (via the string
//! table), so files are portable across catalog rebuilds; the header's
//! catalog digest only records which catalog the writer saw
//! ([`Efdb::matches_catalog`] tells a loader whether name resolution is
//! guaranteed to be the identity).
//!
//! [`write()`] produces the canonical encoding: one byte stream per
//! dictionary *content*, independent of learn order of the keys (label
//! intern order — the tie-break order — is preserved, exactly like the
//! JSON dump's `label_order`). Reading is split in two: [`check`]
//! validates everything — magic, version, layout, checksum, string
//! sort, every id, key ordering, postings bounds — exactly once and
//! returns a borrowing [`EfdbView`] whose section views
//! ([`KeyRecords`], [`Postings`], [`Strings`]) are typed zero-copy
//! accessors over the raw bytes; [`read`] is the owned decode on top of
//! it, returning [`Efdb`] sections that thaw into [`DictionaryParts`].
//! The serving layer's read-only store (`efd_serve::Snapshot::load`)
//! keeps the checked buffer, with its postings interned in place (one
//! copy of each distinct label list), and answers queries from its key
//! records and postings there.

use std::fmt;

use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};

use crate::dictionary::{AppNameId, DictionaryParts, EfdDictionary, LabelId};
use crate::fingerprint::Fingerprint;
use crate::rounding::RoundingDepth;

/// The four magic bytes every EFDB file starts with.
pub const MAGIC: [u8; 4] = *b"EFDB";

/// Format major version this module writes. Readers reject any other
/// major: same-major files are guaranteed decodable, a different major
/// means the layout changed incompatibly.
pub const VERSION_MAJOR: u16 = 1;

/// Format minor version this module writes. Minor bumps are additive
/// (they may assign meaning to reserved bytes); readers accept files with
/// an *older or equal* minor and reject newer ones, whose extensions they
/// would silently ignore.
pub const VERSION_MINOR: u16 = 0;

/// Size of the fixed header (magic through section-offset table).
pub const HEADER_LEN: usize = 48;

/// Size of one fixed key record in the keys section.
pub const KEY_RECORD_LEN: usize = 26;

/// Buffers at least this long get their checksum computed on a second
/// thread while [`check`] validates the sections: on a 34 MB file the
/// checksum is ~10 ms of a ~26 ms check, while a thread spawn costs tens
/// of microseconds, which only pays off on large files.
const CONCURRENT_CHECKSUM_MIN: usize = efd_util::parallel::PART_MIN_BYTES;

/// Errors decoding an EFDB byte stream.
///
/// Marked `#[non_exhaustive]`: future format validations may add variants
/// without a semver break, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BinFormatError {
    /// The stream ends before `what` could be read in full.
    Truncated {
        /// Which field or section the reader was decoding.
        what: &'static str,
        /// Bytes required to decode it.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The file's version is outside what this reader accepts
    /// (major ≠ [`VERSION_MAJOR`], or minor > [`VERSION_MINOR`]).
    UnsupportedVersion {
        /// Major version stored in the file.
        major: u16,
        /// Minor version stored in the file.
        minor: u16,
    },
    /// The trailing checksum does not match the preceding bytes.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum computed over the received bytes.
        computed: u64,
    },
    /// The header's rounding depth is outside `1..=17`.
    InvalidDepth(u8),
    /// A string-table entry is not valid UTF-8.
    InvalidUtf8 {
        /// Index of the offending string.
        index: usize,
    },
    /// An id field points past the table it indexes.
    IdOutOfRange {
        /// Which id field.
        what: &'static str,
        /// The out-of-range id.
        id: u32,
        /// Number of entries in the indexed table.
        limit: u32,
    },
    /// The string table is not strictly ascending by UTF-8 bytes — the
    /// canonical sorted/deduplicated form every writer must produce.
    /// Validated on read since a hand-edited or adversarial table would
    /// otherwise silently break the id assignments recorded by the
    /// metrics/apps/labels sections.
    UnsortedStrings {
        /// Index of the first string that is ≤ its predecessor.
        index: usize,
    },
    /// The keys section is not strictly ascending (which also guarantees
    /// key uniqueness).
    UnsortedKeys {
        /// Index of the first key that is ≤ its predecessor.
        index: usize,
    },
    /// A key's interval is empty (`end <= start`).
    EmptyInterval {
        /// Interval start second.
        start: u32,
        /// Interval end second.
        end: u32,
    },
    /// Internally inconsistent layout (section offsets out of order, a
    /// section not ending where the next begins, non-finite mean bits, …).
    Layout {
        /// What was inconsistent.
        what: &'static str,
    },
    /// Resolving against a catalog: a stored metric name is absent.
    UnknownMetric(String),
}

impl fmt::Display for BinFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinFormatError::Truncated { what, need, have } => {
                write!(
                    f,
                    "truncated while reading {what}: need {need} bytes, have {have}"
                )
            }
            BinFormatError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (expected \"EFDB\")")
            }
            BinFormatError::UnsupportedVersion { major, minor } => write!(
                f,
                "unsupported format version {major}.{minor} \
                 (this reader accepts {VERSION_MAJOR}.0 ..= {VERSION_MAJOR}.{VERSION_MINOR})"
            ),
            BinFormatError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            BinFormatError::InvalidDepth(d) => write!(f, "rounding depth {d} outside 1..=17"),
            BinFormatError::InvalidUtf8 { index } => {
                write!(f, "string #{index} is not valid UTF-8")
            }
            BinFormatError::IdOutOfRange { what, id, limit } => {
                write!(f, "{what} id {id} out of range (table has {limit} entries)")
            }
            BinFormatError::UnsortedStrings { index } => {
                write!(
                    f,
                    "string #{index} is not strictly greater than its predecessor"
                )
            }
            BinFormatError::UnsortedKeys { index } => {
                write!(
                    f,
                    "key #{index} is not strictly greater than its predecessor"
                )
            }
            BinFormatError::EmptyInterval { start, end } => {
                write!(f, "empty interval [{start}:{end}] in key record")
            }
            BinFormatError::Layout { what } => write!(f, "inconsistent layout: {what}"),
            BinFormatError::UnknownMetric(m) => write!(f, "metric {m:?} not in catalog"),
        }
    }
}

impl std::error::Error for BinFormatError {}

/// Digest of a catalog's metric-name list (order-sensitive FxHash).
///
/// Written into every EFDB header; a loader whose catalog has the same
/// digest knows metric-name resolution is the identity mapping the writer
/// used. A different digest is *not* an error — files reference metrics by
/// name precisely so they survive catalog rebuilds — it just means
/// resolution must be checked name by name (which [`Efdb::into_parts`]
/// does anyway).
pub fn catalog_digest(catalog: &MetricCatalog) -> u64 {
    use std::hash::Hasher;
    let mut h = efd_util::FxHasher::default();
    h.write_u32(catalog.len() as u32);
    for id in catalog.ids() {
        let name = catalog.name(id).as_bytes();
        h.write_u32(name.len() as u32);
        h.write(name);
    }
    h.finish()
}

/// One decoded key record: a fingerprint with its metric still in
/// name-table form, plus the label ids stored under it.
#[derive(Debug, Clone, PartialEq)]
pub struct EfdbEntry {
    /// Index into [`Efdb::metrics`].
    pub metric: u32,
    /// Node id.
    pub node: NodeId,
    /// Time window of the fingerprint.
    pub interval: Interval,
    /// Rounded-mean bits (normalized: `-0.0` never appears).
    pub mean_bits: u64,
    /// Labels stored under the key, in stored order.
    pub labels: Vec<LabelId>,
}

/// A fully validated, decoded EFDB file.
///
/// Produced by [`read`]; every id is already bounds-checked, keys are
/// strictly ascending, and the checksum verified — consumers can index
/// the tables without further validation. Thaw with [`Efdb::into_parts`] /
/// [`Efdb::to_dictionary`]. A loader that starts from bytes needs no
/// `Efdb` at all: [`check`] gives an [`EfdbView`] that
/// [`EfdbView::to_parts`] thaws directly and the serving layer
/// (`efd_serve::Snapshot::load`) serves in place.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a decoded Efdb holds the validated sections; thaw or serve them"]
pub struct Efdb {
    depth: RoundingDepth,
    catalog_digest: u64,
    metrics: Vec<String>,
    apps: Vec<String>,
    labels: Vec<AppLabel>,
    label_app: Vec<AppNameId>,
    entries: Vec<EfdbEntry>,
}

impl Efdb {
    /// Rounding depth the dictionary was built with.
    pub fn depth(&self) -> RoundingDepth {
        self.depth
    }

    /// The writer's catalog digest (see [`catalog_digest`]).
    pub fn stored_catalog_digest(&self) -> u64 {
        self.catalog_digest
    }

    /// Whether `catalog` has the same digest the writer recorded —
    /// i.e. metric-name resolution is guaranteed to reproduce the
    /// writer's ids.
    pub fn matches_catalog(&self, catalog: &MetricCatalog) -> bool {
        self.catalog_digest == catalog_digest(catalog)
    }

    /// Metric names referenced by the keys, in key-record id order.
    pub fn metrics(&self) -> &[String] {
        &self.metrics
    }

    /// Application names in tie-break (first-learned) order.
    pub fn apps(&self) -> &[String] {
        &self.apps
    }

    /// Labels in [`LabelId`] order — the dictionary's intern order.
    pub fn labels(&self) -> &[AppLabel] {
        &self.labels
    }

    /// `labels[i]`'s application is `apps[label_app[i].index()]`.
    pub fn label_app(&self) -> &[AppNameId] {
        &self.label_app
    }

    /// Decoded key records, sorted by
    /// `(metric, node, interval, mean_bits)`.
    pub fn entries(&self) -> &[EfdbEntry] {
        &self.entries
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the file holds no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resolve every stored metric name against `catalog`, in
    /// [`Efdb::metrics`] order.
    pub fn resolve_metrics(
        &self,
        catalog: &MetricCatalog,
    ) -> Result<Vec<MetricId>, BinFormatError> {
        self.metrics
            .iter()
            .map(|name| {
                catalog
                    .id(name)
                    .ok_or_else(|| BinFormatError::UnknownMetric(name.clone()))
            })
            .collect()
    }

    /// Thaw into [`DictionaryParts`] (metric names resolved via
    /// `catalog`). Entries come out in the file's sorted-key order; label
    /// intern order — the tie-break order — is the writer's.
    pub fn into_parts(self, catalog: &MetricCatalog) -> Result<DictionaryParts, BinFormatError> {
        let metric_ids = self.resolve_metrics(catalog)?;
        let entries = self
            .entries
            .into_iter()
            .map(|e| {
                let fp = Fingerprint::from_rounded(
                    metric_ids[e.metric as usize],
                    e.node,
                    e.interval,
                    f64::from_bits(e.mean_bits),
                );
                (fp, e.labels)
            })
            .collect();
        Ok(DictionaryParts {
            depth: self.depth,
            entries,
            labels: self.labels,
            apps: self.apps,
            label_app: self.label_app,
        })
    }

    /// Thaw into a live [`EfdDictionary`] ready to keep learning.
    pub fn to_dictionary(&self, catalog: &MetricCatalog) -> Result<EfdDictionary, BinFormatError> {
        Ok(EfdDictionary::from_parts(self.clone().into_parts(catalog)?))
    }
}

/// Encode [`DictionaryParts`] as EFDB bytes (metric ids resolved to names
/// via `catalog`).
///
/// The encoding is **canonical**: parts holding the same dictionary
/// content (same keys, same label lists, same label intern order)
/// serialize to identical bytes regardless of the order keys were
/// learned or listed in — duplicate keys merge and key records sort, just
/// like [`EfdDictionary::from_parts`] followed by a deterministic dump.
///
/// ```
/// use efd_core::{binfmt, EfdDictionary, RoundingDepth};
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
///
/// let bytes = binfmt::write(&dict.to_parts(), &catalog);
/// assert_eq!(&bytes[..4], b"EFDB");
/// // Canonical: re-encoding the decoded file reproduces the same bytes.
/// let back = binfmt::read(&bytes).unwrap().into_parts(&catalog).unwrap();
/// assert_eq!(binfmt::write(&back, &catalog), bytes);
/// ```
///
/// # Panics
///
/// Panics if the parts are internally inconsistent (see
/// [`EfdDictionary::from_parts`]) or reference a [`MetricId`] not minted
/// by `catalog`. Parts produced by [`EfdDictionary::into_parts`] with the
/// catalog the dictionary was built against are always valid.
pub fn write(parts: &DictionaryParts, catalog: &MetricCatalog) -> Vec<u8> {
    // Canonicalize through the core dictionary: duplicate keys merge,
    // label lists dedup, and the documented consistency panics originate
    // in one shared place.
    let parts = EfdDictionary::from_parts(parts.clone()).into_parts();

    // Gather every string the file needs: metric names, app names, label
    // input sizes. Sorted + deduplicated = canonical string table.
    let metric_names: Vec<&str> = {
        let mut seen: Vec<&str> = parts
            .entries
            .iter()
            .map(|(fp, _)| catalog.name(fp.metric))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        seen
    };
    let mut strings: Vec<&str> = metric_names
        .iter()
        .copied()
        .chain(parts.apps.iter().map(String::as_str))
        .chain(parts.labels.iter().map(|l| l.input.as_str()))
        .collect();
    strings.sort_unstable();
    strings.dedup();
    let string_id = |s: &str| -> u32 { strings.binary_search(&s).expect("string interned") as u32 };
    let metric_idx: efd_util::FxHashMap<MetricId, u32> = parts
        .entries
        .iter()
        .map(|(fp, _)| fp.metric)
        .map(|m| {
            let pos = metric_names
                .binary_search(&catalog.name(m))
                .expect("metric name interned") as u32;
            (m, pos)
        })
        .collect();

    // Serialize sections into a single buffer, recording offsets.
    let mut out = Vec::with_capacity(HEADER_LEN + parts.entries.len() * (KEY_RECORD_LEN + 8));
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION_MAJOR.to_le_bytes());
    out.extend_from_slice(&VERSION_MINOR.to_le_bytes());
    out.push(parts.depth.get());
    out.extend_from_slice(&[0u8; 3]); // reserved
    out.extend_from_slice(&catalog_digest(catalog).to_le_bytes());
    let offset_table_at = out.len();
    out.extend_from_slice(&[0u8; 28]); // 7 × u32 section offsets, patched below
    debug_assert_eq!(out.len(), HEADER_LEN);

    let mut offsets = [0u32; 7];

    // strings
    offsets[0] = out.len() as u32;
    out.extend_from_slice(&(strings.len() as u32).to_le_bytes());
    for s in &strings {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }

    // metrics
    offsets[1] = out.len() as u32;
    out.extend_from_slice(&(metric_names.len() as u32).to_le_bytes());
    for name in &metric_names {
        out.extend_from_slice(&string_id(name).to_le_bytes());
    }

    // apps (tie-break order, NOT sorted)
    offsets[2] = out.len() as u32;
    out.extend_from_slice(&(parts.apps.len() as u32).to_le_bytes());
    for app in &parts.apps {
        out.extend_from_slice(&string_id(app).to_le_bytes());
    }

    // labels (LabelId order)
    offsets[3] = out.len() as u32;
    out.extend_from_slice(&(parts.labels.len() as u32).to_le_bytes());
    for (label, app) in parts.labels.iter().zip(&parts.label_app) {
        out.extend_from_slice(&(app.index() as u32).to_le_bytes());
        out.extend_from_slice(&string_id(&label.input).to_le_bytes());
    }

    // keys + postings
    offsets[4] = out.len() as u32;
    out.extend_from_slice(&(parts.entries.len() as u32).to_le_bytes());
    let postings = write_key_records(&mut out, &parts.entries, |m| metric_idx[&m]);

    offsets[5] = out.len() as u32;
    out.extend_from_slice(&(postings.len() as u32).to_le_bytes());
    out.extend_from_slice(&postings);

    // checksum trailer
    assert!(
        out.len() <= u32::MAX as usize,
        "EFDB encoding exceeds the format's 4 GiB u32-offset limit"
    );
    offsets[6] = out.len() as u32;
    for (i, off) in offsets.iter().enumerate() {
        out[offset_table_at + 4 * i..offset_table_at + 4 * (i + 1)]
            .copy_from_slice(&off.to_le_bytes());
    }
    let sum = efd_util::hash::hash_bytes(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Append the keys section's records for canonical `entries` (unique
/// keys, deduplicated label lists) to `out`, and return the postings
/// blob they point into.
///
/// Records are [`KEY_RECORD_LEN`] bytes each, sorted by `(metric index,
/// node, start, end, mean bits)` with `metric_index` giving each key's
/// metric index; every record's last word is the offset of its
/// count-prefixed label list in the blob, laid out in key order so the
/// blob is deterministic and sequential to read. [`write()`] uses the
/// file's name-table indices; the serving layer lays out an in-memory
/// store with catalog ids as indices.
pub fn write_key_records(
    out: &mut Vec<u8>,
    entries: &[(Fingerprint, Vec<LabelId>)],
    metric_index: impl Fn(MetricId) -> u32,
) -> Vec<u8> {
    // (metric, node, start, end, mean bits) plus the postings to lay out.
    type KeyRecord<'a> = (u32, u16, u32, u32, u64, &'a [LabelId]);
    let mut keys: Vec<KeyRecord<'_>> = entries
        .iter()
        .map(|(fp, ids)| {
            (
                metric_index(fp.metric),
                fp.node.0,
                fp.interval.start,
                fp.interval.end,
                fp.mean().to_bits(),
                ids.as_slice(),
            )
        })
        .collect();
    keys.sort_unstable_by_key(|&(m, n, s, e, b, _)| (m, n, s, e, b));
    out.reserve(keys.len() * KEY_RECORD_LEN);
    let mut postings: Vec<u8> = Vec::new();
    for (metric, node, start, end, mean_bits, ids) in keys {
        out.extend_from_slice(&metric.to_le_bytes());
        out.extend_from_slice(&node.to_le_bytes());
        out.extend_from_slice(&start.to_le_bytes());
        out.extend_from_slice(&end.to_le_bytes());
        out.extend_from_slice(&mean_bits.to_le_bytes());
        out.extend_from_slice(&(postings.len() as u32).to_le_bytes());
        postings.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for id in ids {
            postings.extend_from_slice(&(id.index() as u32).to_le_bytes());
        }
    }
    postings
}

/// Convenience: encode a live dictionary (clones its content into parts).
pub fn write_dictionary(dict: &EfdDictionary, catalog: &MetricCatalog) -> Vec<u8> {
    write(&dict.to_parts(), catalog)
}

/// Bounds-checked little-endian cursor over the input bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], BinFormatError> {
        let end = self.pos.checked_add(n).ok_or(BinFormatError::Layout {
            what: "offset arithmetic overflow",
        })?;
        if end > self.bytes.len() {
            return Err(BinFormatError::Truncated {
                what,
                need: end - self.pos,
                have: self.bytes.len() - self.pos,
            });
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, BinFormatError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, BinFormatError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, BinFormatError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
}

fn check_id(what: &'static str, id: u32, limit: usize) -> Result<(), BinFormatError> {
    if (id as usize) < limit {
        Ok(())
    } else {
        Err(BinFormatError::IdOutOfRange {
            what,
            id,
            limit: limit as u32,
        })
    }
}

// ---------------------------------------------------------------------
// Checked views: validate once, borrow forever
// ---------------------------------------------------------------------

/// A fully validated EFDB buffer, borrowed in place.
///
/// Produced by [`check`]: every invariant [`read`] enforces has already
/// been verified — magic, version, layout, checksum, string-table sort,
/// id bounds, key ordering, postings bounds — so the accessors below
/// expose the raw sections with **no further validation and no
/// allocation**. The view is `Copy`; as long as the backing bytes stay
/// alive it can be borrowed forever, which is exactly the substrate the
/// serving layer's read-only `Snapshot` answers queries from.
#[derive(Debug, Clone, Copy)]
#[must_use = "a checked view borrows the validated sections; decode or serve them"]
pub struct EfdbView<'a> {
    bytes: &'a [u8],
    depth: RoundingDepth,
    catalog_digest: u64,
    /// strings, metrics, apps, labels, keys — entry counts per section.
    counts: [u32; 5],
    offsets: [u32; 7],
}

impl<'a> EfdbView<'a> {
    /// Rounding depth the dictionary was built with.
    pub fn depth(&self) -> RoundingDepth {
        self.depth
    }

    /// The writer's catalog digest (see [`catalog_digest`]).
    pub fn stored_catalog_digest(&self) -> u64 {
        self.catalog_digest
    }

    /// Whether `catalog` has the digest the writer recorded — i.e.
    /// metric-name resolution reproduces the writer's ids.
    pub fn matches_catalog(&self, catalog: &MetricCatalog) -> bool {
        self.catalog_digest == catalog_digest(catalog)
    }

    /// Number of key records.
    pub fn len(&self) -> usize {
        self.counts[4] as usize
    }

    /// Whether the file holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload of section `idx` (the bytes after its count prefix).
    fn section_payload(&self, idx: usize) -> &'a [u8] {
        let start = self.offsets[idx] as usize + 4;
        let end = self.offsets[idx + 1] as usize;
        &self.bytes[start..end]
    }

    /// The string table in stored (sorted, deduplicated) order.
    pub fn strings(&self) -> Strings<'a> {
        Strings {
            rest: self.section_payload(0),
            remaining: self.counts[0],
        }
    }

    /// String ids of the metric names, in key-record metric-index order.
    pub fn metric_string_ids(&self) -> impl Iterator<Item = u32> + 'a {
        u32s(self.section_payload(1))
    }

    /// String ids of the application names, in tie-break order.
    pub fn app_string_ids(&self) -> impl Iterator<Item = u32> + 'a {
        u32s(self.section_payload(2))
    }

    /// Label records as `(app id, input string id)` pairs, in
    /// [`LabelId`] order.
    pub fn label_records(&self) -> impl Iterator<Item = (u32, u32)> + 'a {
        let payload = self.section_payload(3);
        (0..payload.len() / 8).map(move |i| {
            let at = i * 8;
            (le_u32(payload, at), le_u32(payload, at + 4))
        })
    }

    /// Typed view over the sorted fixed-width key records.
    pub fn keys(&self) -> KeyRecords<'a> {
        KeyRecords::over(&self.bytes[self.key_records_range()])
    }

    /// In-place view over the postings blob.
    pub fn postings(&self) -> Postings<'a> {
        Postings::over(&self.bytes[self.postings_blob_range()])
    }

    /// Byte range of the raw key-record array within the checked buffer
    /// (for callers that keep the buffer and rebind with
    /// [`KeyRecords::over`]).
    pub fn key_records_range(&self) -> std::ops::Range<usize> {
        self.offsets[4] as usize + 4..self.offsets[5] as usize
    }

    /// Byte range of the postings blob within the checked buffer (for
    /// callers that keep the buffer and rebind with [`Postings::over`]).
    pub fn postings_blob_range(&self) -> std::ops::Range<usize> {
        self.offsets[5] as usize + 4..self.offsets[6] as usize
    }

    /// Resolve every stored metric name against `catalog`, in
    /// key-record metric-index order (file-local index → catalog
    /// [`MetricId`]).
    pub fn resolve_metrics(
        &self,
        catalog: &MetricCatalog,
    ) -> Result<Vec<MetricId>, BinFormatError> {
        let strings: Vec<&str> = self.strings().collect();
        self.metric_string_ids()
            .map(|sid| {
                let name = strings[sid as usize];
                catalog
                    .id(name)
                    .ok_or_else(|| BinFormatError::UnknownMetric(name.to_string()))
            })
            .collect()
    }

    /// Decode the owned app/label tables: application names in tie-break
    /// order, labels in [`LabelId`] order, and each label's application.
    /// They scale with the number of labels, not keys.
    pub fn label_tables(&self) -> (Vec<String>, Vec<AppLabel>, Vec<AppNameId>) {
        let strings: Vec<&str> = self.strings().collect();
        self.decode_label_tables(&strings)
    }

    /// [`EfdbView::label_tables`] over an already collected string table.
    fn decode_label_tables(
        &self,
        strings: &[&'a str],
    ) -> (Vec<String>, Vec<AppLabel>, Vec<AppNameId>) {
        let apps: Vec<String> = self
            .app_string_ids()
            .map(|sid| strings[sid as usize].to_string())
            .collect();
        let n = self.counts[3] as usize;
        let mut labels = Vec::with_capacity(n);
        let mut label_app = Vec::with_capacity(n);
        for (app, input) in self.label_records() {
            labels.push(AppLabel::new(&apps[app as usize], strings[input as usize]));
            label_app.push(AppNameId::from_index(app as usize));
        }
        (apps, labels, label_app)
    }

    /// Thaw the viewed file into [`DictionaryParts`] directly — one
    /// materialization, no intermediate [`Efdb`] (metric names resolved
    /// via `catalog`).
    pub fn to_parts(&self, catalog: &MetricCatalog) -> Result<DictionaryParts, BinFormatError> {
        let metric_ids = self.resolve_metrics(catalog)?;
        let (apps, labels, label_app) = self.label_tables();
        let postings = self.postings();
        let entries = self
            .keys()
            .iter()
            .map(|r| {
                let fp = Fingerprint::from_rounded(
                    metric_ids[r.metric as usize],
                    r.node,
                    r.interval,
                    f64::from_bits(r.mean_bits),
                );
                let ids = postings
                    .label_ids(r.postings_off)
                    .map(|id| LabelId::from_index(id as usize))
                    .collect();
                (fp, ids)
            })
            .collect();
        Ok(DictionaryParts {
            depth: self.depth,
            entries,
            labels,
            apps,
            label_app,
        })
    }
}

/// Little-endian `u32` at byte offset `at` (caller guarantees bounds —
/// all section payloads are length-validated by [`check`]).
#[inline]
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// Iterator over a section payload of packed little-endian `u32`s.
fn u32s(payload: &[u8]) -> impl Iterator<Item = u32> + '_ {
    payload
        .chunks_exact(4)
        .map(|raw| u32::from_le_bytes(raw.try_into().unwrap()))
}

/// Iterator over a checked string table, yielding each entry in stored
/// (sorted) order without copying.
#[derive(Debug, Clone)]
#[must_use = "iterators are lazy"]
pub struct Strings<'a> {
    rest: &'a [u8],
    remaining: u32,
}

impl<'a> Iterator for Strings<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let len = le_u32(self.rest, 0) as usize;
        let raw = &self.rest[4..4 + len];
        self.rest = &self.rest[4 + len..];
        // UTF-8 was validated by `check`.
        Some(std::str::from_utf8(raw).unwrap_or(""))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

/// One decoded fixed-width key record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRecord {
    /// Index into the file's metrics section (file-local, not a
    /// catalog [`MetricId`]).
    pub metric: u32,
    /// Node id.
    pub node: NodeId,
    /// Time window of the fingerprint.
    pub interval: Interval,
    /// Rounded-mean bits (normalized: `-0.0` never appears).
    pub mean_bits: u64,
    /// Byte offset of this key's posting list in the postings blob.
    pub postings_off: u32,
}

/// Typed, random-access view over raw 26-byte key records: length,
/// indexed decode and iteration. No allocation; every access is
/// bounds-checked slicing.
///
/// Normally obtained from [`EfdbView::keys`]. [`KeyRecords::over`] can
/// rebind a view to key-record bytes a caller kept from a checked
/// buffer.
#[derive(Debug, Clone, Copy)]
#[must_use = "a key-record view only reads; call its accessors"]
pub struct KeyRecords<'a> {
    records: &'a [u8],
}

impl<'a> KeyRecords<'a> {
    /// View `records` (a whole number of [`KEY_RECORD_LEN`]-byte
    /// entries; a ragged tail is ignored) as key records.
    pub fn over(records: &'a [u8]) -> KeyRecords<'a> {
        let whole = records.len() - records.len() % KEY_RECORD_LEN;
        KeyRecords {
            records: &records[..whole],
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len() / KEY_RECORD_LEN
    }

    /// Whether there are no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The raw record bytes this view reads.
    pub fn bytes(&self) -> &'a [u8] {
        self.records
    }

    /// Decode record `i`.
    pub fn get(&self, i: usize) -> Option<KeyRecord> {
        let r = self
            .records
            .get(i * KEY_RECORD_LEN..(i + 1) * KEY_RECORD_LEN)?;
        Some(KeyRecord {
            metric: le_u32(r, 0),
            node: NodeId(u16::from_le_bytes(r[4..6].try_into().unwrap())),
            interval: Interval {
                start: le_u32(r, 6),
                end: le_u32(r, 10),
            },
            mean_bits: u64::from_le_bytes(r[14..22].try_into().unwrap()),
            postings_off: le_u32(r, 22),
        })
    }

    /// Iterate every record in stored (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = KeyRecord> + 'a {
        let v = *self;
        (0..v.len()).map(move |i| v.get(i).expect("index in range"))
    }
}

/// In-place view over a postings blob: per-key label-id lists decoded on
/// the fly, no allocation.
///
/// Normally obtained from [`EfdbView::postings`]; [`Postings::over`] can
/// rebind to blob bytes kept from a checked buffer. Every access is
/// bounds-checked (counts clamp to the blob), so unvalidated bytes can
/// only yield short or empty lists, never unsafety.
#[derive(Debug, Clone, Copy)]
#[must_use = "a postings view only reads; call its accessors"]
pub struct Postings<'a> {
    blob: &'a [u8],
}

impl<'a> Postings<'a> {
    /// View `blob` as a postings blob.
    pub fn over(blob: &'a [u8]) -> Postings<'a> {
        Postings { blob }
    }

    /// The raw blob bytes this view reads.
    pub fn bytes(&self) -> &'a [u8] {
        self.blob
    }

    /// The count-prefixed id array at `off`, as `(count, id bytes)`.
    #[inline]
    fn list_at(&self, off: u32) -> (usize, &'a [u8]) {
        let at = (off as usize).min(self.blob.len());
        let rest = &self.blob[at..];
        if rest.len() < 4 {
            return (0, &[]);
        }
        let ids = &rest[4..];
        ((le_u32(rest, 0) as usize).min(ids.len() / 4), ids)
    }

    /// Iterate the label ids stored at `off` (a
    /// [`KeyRecord::postings_off`]).
    pub fn label_ids(&self, off: u32) -> impl Iterator<Item = u32> + 'a {
        let (count, ids) = self.list_at(off);
        u32s(ids).take(count)
    }

    /// Chunked postings walk: decode the label ids at `off` in small
    /// fixed batches into a stack buffer, then hand each batch to `f` —
    /// the cache-friendly accumulation shape of the hot vote loop
    /// (decode touches the blob, votes touch the counters, never
    /// interleaved per id).
    pub fn for_each_label(&self, off: u32, mut f: impl FnMut(u32)) {
        let (count, ids) = self.list_at(off);
        let mut chunk = [0u32; 16];
        let mut done = 0;
        while done < count {
            let n = (count - done).min(chunk.len());
            for (slot, raw) in chunk
                .iter_mut()
                .zip(ids[done * 4..(done + n) * 4].chunks_exact(4))
            {
                *slot = u32::from_le_bytes(raw.try_into().unwrap());
            }
            for &id in &chunk[..n] {
                f(id);
            }
            done += n;
        }
    }
}

/// Validate an EFDB byte stream once and return a borrowing
/// [`EfdbView`] over its sections — the check-once / borrow-forever
/// half of [`read`].
///
/// Validation order: magic → version → header layout → checksum → depth →
/// sections (string table UTF-8 **and lexicographic sort**, ids in
/// bounds, key ordering, postings bounds). The first failure is returned
/// as a structured [`BinFormatError`]; a returned view is internally
/// consistent by construction.
///
/// On a buffer of at least 1 MiB the checksum runs on a scoped thread
/// while the calling thread checks the depth and the sections; the
/// result is still the first failure in the order above (a checksum
/// mismatch wins over any section error). Below 1 MiB everything runs
/// on the calling thread and `check` allocates nothing.
///
/// ```
/// use efd_core::{binfmt, EfdDictionary, RoundingDepth};
/// use efd_telemetry::catalog::small_catalog;
/// use efd_telemetry::{AppLabel, Interval, NodeId};
///
/// let catalog = small_catalog();
/// let metric = catalog.id("nr_mapped_vmstat").unwrap();
/// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
/// dict.insert_raw(metric, NodeId(0), Interval::PAPER_DEFAULT, 6020.0,
///                 &AppLabel::new("ft", "X"));
/// let bytes = binfmt::write(&dict.to_parts(), &catalog);
///
/// // Check once ...
/// let view = binfmt::check(&bytes).unwrap();
/// assert_eq!(view.len(), 1);
/// assert!(view.matches_catalog(&catalog));
/// // ... then borrow the sections in place, no allocation:
/// let keys = view.keys();
/// let rec = keys.get(0).unwrap();
/// let labels: Vec<u32> = view.postings().label_ids(rec.postings_off).collect();
/// assert_eq!(labels, [0]);
/// ```
pub fn check(bytes: &[u8]) -> Result<EfdbView<'_>, BinFormatError> {
    let mut c = Cursor { bytes, pos: 0 };

    let magic = c.take(4, "magic")?;
    if magic != MAGIC {
        return Err(BinFormatError::BadMagic {
            found: magic.try_into().unwrap(),
        });
    }
    let major = c.u16("version_major")?;
    let minor = c.u16("version_minor")?;
    if major != VERSION_MAJOR || minor > VERSION_MINOR {
        return Err(BinFormatError::UnsupportedVersion { major, minor });
    }
    let depth_byte = c.take(1, "depth")?[0];
    c.take(3, "reserved")?; // readers ignore reserved bytes (minor-version extension space)
    let digest = c.u64("catalog_digest")?;
    let mut offsets = [0u32; 7];
    for (i, off) in offsets.iter_mut().enumerate() {
        *off = c.u32(
            [
                "strings_off",
                "metrics_off",
                "apps_off",
                "labels_off",
                "keys_off",
                "postings_off",
                "checksum_off",
            ][i],
        )?;
    }

    // Layout sanity before touching section contents: offsets ascend,
    // the first section starts right after the header, and the checksum
    // trailer is the last 8 bytes of the stream.
    if offsets[0] as usize != HEADER_LEN {
        return Err(BinFormatError::Layout {
            what: "strings section does not start at the header boundary",
        });
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(BinFormatError::Layout {
            what: "section offsets are not ascending",
        });
    }
    let checksum_off = offsets[6] as usize;
    if checksum_off + 8 > bytes.len() {
        return Err(BinFormatError::Truncated {
            what: "checksum trailer",
            need: checksum_off + 8,
            have: bytes.len(),
        });
    }
    if checksum_off + 8 != bytes.len() {
        return Err(BinFormatError::Layout {
            what: "bytes after the checksum trailer",
        });
    }
    let stored = u64::from_le_bytes(bytes[checksum_off..checksum_off + 8].try_into().unwrap());
    let body = &bytes[..checksum_off];
    let verify = |computed: u64| {
        if stored == computed {
            Ok(())
        } else {
            Err(BinFormatError::ChecksumMismatch { stored, computed })
        }
    };
    if bytes.len() < CONCURRENT_CHECKSUM_MIN {
        verify(efd_util::hash::hash_bytes(body))?;
        return check_sections(c, offsets, depth_byte, digest);
    }
    // Both halves read the buffer and nothing else, so the checksum runs
    // on a scoped thread beside the section checks; its verdict is
    // applied first, as if it had run first. If no thread can be
    // started, the checksum runs here after the sections.
    let (computed, view) = std::thread::scope(|s| {
        let sum = std::thread::Builder::new().spawn_scoped(s, || efd_util::hash::hash_bytes(body));
        let view = check_sections(c, offsets, depth_byte, digest);
        let computed = match sum {
            Ok(sum) => sum.join().unwrap_or_else(|e| std::panic::resume_unwind(e)),
            Err(_) => efd_util::hash::hash_bytes(body),
        };
        (computed, view)
    });
    verify(computed)?;
    view
}

/// The part of [`check`] after the checksum: depth, then every section
/// in file order. `c` stands at the end of the header, and `offsets`
/// have passed the layout checks.
fn check_sections(
    mut c: Cursor<'_>,
    offsets: [u32; 7],
    depth_byte: u8,
    digest: u64,
) -> Result<EfdbView<'_>, BinFormatError> {
    let bytes = c.bytes;
    let checksum_off = offsets[6] as usize;
    let depth =
        RoundingDepth::try_new(depth_byte).ok_or(BinFormatError::InvalidDepth(depth_byte))?;

    let section = |idx: usize, c: &mut Cursor<'_>| -> Result<(), BinFormatError> {
        if c.pos != offsets[idx] as usize {
            return Err(BinFormatError::Layout {
                what: "section does not end at the next section's offset",
            });
        }
        Ok(())
    };

    // strings: UTF-8, and strictly ascending by UTF-8 bytes (the
    // canonical sorted/deduplicated form).
    section(0, &mut c)?;
    let n_strings = c.u32("string count")?;
    let mut prev_string: Option<&[u8]> = None;
    for i in 0..n_strings as usize {
        let len = c.u32("string length")? as usize;
        let raw = c.take(len, "string bytes")?;
        std::str::from_utf8(raw).map_err(|_| BinFormatError::InvalidUtf8 { index: i })?;
        if prev_string.is_some_and(|p| p >= raw) {
            return Err(BinFormatError::UnsortedStrings { index: i });
        }
        prev_string = Some(raw);
    }

    // metrics
    section(1, &mut c)?;
    let n_metrics = c.u32("metric count")?;
    for _ in 0..n_metrics {
        let sid = c.u32("metric string id")?;
        check_id("metric string", sid, n_strings as usize)?;
    }

    // apps
    section(2, &mut c)?;
    let n_apps = c.u32("app count")?;
    for _ in 0..n_apps {
        let sid = c.u32("app string id")?;
        check_id("app string", sid, n_strings as usize)?;
    }

    // labels
    section(3, &mut c)?;
    let n_labels = c.u32("label count")?;
    for _ in 0..n_labels {
        let app = c.u32("label app id")?;
        check_id("label app", app, n_apps as usize)?;
        let input = c.u32("label input string id")?;
        check_id("label input string", input, n_strings as usize)?;
    }

    // keys (fixed records, strictly ascending). Every record the buffer
    // holds whole is checked at fixed offsets; only one the buffer cuts
    // short goes through the cursor, field by field, so the checks and
    // the truncation report come in the order of the record's fields.
    section(4, &mut c)?;
    let n_keys = c.u32("key count")?;
    let keys_payload_at = c.pos;
    let check_interval = |start: u32, end: u32| {
        if end <= start {
            return Err(BinFormatError::EmptyInterval { start, end });
        }
        Ok(())
    };
    let check_mean = |mean_bits: u64| {
        if !f64::from_bits(mean_bits).is_finite() {
            return Err(BinFormatError::Layout {
                what: "non-finite mean bits in key record",
            });
        }
        Ok(())
    };
    let mut prev: Option<(u32, u16, u32, u32, u64)> = None;
    let mut check_order = |index: usize, ord: (u32, u16, u32, u32, u64)| {
        if prev.is_some_and(|p| p >= ord) {
            return Err(BinFormatError::UnsortedKeys { index });
        }
        prev = Some(ord);
        Ok(())
    };
    let whole = ((bytes.len() - c.pos) / KEY_RECORD_LEN).min(n_keys as usize);
    let records = &bytes[c.pos..c.pos + whole * KEY_RECORD_LEN];
    for (i, r) in records.chunks_exact(KEY_RECORD_LEN).enumerate() {
        let metric = le_u32(r, 0);
        check_id("key metric", metric, n_metrics as usize)?;
        let node = u16::from_le_bytes([r[4], r[5]]);
        let (start, end) = (le_u32(r, 6), le_u32(r, 10));
        check_interval(start, end)?;
        let mean_bits = u64::from_le_bytes(r[14..22].try_into().expect("8 bytes"));
        check_mean(mean_bits)?;
        check_order(i, (metric, node, start, end, mean_bits))?;
    }
    c.pos += records.len();
    for i in whole..n_keys as usize {
        let metric = c.u32("key metric id")?;
        check_id("key metric", metric, n_metrics as usize)?;
        let node = c.u16("key node")?;
        let start = c.u32("key interval start")?;
        let end = c.u32("key interval end")?;
        check_interval(start, end)?;
        let mean_bits = c.u64("key mean bits")?;
        check_mean(mean_bits)?;
        check_order(i, (metric, node, start, end, mean_bits))?;
        c.u32("key postings offset")?;
    }

    // postings: the blob itself, then every key's list within it.
    section(5, &mut c)?;
    let blob_len = c.u32("postings length")? as usize;
    let blob = c.take(blob_len, "postings blob")?;
    if c.pos != checksum_off {
        return Err(BinFormatError::Layout {
            what: "postings section does not end at the checksum trailer",
        });
    }
    let key_bytes = &bytes[keys_payload_at..offsets[5] as usize];
    debug_assert_eq!(KeyRecords::over(key_bytes).len(), n_keys as usize);
    for i in 0..n_keys as usize {
        let postings_off = le_u32(key_bytes, i * KEY_RECORD_LEN + 22);
        check_id("postings offset", postings_off, blob.len().max(1))?;
        let mut pc = Cursor {
            bytes: blob,
            pos: postings_off as usize,
        };
        let count = pc.u32("postings count")?;
        for _ in 0..count {
            let id = pc.u32("postings label id")?;
            check_id("postings label", id, n_labels as usize)?;
        }
    }

    Ok(EfdbView {
        bytes,
        depth,
        catalog_digest: digest,
        counts: [n_strings, n_metrics, n_apps, n_labels, n_keys],
        offsets,
    })
}

/// Decode and fully validate an EFDB byte stream.
///
/// [`check`] runs the whole validation pass; the returned [`Efdb`] is
/// the owned decode of the checked sections (serving skips this step
/// and keeps the checked bytes). Tools that want every key decoded use
/// it; the benchmark's trace (`perfbench/`) times it as the decode
/// layer, and that caller goes once the trace replays the daemon's own
/// load path (ROADMAP, item 1).
///
/// ```
/// use efd_core::{binfmt, EfdDictionary, RoundingDepth};
/// use efd_telemetry::catalog::small_catalog;
/// use efd_telemetry::{AppLabel, Interval, NodeId};
///
/// let catalog = small_catalog();
/// let metric = catalog.id("nr_mapped_vmstat").unwrap();
/// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
/// dict.insert_raw(metric, NodeId(0), Interval::PAPER_DEFAULT, 6020.0,
///                 &AppLabel::new("ft", "X"));
/// let bytes = binfmt::write(&dict.to_parts(), &catalog);
///
/// let efdb = binfmt::read(&bytes).unwrap();
/// assert_eq!(efdb.len(), 1);
/// assert_eq!(efdb.apps(), ["ft".to_string()]);
/// assert!(efdb.matches_catalog(&catalog));
///
/// // Corruption is caught before any section is interpreted.
/// let mut bad = bytes.clone();
/// *bad.last_mut().unwrap() ^= 0xFF;
/// assert!(matches!(binfmt::read(&bad),
///                  Err(binfmt::BinFormatError::ChecksumMismatch { .. })));
/// ```
pub fn read(bytes: &[u8]) -> Result<Efdb, BinFormatError> {
    let view = check(bytes)?;
    let strings: Vec<&str> = view.strings().collect();
    let metrics = view
        .metric_string_ids()
        .map(|sid| strings[sid as usize].to_string())
        .collect();
    let (apps, labels, label_app) = view.decode_label_tables(&strings);
    let postings = view.postings();
    let entries = view
        .keys()
        .iter()
        .map(|r| EfdbEntry {
            metric: r.metric,
            node: r.node,
            interval: r.interval,
            mean_bits: r.mean_bits,
            labels: postings
                .label_ids(r.postings_off)
                .map(|id| LabelId::from_index(id as usize))
                .collect(),
        })
        .collect();
    Ok(Efdb {
        depth: view.depth(),
        catalog_digest: view.stored_catalog_digest(),
        metrics,
        apps,
        labels,
        label_app,
        entries,
    })
}

/// Decode EFDB bytes and thaw straight into a live [`EfdDictionary`]
/// (the one-call load path; metric names resolved via `catalog`).
///
/// Routed through [`check`] + [`EfdbView::to_parts`], so the sections
/// are materialized exactly once — no intermediate [`Efdb`].
pub fn read_dictionary(
    bytes: &[u8],
    catalog: &MetricCatalog,
) -> Result<EfdDictionary, BinFormatError> {
    check(bytes)?
        .to_parts(catalog)
        .map(EfdDictionary::from_parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{LabeledObservation, Query};
    use efd_telemetry::catalog::small_catalog;

    fn sample_dict(c: &MetricCatalog) -> EfdDictionary {
        let m = c.id("nr_mapped_vmstat").unwrap();
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        for (app, means) in [
            ("sp", [7617.0, 7520.0, 7520.0, 7121.0]),
            ("bt", [7638.0, 7540.0, 7540.0, 7140.0]),
            ("ft", [6020.0, 6023.0, 6019.0, 6021.0]),
        ] {
            d.learn(&LabeledObservation {
                label: AppLabel::new(app, "X"),
                query: Query::from_node_means(m, Interval::PAPER_DEFAULT, &means),
            });
        }
        d
    }

    #[test]
    fn catalog_digest_is_pinned() {
        // Written into every EFDB header: a changed digest would make every
        // existing file take the name-by-name resolution path.
        assert_eq!(catalog_digest(&small_catalog()), 0x4e35_ce75_a1ac_93d9);
        assert_eq!(
            catalog_digest(&efd_telemetry::catalog::taxonomist_catalog()),
            0xbfca_ec4f_1b5b_1e4f
        );
    }

    #[test]
    fn roundtrip_preserves_recognition_and_tie_order() {
        let c = small_catalog();
        let m = c.id("nr_mapped_vmstat").unwrap();
        let d = sample_dict(&c);
        let bytes = write_dictionary(&d, &c);
        let back = read_dictionary(&bytes, &c).unwrap();

        assert_eq!(back.len(), d.len());
        assert_eq!(back.depth(), d.depth());
        assert_eq!(back.labels_in_order(), d.labels_in_order());
        assert_eq!(back.app_names(), d.app_names());
        for means in [
            [7601.0, 7512.0, 7533.0, 7098.0],
            [6031.0, 5988.0, 6007.0, 6044.0],
            [1.0, 2.0, 3.0, 4.0],
        ] {
            let q = Query::from_node_means(m, Interval::PAPER_DEFAULT, &means);
            assert_eq!(back.recognize(&q), d.recognize(&q));
        }
    }

    #[test]
    fn encoding_is_canonical_across_learn_order() {
        let c = small_catalog();
        let m = c.id("nr_mapped_vmstat").unwrap();
        // Same content, keys learned in opposite order (labels interned
        // identically via preregistration).
        let order: Vec<AppLabel> = [("sp", "X"), ("bt", "X")]
            .iter()
            .map(|(a, i)| AppLabel::new(*a, *i))
            .collect();
        let mut forward = EfdDictionary::new(RoundingDepth::new(2));
        let mut reverse = EfdDictionary::new(RoundingDepth::new(2));
        forward.preregister_labels(&order);
        reverse.preregister_labels(&order);
        let sp = [7617.0, 7520.0, 7520.0, 7121.0];
        let bt = [6038.0, 6040.0, 6041.0, 6042.0];
        for (n, &mean) in sp.iter().enumerate() {
            forward.insert_raw(
                m,
                NodeId(n as u16),
                Interval::PAPER_DEFAULT,
                mean,
                &order[0],
            );
        }
        for (n, &mean) in bt.iter().enumerate() {
            forward.insert_raw(
                m,
                NodeId(n as u16),
                Interval::PAPER_DEFAULT,
                mean,
                &order[1],
            );
        }
        for (n, &mean) in bt.iter().enumerate() {
            reverse.insert_raw(
                m,
                NodeId(n as u16),
                Interval::PAPER_DEFAULT,
                mean,
                &order[1],
            );
        }
        for (n, &mean) in sp.iter().enumerate() {
            reverse.insert_raw(
                m,
                NodeId(n as u16),
                Interval::PAPER_DEFAULT,
                mean,
                &order[0],
            );
        }
        assert_eq!(
            write_dictionary(&forward, &c),
            write_dictionary(&reverse, &c)
        );
    }

    #[test]
    fn header_fields_decode() {
        let c = small_catalog();
        let bytes = write_dictionary(&sample_dict(&c), &c);
        let f = read(&bytes).unwrap();
        assert_eq!(f.depth().get(), 2);
        assert!(f.matches_catalog(&c));
        assert_eq!(f.stored_catalog_digest(), catalog_digest(&c));
        assert_eq!(f.metrics(), ["nr_mapped_vmstat".to_string()]);
        assert_eq!(
            f.apps(),
            ["sp".to_string(), "bt".to_string(), "ft".to_string()]
        );
        assert_eq!(f.labels().len(), 3);
        assert_eq!(f.label_app().len(), 3);
    }

    #[test]
    fn keys_are_sorted_and_unique() {
        let c = small_catalog();
        let bytes = write_dictionary(&sample_dict(&c), &c);
        let f = read(&bytes).unwrap();
        let ord: Vec<_> = f
            .entries()
            .iter()
            .map(|e| {
                (
                    e.metric,
                    e.node.0,
                    e.interval.start,
                    e.interval.end,
                    e.mean_bits,
                )
            })
            .collect();
        let mut sorted = ord.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ord, sorted);
    }

    #[test]
    fn truncation_at_every_length_is_a_structured_error() {
        let c = small_catalog();
        let bytes = write_dictionary(&sample_dict(&c), &c);
        for len in 0..bytes.len() {
            let err = read(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    BinFormatError::Truncated { .. } | BinFormatError::Layout { .. }
                ),
                "prefix of {len} bytes: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_is_reported() {
        let c = small_catalog();
        let mut bytes = write_dictionary(&sample_dict(&c), &c);
        bytes[0] = b'X';
        assert_eq!(
            read(&bytes).unwrap_err(),
            BinFormatError::BadMagic { found: *b"XFDB" }
        );
    }

    #[test]
    fn version_policy_same_major_rejects_newer() {
        let c = small_catalog();
        let bytes = write_dictionary(&sample_dict(&c), &c);
        // Newer minor: rejected even with a valid checksum.
        let mut newer_minor = bytes.clone();
        newer_minor[6..8].copy_from_slice(&(VERSION_MINOR + 1).to_le_bytes());
        assert_eq!(
            read(&newer_minor).unwrap_err(),
            BinFormatError::UnsupportedVersion {
                major: VERSION_MAJOR,
                minor: VERSION_MINOR + 1
            }
        );
        // Different major: rejected.
        let mut newer_major = bytes;
        newer_major[4..6].copy_from_slice(&(VERSION_MAJOR + 1).to_le_bytes());
        assert_eq!(
            read(&newer_major).unwrap_err(),
            BinFormatError::UnsupportedVersion {
                major: VERSION_MAJOR + 1,
                minor: VERSION_MINOR
            }
        );
    }

    #[test]
    fn flipped_byte_fails_checksum() {
        let c = small_catalog();
        let mut bytes = write_dictionary(&sample_dict(&c), &c);
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            read(&bytes).unwrap_err(),
            BinFormatError::ChecksumMismatch { .. }
        ));
    }

    /// Corrupt one byte and re-stamp the checksum, so validation reaches
    /// the targeted check instead of stopping at the checksum.
    fn corrupt_and_restamp(bytes: &[u8], at: usize, val: u8) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at] = val;
        let body = out.len() - 8;
        let sum = efd_util::hash::hash_bytes(&out[..body]);
        out[body..].copy_from_slice(&sum.to_le_bytes());
        out
    }

    #[test]
    fn invalid_depth_is_reported() {
        let c = small_catalog();
        let bytes = write_dictionary(&sample_dict(&c), &c);
        let bad = corrupt_and_restamp(&bytes, 8, 99);
        assert_eq!(read(&bad).unwrap_err(), BinFormatError::InvalidDepth(99));
    }

    #[test]
    fn out_of_range_ids_are_reported() {
        let c = small_catalog();
        let bytes = write_dictionary(&sample_dict(&c), &c);
        let f = read(&bytes).unwrap();
        assert!(!f.is_empty());
        // The apps section's first string id lives right after its count.
        let apps_off = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
        let bad = corrupt_and_restamp(&bytes, apps_off + 4, 0xFF);
        assert!(matches!(
            read(&bad).unwrap_err(),
            BinFormatError::IdOutOfRange {
                what: "app string",
                ..
            }
        ));
    }

    #[test]
    fn unknown_metric_on_resolution() {
        let c = small_catalog();
        let bytes = write_dictionary(&sample_dict(&c), &c);
        let f = read(&bytes).unwrap();
        let empty = MetricCatalog::new();
        assert!(matches!(
            f.into_parts(&empty).unwrap_err(),
            BinFormatError::UnknownMetric(name) if name == "nr_mapped_vmstat"
        ));
    }

    #[test]
    fn catalog_digest_is_order_sensitive() {
        use efd_telemetry::metric::MetricCategory;
        let mut a = MetricCatalog::new();
        a.register("x_vmstat", MetricCategory::Vmstat, 1.0);
        a.register("y_vmstat", MetricCategory::Vmstat, 1.0);
        let mut b = MetricCatalog::new();
        b.register("y_vmstat", MetricCategory::Vmstat, 1.0);
        b.register("x_vmstat", MetricCategory::Vmstat, 1.0);
        assert_ne!(catalog_digest(&a), catalog_digest(&b));
        assert_eq!(catalog_digest(&a), catalog_digest(&a.clone()));
    }

    #[test]
    fn empty_dictionary_roundtrips() {
        let c = small_catalog();
        let d = EfdDictionary::new(RoundingDepth::new(5));
        let bytes = write_dictionary(&d, &c);
        let back = read_dictionary(&bytes, &c).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.depth().get(), 5);
    }

    #[test]
    fn duplicate_keys_in_parts_merge_before_encoding() {
        let c = small_catalog();
        let d = sample_dict(&c);
        let canonical = write_dictionary(&d, &c);
        let mut parts = d.to_parts();
        let (fp, ids) = parts.entries[0].clone();
        parts.entries.push((fp, ids));
        assert_eq!(write(&parts, &c), canonical);
    }
}
