//! Write-ahead learn log + immutable segments: crash-safe incremental
//! persistence for continuously-learning dictionaries.
//!
//! EFDB ([`crate::binfmt`]) is a full-dump format — the right shape for
//! publishing a finished dictionary, the wrong shape for a recognizer
//! that learns forever: persisting by rewriting the world means a crash
//! mid-dump loses everything since the last snapshot. This module adds
//! the LSM-style durability pair:
//!
//! * **WAL** — an append-only log of learn (and forget) operations, one
//!   length-prefixed, checksummed record per operation, reusing EFDB's
//!   little-endian encoding and FxHash checksum discipline. An operation
//!   is durable the moment its record is synced; recovery replays the
//!   log in order.
//! * **Segments** — when the log passes a size threshold it is *frozen*:
//!   the full current dictionary state is written as a canonical EFDB
//!   file (`segment-NNNNNN.efdb`) and the log resets. Each segment is a
//!   **cumulative snapshot** — it supersedes every lower-numbered one
//!   (loading an older segment too could resurrect keys forgotten
//!   between freezes), so recovery loads only the newest and
//!   [`compact_in_place`] deletes the rest, with canonical-bytes
//!   equality against a from-scratch EFDB dump (the
//!   [`DictionaryParts`] merge rules) as the correctness oracle.
//!
//! Cold start is therefore *newest segment + log tail*, and recovery
//! tolerates real failure modes with a structured [`WalError`] taxonomy
//! mirroring [`BinFormatError`]:
//!
//! * a **torn final record** (power loss mid-append) is truncated away
//!   with a warning — [`WalError::TornRecord`];
//! * a **checksum mismatch** stops replay at the last valid record and
//!   reports the byte position — [`WalError::CorruptRecord`];
//! * **missing segments** (the log requires more than the directory
//!   holds) and undecodable segments are hard errors —
//!   [`WalError::MissingSegments`] / [`WalError::Segment`];
//! * a **stale extra segment** (crash between segment write and log
//!   reset) is *safe*: the log still holds the operations the segment
//!   captured, and replaying an operation sequence over its own result
//!   is idempotent — learn re-inserts dedup, forgets re-remove.
//!
//! The [`fault`] submodule provides the deterministic fault-injection
//! writer the recovery test matrix is built on: truncations, bit flips,
//! and short writes at controlled offsets, in the spirit of the binfmt
//! corruption tests.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! wal.log            header | record | record | …
//! segment-000001.efdb   canonical EFDB (crate::binfmt)
//! segment-000002.efdb   …
//! ```
//!
//! The byte-level record spec lives in `docs/FORMAT.md`; this module is
//! the reference implementation.

use std::fmt;
use std::fs;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::{AppLabel, Interval, NodeId};

use crate::binfmt::{self, BinFormatError};
use crate::dictionary::{DictionaryParts, EfdDictionary};
use crate::maintenance;
use crate::observation::LabeledObservation;
use crate::rounding::RoundingDepth;

/// The four magic bytes every WAL file starts with.
pub const WAL_MAGIC: [u8; 4] = *b"EFDW";

/// WAL format major version this module writes; readers reject any other
/// major.
pub const WAL_VERSION_MAJOR: u16 = 1;

/// WAL format minor version; readers accept older-or-equal minors and
/// reject newer ones, whose extensions they would silently ignore.
pub const WAL_VERSION_MINOR: u16 = 0;

/// Size of the fixed log header (magic through `base_segments`).
pub const WAL_HEADER_LEN: usize = 16;

/// Size of one record frame before the payload (`len` u32 + `crc` u64).
pub const RECORD_FRAME_LEN: usize = 12;

/// Name of the log file inside a WAL directory.
pub const LOG_FILE: &str = "wal.log";

/// Errors reading, replaying, or managing a WAL directory.
///
/// Marked `#[non_exhaustive]` like [`BinFormatError`]: future recovery
/// validations may add variants without a semver break.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WalError {
    /// The log ends before the fixed header could be read in full.
    Truncated {
        /// Which field was being read.
        what: &'static str,
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The first four bytes are not [`WAL_MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The log's version is outside what this reader accepts.
    UnsupportedVersion {
        /// Major version stored in the log.
        major: u16,
        /// Minor version stored in the log.
        minor: u16,
    },
    /// The header's rounding depth is outside `1..=17`.
    InvalidDepth(u8),
    /// The final record is incomplete — the classic torn write. Recovery
    /// truncates the log back to `offset` and warns.
    TornRecord {
        /// Byte offset of the incomplete record's frame.
        offset: u64,
        /// Bytes the full record would need.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// A record's payload does not match its stored checksum. Replay
    /// stops at the last valid record; `offset` reports the position.
    CorruptRecord {
        /// Byte offset of the corrupt record's frame.
        offset: u64,
        /// Checksum stored in the frame.
        stored: u64,
        /// Checksum computed over the payload bytes.
        computed: u64,
    },
    /// A record frame declares a zero-length payload, which no writer
    /// produces — typically pre-allocated or zero-filled space.
    ZeroLengthRecord {
        /// Byte offset of the offending frame.
        offset: u64,
    },
    /// A record's checksum is valid but its payload is malformed
    /// (unknown kind, bad UTF-8, inconsistent lengths…).
    BadRecord {
        /// Byte offset of the record's frame.
        offset: u64,
        /// What was malformed.
        what: &'static str,
    },
    /// Replay: a stored metric name is absent from the loader's catalog.
    UnknownMetric {
        /// Index of the record being replayed.
        record: usize,
        /// The unresolvable metric name.
        metric: String,
    },
    /// A segment was built at a different rounding depth than the log.
    DepthMismatch {
        /// Depth in the log header.
        log: u8,
        /// Depth of the offending segment.
        segment: u8,
    },
    /// The log header requires a segment newer than any the directory
    /// holds — knowledge frozen out of the log is gone.
    MissingSegments {
        /// Segment sequence number the log header says must exist.
        expected: u32,
        /// Highest sequence number actually found (0 = none).
        found: u32,
    },
    /// A segment file failed EFDB validation.
    Segment {
        /// Path of the bad segment.
        path: String,
        /// The underlying format error.
        error: BinFormatError,
    },
    /// Append: a string of the record is longer than its `u16` length
    /// prefix can say. Nothing was written.
    StringTooLong {
        /// Which field (`app`, `input` or `metric`).
        what: &'static str,
        /// Its length in bytes.
        len: usize,
    },
    /// An I/O operation failed (message carries `std::io::Error` text).
    Io {
        /// Path the operation touched.
        path: String,
        /// The I/O error text.
        message: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Truncated { what, need, have } => {
                write!(
                    f,
                    "truncated while reading {what}: need {need} bytes, have {have}"
                )
            }
            WalError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (expected \"EFDW\")")
            }
            WalError::UnsupportedVersion { major, minor } => write!(
                f,
                "unsupported WAL version {major}.{minor} (this reader accepts \
                 {WAL_VERSION_MAJOR}.0 ..= {WAL_VERSION_MAJOR}.{WAL_VERSION_MINOR})"
            ),
            WalError::InvalidDepth(d) => write!(f, "rounding depth {d} outside 1..=17"),
            WalError::TornRecord { offset, need, have } => write!(
                f,
                "torn record at byte offset {offset}: need {need} bytes, have {have}"
            ),
            WalError::CorruptRecord {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "corrupt record at byte offset {offset}: stored checksum {stored:#018x}, \
                 computed {computed:#018x}"
            ),
            WalError::ZeroLengthRecord { offset } => {
                write!(f, "zero-length record at byte offset {offset}")
            }
            WalError::BadRecord { offset, what } => {
                write!(f, "malformed record at byte offset {offset}: {what}")
            }
            WalError::UnknownMetric { record, metric } => {
                write!(f, "record #{record}: metric {metric:?} not in catalog")
            }
            WalError::DepthMismatch { log, segment } => write!(
                f,
                "rounding depth mismatch: log is depth {log}, segment is depth {segment}"
            ),
            WalError::MissingSegments { expected, found } => write!(
                f,
                "missing segments: log requires segment {expected}, newest on disk is {found}"
            ),
            WalError::Segment { path, error } => write!(f, "segment {path}: {error}"),
            WalError::StringTooLong { what, len } => write!(
                f,
                "{what} of {len} bytes is over the WAL's {}-byte string limit",
                u16::MAX
            ),
            WalError::Io { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(path: &Path, e: &io::Error) -> WalError {
    WalError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// When appends reach the disk.
///
/// The durability contract is per-policy: an operation is *durably
/// acknowledged* once its record has been `fsync`ed — under
/// [`SyncPolicy::Always`] that is every append, under
/// [`SyncPolicy::EveryN`] every N-th append (a crash loses at most the
/// last unsynced batch), under [`SyncPolicy::Never`] only explicit
/// [`WalDir::sync`] calls (and segment freezes) flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every record — strongest guarantee, slowest.
    Always,
    /// `fsync` after every N records (the batching middle ground).
    EveryN(u32),
    /// Never `fsync` implicitly; the OS flushes when it pleases.
    Never,
}

impl SyncPolicy {
    /// Parse a `--wal-sync` flag value: `always`, `batch` (= every 32),
    /// `none`, or a number (= every N).
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s {
            "always" => Some(SyncPolicy::Always),
            "batch" => Some(SyncPolicy::EveryN(32)),
            "none" => Some(SyncPolicy::Never),
            n => n
                .parse::<u32>()
                .ok()
                .filter(|&n| n > 0)
                .map(SyncPolicy::EveryN),
        }
    }
}

/// Tuning for a [`WalDir`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// When appends are `fsync`ed (default: [`SyncPolicy::EveryN`]`(32)`).
    pub sync: SyncPolicy,
    /// Freeze the log into a segment once its record bytes exceed this
    /// (default 1 MiB). [`WalDir::should_freeze`] reports the condition;
    /// the owner decides when to act on it.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            sync: SyncPolicy::EveryN(32),
            segment_bytes: 1 << 20,
        }
    }
}

/// One fingerprint point inside a [`LearnRecord`], metric still in name
/// form (records are portable across catalog rebuilds, like EFDB keys).
#[derive(Debug, Clone, PartialEq)]
pub struct WalPoint {
    /// Metric name (resolved against the replaying catalog).
    pub metric: String,
    /// Node id.
    pub node: u16,
    /// Interval start second (inclusive).
    pub start: u32,
    /// Interval end second (exclusive); always > `start`.
    pub end: u32,
    /// IEEE-754 bits of the **raw** mean — replay re-rounds at the
    /// dictionary's depth, which is idempotent for already-rounded input.
    pub mean_bits: u64,
}

/// One logged learn: a labeled observation in name form.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnRecord {
    /// Application name.
    pub app: String,
    /// Input-size name.
    pub input: String,
    /// The observation's fingerprint points.
    pub points: Vec<WalPoint>,
}

impl LearnRecord {
    /// Encode a labeled observation for the log (metric ids resolved to
    /// names via `catalog`).
    pub fn from_observation(obs: &LabeledObservation, catalog: &MetricCatalog) -> LearnRecord {
        LearnRecord {
            app: obs.label.app.clone(),
            input: obs.label.input.clone(),
            points: obs
                .query
                .points
                .iter()
                .map(|p| WalPoint {
                    metric: catalog.name(p.metric).to_string(),
                    node: p.node.0,
                    start: p.interval.start,
                    end: p.interval.end,
                    mean_bits: p.mean.to_bits(),
                })
                .collect(),
        }
    }
}

/// One logged operation. Learns dominate; forgets exist so that
/// maintenance ([`crate::maintenance`]) composes with replay — an
/// eviction that is not logged would resurrect on recovery.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WalRecord {
    /// Learn a labeled observation.
    Learn(LearnRecord),
    /// Forget every key of an application ([`maintenance::forget_app`]).
    ForgetApp {
        /// The application to forget.
        app: String,
    },
    /// Forget one application + input ([`maintenance::forget_label`]).
    ForgetLabel {
        /// The application.
        app: String,
        /// The input size.
        input: String,
    },
}

const KIND_LEARN: u8 = 1;
const KIND_FORGET_APP: u8 = 2;
const KIND_FORGET_LABEL: u8 = 3;

impl WalRecord {
    /// Refuse a record with a string its `u16` length prefix cannot
    /// hold; [`WalDir::append`] checks this before writing a byte.
    fn check_strings(&self) -> Result<(), WalError> {
        let fits = |what, s: &str| {
            if s.len() > u16::MAX as usize {
                Err(WalError::StringTooLong { what, len: s.len() })
            } else {
                Ok(())
            }
        };
        match self {
            WalRecord::Learn(l) => {
                fits("app", &l.app)?;
                fits("input", &l.input)?;
                l.points.iter().try_for_each(|p| fits("metric", &p.metric))
            }
            WalRecord::ForgetApp { app } => fits("app", app),
            WalRecord::ForgetLabel { app, input } => {
                fits("app", app)?;
                fits("input", input)
            }
        }
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("WAL string over 65535 bytes (append refuses these)");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encode a record's payload (everything after the `len`+`crc` frame).
///
/// # Panics
///
/// Panics if a string of the record is over 65 535 bytes;
/// [`WalDir::append`] refuses such a record before encoding it.
pub fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match rec {
        WalRecord::Learn(l) => {
            out.push(KIND_LEARN);
            push_str(&mut out, &l.app);
            push_str(&mut out, &l.input);
            out.extend_from_slice(&(l.points.len() as u32).to_le_bytes());
            for p in &l.points {
                push_str(&mut out, &p.metric);
                out.extend_from_slice(&p.node.to_le_bytes());
                out.extend_from_slice(&p.start.to_le_bytes());
                out.extend_from_slice(&p.end.to_le_bytes());
                out.extend_from_slice(&p.mean_bits.to_le_bytes());
            }
        }
        WalRecord::ForgetApp { app } => {
            out.push(KIND_FORGET_APP);
            push_str(&mut out, app);
        }
        WalRecord::ForgetLabel { app, input } => {
            out.push(KIND_FORGET_LABEL);
            push_str(&mut out, app);
            push_str(&mut out, input);
        }
    }
    out
}

/// Encode a full framed record: `len` (u32) + `crc` (u64, FxHash of the
/// payload) + payload.
pub fn frame_record(rec: &WalRecord) -> Vec<u8> {
    let payload = encode_payload(rec);
    let mut out = Vec::with_capacity(RECORD_FRAME_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&efd_util::hash::hash_bytes(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Encode a fresh log header.
pub fn encode_header(depth: RoundingDepth, base_segments: u32) -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[..4].copy_from_slice(&WAL_MAGIC);
    h[4..6].copy_from_slice(&WAL_VERSION_MAJOR.to_le_bytes());
    h[6..8].copy_from_slice(&WAL_VERSION_MINOR.to_le_bytes());
    h[8] = depth.get();
    // bytes 9..12 reserved (minor-version extension space)
    h[12..16].copy_from_slice(&base_segments.to_le_bytes());
    h
}

/// Payload decoder — bounds-checked, every failure a [`WalError::BadRecord`]
/// anchored at the record's frame offset.
struct PayloadCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    offset: u64,
}

impl<'a> PayloadCursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WalError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(WalError::BadRecord {
                offset: self.offset,
                what,
            }),
        }
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WalError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn string(&mut self, what: &'static str) -> Result<String, WalError> {
        let len = self.u16(what)? as usize;
        let raw = self.take(len, what)?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|_| WalError::BadRecord {
                offset: self.offset,
                what: "string is not valid UTF-8",
            })
    }
}

/// Decode a record payload whose checksum already verified.
pub fn decode_payload(payload: &[u8], offset: u64) -> Result<WalRecord, WalError> {
    let mut c = PayloadCursor {
        bytes: payload,
        pos: 0,
        offset,
    };
    let kind = c.take(1, "record kind")?[0];
    let rec = match kind {
        KIND_LEARN => {
            let app = c.string("learn app name")?;
            let input = c.string("learn input name")?;
            let n = c.u32("learn point count")? as usize;
            let mut points = Vec::with_capacity(n.min(payload.len() / 20));
            for _ in 0..n {
                let metric = c.string("point metric name")?;
                let node = c.u16("point node")?;
                let start = c.u32("point interval start")?;
                let end = c.u32("point interval end")?;
                if end <= start {
                    return Err(WalError::BadRecord {
                        offset,
                        what: "empty interval in point",
                    });
                }
                let mean_bits = c.u64("point mean bits")?;
                points.push(WalPoint {
                    metric,
                    node,
                    start,
                    end,
                    mean_bits,
                });
            }
            WalRecord::Learn(LearnRecord { app, input, points })
        }
        KIND_FORGET_APP => WalRecord::ForgetApp {
            app: c.string("forget app name")?,
        },
        KIND_FORGET_LABEL => WalRecord::ForgetLabel {
            app: c.string("forget app name")?,
            input: c.string("forget input name")?,
        },
        _ => {
            return Err(WalError::BadRecord {
                offset,
                what: "unknown record kind",
            })
        }
    };
    if c.pos != payload.len() {
        return Err(WalError::BadRecord {
            offset,
            what: "trailing bytes after record payload",
        });
    }
    Ok(rec)
}

/// The decoded contents of a log file: every valid record, plus the tail
/// fault (if any) that stopped the scan.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a replay holds the recovered operations; apply or inspect them"]
pub struct LogReplay {
    /// Rounding depth from the header.
    pub depth: RoundingDepth,
    /// Number of segments the header requires on disk.
    pub base_segments: u32,
    /// Every fully-valid record, in log order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + valid records). Bytes
    /// past this are the torn/corrupt tail and are discarded on recovery.
    pub valid_len: u64,
    /// The fault that stopped the scan, if the log did not end cleanly:
    /// [`WalError::TornRecord`], [`WalError::CorruptRecord`],
    /// [`WalError::ZeroLengthRecord`], or [`WalError::BadRecord`].
    pub fault: Option<WalError>,
}

/// Decode a log byte stream.
///
/// Header problems (truncation, magic, version, depth) are hard errors.
/// Record-level problems are *tail faults*: the scan stops at the last
/// valid record and reports what it hit and where, so recovery can keep
/// the durably-written prefix — the crash-tolerance contract.
pub fn read_log(bytes: &[u8]) -> Result<LogReplay, WalError> {
    if bytes.len() < WAL_HEADER_LEN {
        return Err(WalError::Truncated {
            what: "wal header",
            need: WAL_HEADER_LEN,
            have: bytes.len(),
        });
    }
    if bytes[..4] != WAL_MAGIC {
        return Err(WalError::BadMagic {
            found: bytes[..4].try_into().unwrap(),
        });
    }
    let major = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    let minor = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
    if major != WAL_VERSION_MAJOR || minor > WAL_VERSION_MINOR {
        return Err(WalError::UnsupportedVersion { major, minor });
    }
    let depth = RoundingDepth::try_new(bytes[8]).ok_or(WalError::InvalidDepth(bytes[8]))?;
    let base_segments = u32::from_le_bytes(bytes[12..16].try_into().unwrap());

    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    let mut fault = None;
    while pos < bytes.len() {
        let have = bytes.len() - pos;
        if have < RECORD_FRAME_LEN {
            fault = Some(WalError::TornRecord {
                offset: pos as u64,
                need: RECORD_FRAME_LEN,
                have,
            });
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if len == 0 {
            fault = Some(WalError::ZeroLengthRecord { offset: pos as u64 });
            break;
        }
        let stored = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        if have < RECORD_FRAME_LEN + len {
            fault = Some(WalError::TornRecord {
                offset: pos as u64,
                need: RECORD_FRAME_LEN + len,
                have,
            });
            break;
        }
        let payload = &bytes[pos + RECORD_FRAME_LEN..pos + RECORD_FRAME_LEN + len];
        let computed = efd_util::hash::hash_bytes(payload);
        if stored != computed {
            fault = Some(WalError::CorruptRecord {
                offset: pos as u64,
                stored,
                computed,
            });
            break;
        }
        match decode_payload(payload, pos as u64) {
            Ok(rec) => records.push(rec),
            Err(e) => {
                fault = Some(e);
                break;
            }
        }
        pos += RECORD_FRAME_LEN + len;
    }
    Ok(LogReplay {
        depth,
        base_segments,
        records,
        valid_len: pos as u64,
        fault,
    })
}

/// Apply one replayed operation to a dictionary. `index` is the record's
/// position, used only to anchor [`WalError::UnknownMetric`].
pub fn apply_record(
    dict: &mut EfdDictionary,
    rec: &WalRecord,
    catalog: &MetricCatalog,
    index: usize,
) -> Result<(), WalError> {
    match rec {
        WalRecord::Learn(l) => {
            let label = AppLabel::new(&l.app, &l.input);
            for p in &l.points {
                let metric = catalog
                    .id(&p.metric)
                    .ok_or_else(|| WalError::UnknownMetric {
                        record: index,
                        metric: p.metric.clone(),
                    })?;
                dict.insert_raw(
                    metric,
                    NodeId(p.node),
                    Interval::new(p.start, p.end),
                    f64::from_bits(p.mean_bits),
                    &label,
                );
            }
        }
        WalRecord::ForgetApp { app } => {
            maintenance::forget_app(dict, app);
        }
        WalRecord::ForgetLabel { app, input } => {
            maintenance::forget_label(dict, app, input);
        }
    }
    Ok(())
}

/// List a directory's segment files, sorted by sequence number.
fn list_segments(dir: &Path) -> Result<Vec<(u32, PathBuf)>, WalError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, &e))?;
        let name = entry.file_name().to_string_lossy().to_string();
        let Some(seq) = name
            .strip_prefix("segment-")
            .and_then(|s| s.strip_suffix(".efdb"))
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        out.push((seq, entry.path()));
    }
    out.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(out)
}

/// The outcome of recovering a WAL directory.
#[derive(Debug)]
#[must_use = "recovery holds the rebuilt dictionary and the tail report"]
pub struct Recovery {
    /// The rebuilt dictionary: newest segment + replayed log tail.
    pub dictionary: EfdDictionary,
    /// Highest segment sequence number on disk (0 = no segments).
    pub segments: u32,
    /// Log records replayed.
    pub replayed: usize,
    /// Byte length of the log's valid prefix.
    pub log_valid_len: u64,
    /// Bytes of torn/corrupt tail past the valid prefix (0 = clean end).
    pub truncated_bytes: u64,
    /// The tail fault, if the log did not end cleanly (see
    /// [`LogReplay::fault`]). Recovery proceeds on the valid prefix.
    pub tail_fault: Option<WalError>,
}

/// Rebuild the dictionary a WAL directory describes, **without**
/// modifying the directory: the newest segment (a cumulative snapshot
/// superseding all older ones) loads first, then the log's valid record
/// prefix replays on top. Torn/corrupt tails are reported in
/// [`Recovery::tail_fault`]; header-level or segment-level problems are
/// hard errors.
pub fn recover(dir: &Path, catalog: &MetricCatalog) -> Result<Recovery, WalError> {
    let log_path = dir.join(LOG_FILE);
    let bytes = fs::read(&log_path).map_err(|e| io_err(&log_path, &e))?;
    let replay = read_log(&bytes)?;

    let segments = list_segments(dir)?;
    let newest = segments.last();
    let highest = newest.map_or(0, |&(seq, _)| seq);
    if highest < replay.base_segments {
        return Err(WalError::MissingSegments {
            expected: replay.base_segments,
            found: highest,
        });
    }

    let mut dict = match newest {
        None => EfdDictionary::new(replay.depth),
        Some((_, path)) => {
            let seg_bytes = fs::read(path).map_err(|e| io_err(path, &e))?;
            let seg_err = |error| WalError::Segment {
                path: path.display().to_string(),
                error,
            };
            // Checked-view load: validate the segment once, then thaw
            // the borrowed sections straight into parts — no owned
            // `Efdb` decode and no extra clone, so recovery pays one
            // materialization per segment byte instead of three.
            let view = binfmt::check(&seg_bytes).map_err(seg_err)?;
            if view.depth() != replay.depth {
                return Err(WalError::DepthMismatch {
                    log: replay.depth.get(),
                    segment: view.depth().get(),
                });
            }
            EfdDictionary::from_parts(view.to_parts(catalog).map_err(seg_err)?)
        }
    };
    for (i, rec) in replay.records.iter().enumerate() {
        apply_record(&mut dict, rec, catalog, i)?;
    }
    Ok(Recovery {
        dictionary: dict,
        segments: highest,
        replayed: replay.records.len(),
        log_valid_len: replay.valid_len,
        truncated_bytes: bytes.len() as u64 - replay.valid_len,
        tail_fault: replay.fault,
    })
}

/// An open, appendable WAL directory: the log file plus its frozen
/// segments.
///
/// Appends go through [`WalDir::append`] under the configured
/// [`SyncPolicy`]; when [`WalDir::should_freeze`] reports the log over
/// its size threshold, the owner passes the current dictionary state to
/// [`WalDir::freeze`], which writes an immutable canonical-EFDB segment
/// and resets the log. Crash windows are safe by construction:
///
/// * crash before a record syncs — the operation was never acknowledged;
/// * crash mid-append — torn tail, truncated on the next open;
/// * crash between segment write and log reset — a *stale* extra
///   segment whose operations the log still holds; recovery loads that
///   newest snapshot and replays the log over it, which is idempotent
///   (learns dedup, forgets re-remove), so it converges to the same
///   dictionary.
#[derive(Debug)]
pub struct WalDir {
    dir: PathBuf,
    file: fs::File,
    log_len: u64,
    depth: RoundingDepth,
    segments: u32,
    unsynced: u32,
    options: WalOptions,
}

impl WalDir {
    /// Open (or create) a WAL directory for appending, recovering
    /// whatever state it already holds.
    ///
    /// A fresh directory gets a log at `default_depth`; an existing log's
    /// depth wins (check [`Recovery::dictionary`]'s depth). A torn or
    /// corrupt tail is truncated away here — the fault stays visible in
    /// the returned [`Recovery`].
    pub fn open(
        dir: &Path,
        default_depth: RoundingDepth,
        catalog: &MetricCatalog,
        options: WalOptions,
    ) -> Result<(WalDir, Recovery), WalError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        let log_path = dir.join(LOG_FILE);
        if !log_path.exists() {
            if !list_segments(dir)?.is_empty() {
                return Err(WalError::Io {
                    path: log_path.display().to_string(),
                    message: "wal.log missing but segments exist (delete them to start fresh)"
                        .to_string(),
                });
            }
            let mut file = fs::OpenOptions::new()
                .create(true)
                .truncate(true)
                .read(true)
                .write(true)
                .open(&log_path)
                .map_err(|e| io_err(&log_path, &e))?;
            file.write_all(&encode_header(default_depth, 0))
                .and_then(|()| file.sync_data())
                .map_err(|e| io_err(&log_path, &e))?;
            let me = WalDir {
                dir: dir.to_path_buf(),
                file,
                log_len: WAL_HEADER_LEN as u64,
                depth: default_depth,
                segments: 0,
                unsynced: 0,
                options,
            };
            let recovery = Recovery {
                dictionary: EfdDictionary::new(default_depth),
                segments: 0,
                replayed: 0,
                log_valid_len: WAL_HEADER_LEN as u64,
                truncated_bytes: 0,
                tail_fault: None,
            };
            return Ok((me, recovery));
        }

        let recovery = recover(dir, catalog)?;
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&log_path)
            .map_err(|e| io_err(&log_path, &e))?;
        if recovery.truncated_bytes > 0 {
            // Drop the torn/corrupt tail so new appends start at a clean
            // record boundary.
            file.set_len(recovery.log_valid_len)
                .and_then(|()| file.sync_data())
                .map_err(|e| io_err(&log_path, &e))?;
        }
        file.seek(SeekFrom::Start(recovery.log_valid_len))
            .map_err(|e| io_err(&log_path, &e))?;
        let me = WalDir {
            dir: dir.to_path_buf(),
            file,
            log_len: recovery.log_valid_len,
            depth: recovery.dictionary.depth(),
            segments: recovery.segments,
            unsynced: 0,
            options,
        };
        Ok((me, recovery))
    }

    /// The directory this WAL lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Rounding depth recorded in the log header.
    pub fn depth(&self) -> RoundingDepth {
        self.depth
    }

    /// Current log length in bytes (header included).
    pub fn log_len(&self) -> u64 {
        self.log_len
    }

    /// Highest segment sequence number on disk (0 = no segments).
    pub fn segment_count(&self) -> u32 {
        self.segments
    }

    /// Append one operation record under the sync policy. On `Ok`, the
    /// record is written (and synced, policy permitting). A record with a
    /// string over 65 535 bytes is refused with
    /// [`WalError::StringTooLong`] and leaves the log untouched.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), WalError> {
        rec.check_strings()?;
        let log_path = self.dir.join(LOG_FILE);
        let frame = frame_record(rec);
        self.file
            .write_all(&frame)
            .map_err(|e| io_err(&log_path, &e))?;
        self.log_len += frame.len() as u64;
        match self.options.sync {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => self.unsynced += 1,
        }
        Ok(())
    }

    /// Flush outstanding appends to disk (`fsync`).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file
            .sync_data()
            .map_err(|e| io_err(&self.dir.join(LOG_FILE), &e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Whether the log's record bytes exceed the segment threshold.
    pub fn should_freeze(&self) -> bool {
        self.log_len - WAL_HEADER_LEN as u64 >= self.options.segment_bytes
    }

    /// Freeze the given dictionary state — which must reflect every
    /// operation logged so far (segments + this log) — into an immutable
    /// canonical-EFDB segment, then reset the log.
    ///
    /// Write order is crash-safe: the segment is written to a temp file,
    /// synced, renamed into place, and only then is the log truncated to
    /// a fresh header recording the new segment count.
    pub fn freeze(
        &mut self,
        parts: &DictionaryParts,
        catalog: &MetricCatalog,
    ) -> Result<PathBuf, WalError> {
        let seq = self.segments + 1;
        let path = self.dir.join(format!("segment-{seq:06}.efdb"));
        let tmp = self.dir.join(format!("segment-{seq:06}.efdb.tmp"));
        let bytes = binfmt::write(parts, catalog);
        {
            let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, &e))?;
            f.write_all(&bytes)
                .and_then(|()| f.sync_all())
                .map_err(|e| io_err(&tmp, &e))?;
        }
        fs::rename(&tmp, &path).map_err(|e| io_err(&path, &e))?;

        // Reset the log: everything it held now lives in the segment.
        let log_path = self.dir.join(LOG_FILE);
        self.file.set_len(0).map_err(|e| io_err(&log_path, &e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err(&log_path, &e))?;
        self.file
            .write_all(&encode_header(self.depth, seq))
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err(&log_path, &e))?;
        self.segments = seq;
        self.log_len = WAL_HEADER_LEN as u64;
        self.unsynced = 0;
        Ok(path)
    }
}

/// Report from [`compact_in_place`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// The merged segment that now holds everything.
    pub segment: PathBuf,
    /// Older segment files removed.
    pub removed: usize,
    /// Keys in the compacted dictionary.
    pub keys: usize,
    /// Log records folded in.
    pub replayed: usize,
}

/// Merge a WAL directory's segments + log tail into one canonical EFDB
/// segment, removing the superseded segment files and resetting the log.
///
/// The output is **canonical bytes**: identical to a from-scratch EFDB
/// dump of a dictionary holding the same content — the compaction
/// correctness oracle the durability tests assert.
pub fn compact_in_place(dir: &Path, catalog: &MetricCatalog) -> Result<CompactReport, WalError> {
    let recovery = recover(dir, catalog)?;
    let (mut wal, _) = WalDir::open(
        dir,
        recovery.dictionary.depth(),
        catalog,
        WalOptions::default(),
    )?;
    let parts = recovery.dictionary.to_parts();
    let keys = parts.entries.len();
    let segment = wal.freeze(&parts, catalog)?;
    let mut removed = 0usize;
    for (_, path) in list_segments(dir)? {
        if path != segment {
            fs::remove_file(&path).map_err(|e| io_err(&path, &e))?;
            removed += 1;
        }
    }
    Ok(CompactReport {
        segment,
        removed,
        keys,
        replayed: recovery.replayed,
    })
}

pub mod fault {
    //! Deterministic write-fault injection for durability tests.
    //!
    //! [`FaultyWriter`] is an in-memory `io::Write` that misbehaves at a
    //! controlled byte offset — the WAL analogue of the binfmt corruption
    //! matrix. The three fault shapes map to real failure modes:
    //!
    //! * [`Fault::TruncateAt`] — bytes past the offset vanish *silently*
    //!   (the writer believes they landed): power loss with data still in
    //!   the page cache. Produces a torn tail.
    //! * [`Fault::ShortWriteAt`] — the write errors after a partial
    //!   transfer (disk full, I/O error): the caller sees the failure, but
    //!   a record fragment is on disk anyway.
    //! * [`Fault::BitFlipAt`] — one byte is corrupted in passing (media
    //!   rot, DMA corruption). Produces a checksum mismatch mid-log.

    use std::io::{self, Write};

    /// The fault plan for a [`FaultyWriter`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Fault {
        /// Behave perfectly.
        None,
        /// Silently discard every byte at offset ≥ the given position,
        /// while reporting success.
        TruncateAt(usize),
        /// Accept bytes up to the given position, then fail the write.
        ShortWriteAt(usize),
        /// Flip the given bit mask into the byte at the given offset.
        BitFlipAt {
            /// Byte position to corrupt.
            offset: usize,
            /// XOR mask applied to that byte.
            mask: u8,
        },
    }

    /// An in-memory writer that injects one [`Fault`] at a byte offset.
    #[derive(Debug)]
    pub struct FaultyWriter {
        buf: Vec<u8>,
        fault: Fault,
    }

    impl FaultyWriter {
        /// A writer that will inject `fault`.
        pub fn new(fault: Fault) -> Self {
            Self {
                buf: Vec::new(),
                fault,
            }
        }

        /// The bytes that actually "reached the disk".
        pub fn bytes(&self) -> &[u8] {
            &self.buf
        }

        /// Consume the writer, returning the surviving bytes.
        pub fn into_bytes(self) -> Vec<u8> {
            self.buf
        }
    }

    impl Write for FaultyWriter {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            match self.fault {
                Fault::None => {
                    self.buf.extend_from_slice(data);
                    Ok(data.len())
                }
                Fault::TruncateAt(limit) => {
                    let keep = limit.saturating_sub(self.buf.len()).min(data.len());
                    self.buf.extend_from_slice(&data[..keep]);
                    // Lie: report full success, like a page cache that
                    // never reaches the platter.
                    Ok(data.len())
                }
                Fault::ShortWriteAt(limit) => {
                    let keep = limit.saturating_sub(self.buf.len()).min(data.len());
                    self.buf.extend_from_slice(&data[..keep]);
                    if keep == data.len() {
                        Ok(data.len())
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "injected short write",
                        ))
                    }
                }
                Fault::BitFlipAt { offset, mask } => {
                    let start = self.buf.len();
                    self.buf.extend_from_slice(data);
                    if offset >= start && offset < self.buf.len() {
                        self.buf[offset] ^= mask;
                    }
                    Ok(data.len())
                }
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}

/// Build a complete in-memory log image (header + framed records) — the
/// byte stream a [`WalDir`] would hold after the same appends. The
/// durability test matrix runs faults over exactly these bytes.
pub fn encode_log(depth: RoundingDepth, base_segments: u32, records: &[WalRecord]) -> Vec<u8> {
    let mut out = encode_header(depth, base_segments).to_vec();
    for rec in records {
        out.extend_from_slice(&frame_record(rec));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Query;
    use efd_telemetry::catalog::small_catalog;
    use efd_telemetry::MetricId;

    fn obs(app: &str, input: &str, means: &[f64]) -> LabeledObservation {
        LabeledObservation {
            label: AppLabel::new(app, input),
            query: Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, means),
        }
    }

    fn learn_records(catalog: &MetricCatalog) -> Vec<WalRecord> {
        [
            obs("sp", "X", &[7617.0, 7520.0, 7520.0, 7121.0]),
            obs("bt", "X", &[7638.0, 7540.0, 7540.0, 7140.0]),
            obs("ft", "Y", &[6023.0, 6019.0, 6021.0, 6018.0]),
        ]
        .iter()
        .map(|o| WalRecord::Learn(LearnRecord::from_observation(o, catalog)))
        .collect()
    }

    #[test]
    fn record_roundtrip_all_kinds() {
        let catalog = small_catalog();
        let mut records = learn_records(&catalog);
        records.push(WalRecord::ForgetApp { app: "sp".into() });
        records.push(WalRecord::ForgetLabel {
            app: "ft".into(),
            input: "Y".into(),
        });
        for rec in &records {
            let payload = encode_payload(rec);
            assert_eq!(&decode_payload(&payload, 0).unwrap(), rec);
        }
    }

    #[test]
    fn log_roundtrip_and_replay() {
        let catalog = small_catalog();
        let records = learn_records(&catalog);
        let bytes = encode_log(RoundingDepth::new(2), 0, &records);
        let replay = read_log(&bytes).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.valid_len, bytes.len() as u64);
        assert!(replay.fault.is_none());

        let mut dict = EfdDictionary::new(replay.depth);
        for (i, rec) in replay.records.iter().enumerate() {
            apply_record(&mut dict, rec, &catalog, i).unwrap();
        }
        let metric = catalog.id("nr_mapped_vmstat").unwrap();
        let q = Query::from_node_means(
            metric,
            Interval::PAPER_DEFAULT,
            &[6031.0, 5988.0, 6007.0, 6044.0],
        );
        assert_eq!(dict.recognize(&q).best(), Some("ft"));
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let catalog = small_catalog();
        let records = learn_records(&catalog);
        let bytes = encode_log(RoundingDepth::new(2), 0, &records);
        // Cut 5 bytes into the final record.
        let last_frame = frame_record(&records[2]).len();
        let cut = bytes.len() - last_frame + 5;
        let replay = read_log(&bytes[..cut]).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.valid_len as usize, bytes.len() - last_frame);
        assert!(matches!(replay.fault, Some(WalError::TornRecord { .. })));
    }

    #[test]
    fn flipped_payload_byte_is_a_corrupt_record() {
        let catalog = small_catalog();
        let records = learn_records(&catalog);
        let mut bytes = encode_log(RoundingDepth::new(2), 0, &records);
        // Corrupt a payload byte of the second record.
        let first = frame_record(&records[0]).len();
        let at = WAL_HEADER_LEN + first + RECORD_FRAME_LEN + 3;
        bytes[at] ^= 0x40;
        let replay = read_log(&bytes).unwrap();
        assert_eq!(
            replay.records.len(),
            1,
            "replay stops at the last valid record"
        );
        assert!(matches!(
            replay.fault,
            Some(WalError::CorruptRecord { offset, .. })
                if offset == (WAL_HEADER_LEN + first) as u64
        ));
    }

    #[test]
    fn header_errors_are_hard() {
        let catalog = small_catalog();
        let bytes = encode_log(RoundingDepth::new(2), 0, &learn_records(&catalog));
        assert!(matches!(
            read_log(&[]).unwrap_err(),
            WalError::Truncated {
                what: "wal header",
                ..
            }
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_log(&bad_magic).unwrap_err(),
            WalError::BadMagic { .. }
        ));
        let mut newer = bytes.clone();
        newer[6] = (WAL_VERSION_MINOR + 1) as u8;
        assert!(matches!(
            read_log(&newer).unwrap_err(),
            WalError::UnsupportedVersion { .. }
        ));
        let mut bad_depth = bytes;
        bad_depth[8] = 0;
        assert_eq!(read_log(&bad_depth).unwrap_err(), WalError::InvalidDepth(0));
    }

    #[test]
    fn wal_dir_appends_recover_and_freeze() {
        let catalog = small_catalog();
        let dir = std::env::temp_dir().join(format!("efd-wal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let depth = RoundingDepth::new(2);
        let observations = [
            obs("sp", "X", &[7617.0, 7520.0, 7520.0, 7121.0]),
            obs("bt", "X", &[7638.0, 7540.0, 7540.0, 7140.0]),
            obs("ft", "Y", &[6023.0, 6019.0, 6021.0, 6018.0]),
        ];

        // Session 1: learn two observations, freeze after the first.
        let mut oracle = EfdDictionary::new(depth);
        {
            let (mut wal, rec) =
                WalDir::open(&dir, depth, &catalog, WalOptions::default()).unwrap();
            assert!(rec.dictionary.is_empty());
            for (i, o) in observations[..2].iter().enumerate() {
                wal.append(&WalRecord::Learn(LearnRecord::from_observation(
                    o, &catalog,
                )))
                .unwrap();
                oracle.learn(o);
                if i == 0 {
                    wal.freeze(&oracle.to_parts(), &catalog).unwrap();
                    assert_eq!(wal.segment_count(), 1);
                }
            }
            wal.sync().unwrap();
        }

        // Session 2: recovery = segment + log tail; keep learning.
        {
            let (mut wal, rec) =
                WalDir::open(&dir, depth, &catalog, WalOptions::default()).unwrap();
            assert_eq!(rec.segments, 1);
            assert_eq!(rec.replayed, 1);
            assert_eq!(rec.dictionary.len(), oracle.len());
            wal.append(&WalRecord::Learn(LearnRecord::from_observation(
                &observations[2],
                &catalog,
            )))
            .unwrap();
            oracle.learn(&observations[2]);
            wal.sync().unwrap();
        }

        // Compaction merges everything into one canonical segment.
        let report = compact_in_place(&dir, &catalog).unwrap();
        assert_eq!(report.removed, 1);
        assert_eq!(report.keys, oracle.len());
        let seg_bytes = fs::read(&report.segment).unwrap();
        assert_eq!(
            seg_bytes,
            binfmt::write_dictionary(&oracle, &catalog),
            "compaction output must be canonical-bytes-equal to a from-scratch dump"
        );

        // Final recovery answers like the oracle.
        let rec = recover(&dir, &catalog).unwrap();
        let metric = catalog.id("nr_mapped_vmstat").unwrap();
        for means in [
            [7601.0, 7512.0, 7533.0, 7098.0],
            [6031.0, 5988.0, 6007.0, 6044.0],
            [1.0, 2.0, 3.0, 4.0],
        ] {
            let q = Query::from_node_means(metric, Interval::PAPER_DEFAULT, &means);
            assert_eq!(rec.dictionary.recognize(&q), oracle.recognize(&q));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_segment_is_a_hard_error() {
        let catalog = small_catalog();
        let dir = std::env::temp_dir().join(format!("efd-wal-missing-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let depth = RoundingDepth::new(2);
        {
            let (mut wal, _) = WalDir::open(&dir, depth, &catalog, WalOptions::default()).unwrap();
            let mut d = EfdDictionary::new(depth);
            let o = obs("sp", "X", &[7617.0]);
            wal.append(&WalRecord::Learn(LearnRecord::from_observation(
                &o, &catalog,
            )))
            .unwrap();
            d.learn(&o);
            wal.freeze(&d.to_parts(), &catalog).unwrap();
        }
        fs::remove_file(dir.join("segment-000001.efdb")).unwrap();
        assert_eq!(
            recover(&dir, &catalog).unwrap_err(),
            WalError::MissingSegments {
                expected: 1,
                found: 0
            }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_writer_truncates_silently() {
        use fault::{Fault, FaultyWriter};
        let mut w = FaultyWriter::new(Fault::TruncateAt(10));
        w.write_all(&[1u8; 8]).unwrap();
        w.write_all(&[2u8; 8]).unwrap(); // reports success, keeps 2 bytes
        assert_eq!(w.bytes().len(), 10);

        let mut w = FaultyWriter::new(Fault::ShortWriteAt(10));
        w.write_all(&[1u8; 8]).unwrap();
        assert!(w.write_all(&[2u8; 8]).is_err());
        assert_eq!(w.bytes().len(), 10, "partial bytes land before the error");

        let mut w = FaultyWriter::new(Fault::BitFlipAt {
            offset: 3,
            mask: 0x80,
        });
        w.write_all(&[0u8; 8]).unwrap();
        assert_eq!(w.bytes()[3], 0x80);
    }

    #[test]
    fn sync_policy_parses() {
        assert_eq!(SyncPolicy::parse("always"), Some(SyncPolicy::Always));
        assert_eq!(SyncPolicy::parse("batch"), Some(SyncPolicy::EveryN(32)));
        assert_eq!(SyncPolicy::parse("none"), Some(SyncPolicy::Never));
        assert_eq!(SyncPolicy::parse("7"), Some(SyncPolicy::EveryN(7)));
        assert_eq!(SyncPolicy::parse("0"), None);
        assert_eq!(SyncPolicy::parse("sometimes"), None);
    }
}
