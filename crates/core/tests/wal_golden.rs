//! Golden-file tests for the WAL log format.
//!
//! `tests/fixtures/two_apps.wal` is the checked-in log of a small
//! deterministic operation sequence (the same one whose annotated hex
//! dump appears in `docs/FORMAT.md`): learn SP, learn BT, forget SP's
//! label. The byte-exact comparison pins the *format* — header layout,
//! record framing, payload encoding, checksum — and any intentional
//! change must come with a version bump, a spec update, and a re-bless:
//!
//! ```sh
//! EFD_BLESS=1 cargo test -p efd-core --test wal_golden
//! ```
//!
//! The corruption matrix then takes the golden bytes apart the way a
//! failing disk would: torn tails, flipped CRC bytes, zero-length
//! records, duplicated records, empty files. Each case asserts both the
//! structured `WalError` variant and the recovered-prefix length — the
//! truncate-and-warn recovery contract is *exactly* "keep every record
//! before the fault, report the fault and its byte offset".

use efd_core::wal::{
    self, encode_log, frame_record, read_log, LearnRecord, WalError, WalRecord, RECORD_FRAME_LEN,
    WAL_HEADER_LEN,
};
use efd_core::{EfdDictionary, LabeledObservation, Query, RoundingDepth};
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::{AppLabel, Interval};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/two_apps.wal");

fn obs(catalog: &MetricCatalog, app: &str, means: &[f64]) -> LabeledObservation {
    let metric = catalog.id("nr_mapped_vmstat").unwrap();
    LabeledObservation {
        label: AppLabel::new(app, "X"),
        query: Query::from_node_means(metric, Interval::PAPER_DEFAULT, means),
    }
}

/// The fixture operation sequence: the binfmt golden pair (SP and BT at
/// depth 2, every key colliding), plus one forget so all three record
/// kinds are pinned.
fn golden_records(catalog: &MetricCatalog) -> Vec<WalRecord> {
    vec![
        WalRecord::Learn(LearnRecord::from_observation(
            &obs(catalog, "sp", &[7617.0, 7520.0, 7520.0, 7121.0]),
            catalog,
        )),
        WalRecord::Learn(LearnRecord::from_observation(
            &obs(catalog, "bt", &[7638.0, 7540.0, 7540.0, 7140.0]),
            catalog,
        )),
        WalRecord::ForgetLabel {
            app: "sp".into(),
            input: "X".into(),
        },
    ]
}

fn golden_bytes() -> Vec<u8> {
    encode_log(RoundingDepth::new(2), 0, &golden_records(&small_catalog()))
}

fn fixture_bytes() -> Vec<u8> {
    if std::env::var_os("EFD_BLESS").is_some() {
        std::fs::write(FIXTURE, golden_bytes()).expect("bless fixture");
    }
    std::fs::read(FIXTURE).expect(
        "fixture missing — generate with \
         EFD_BLESS=1 cargo test -p efd-core --test wal_golden",
    )
}

#[test]
fn writer_is_byte_exact_against_the_checked_in_fixture() {
    assert_eq!(
        golden_bytes(),
        fixture_bytes(),
        "WAL encoding changed: if intentional, bump the format version, \
         update docs/FORMAT.md, and re-bless the fixture"
    );
}

#[test]
fn fixture_replays_to_the_post_forget_dictionary() {
    let catalog = small_catalog();
    let replay = read_log(&fixture_bytes()).unwrap();
    assert_eq!(replay.depth.get(), 2);
    assert_eq!(replay.base_segments, 0);
    assert_eq!(replay.records, golden_records(&catalog));
    assert!(replay.fault.is_none());

    let mut dict = EfdDictionary::new(replay.depth);
    for (i, rec) in replay.records.iter().enumerate() {
        wal::apply_record(&mut dict, rec, &catalog, i).unwrap();
    }
    // SP was learned then forgotten: only BT answers.
    let metric = catalog.id("nr_mapped_vmstat").unwrap();
    let q = Query::from_node_means(
        metric,
        Interval::PAPER_DEFAULT,
        &[7601.0, 7512.0, 7533.0, 7098.0],
    );
    assert_eq!(dict.recognize(&q).best(), Some("bt"));
    assert_eq!(dict.app_names(), ["bt".to_string()]);
}

/// Frame offsets of each record in the golden log, plus the total length.
fn record_offsets() -> (Vec<usize>, usize) {
    let catalog = small_catalog();
    let mut offsets = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    for rec in golden_records(&catalog) {
        offsets.push(pos);
        pos += frame_record(&rec).len();
    }
    (offsets, pos)
}

#[test]
fn torn_tail_every_cut_point_recovers_the_preceding_records() {
    // Sweep EVERY possible truncation length past the header: recovery
    // must always keep exactly the records whose frames fit, and report
    // the torn remainder.
    let bytes = fixture_bytes();
    let (offsets, total) = record_offsets();
    assert_eq!(total, bytes.len());
    // Frame boundaries: a record is complete iff the next boundary fits.
    let mut bounds = offsets.clone();
    bounds.push(total);
    for cut in WAL_HEADER_LEN..total {
        let replay = read_log(&bytes[..cut]).unwrap();
        // The fault anchors at the start of the first incomplete frame —
        // the largest boundary ≤ cut.
        let anchor = *bounds.iter().rev().find(|&&b| b <= cut).unwrap();
        let complete = bounds.iter().position(|&b| b == anchor).unwrap();
        assert_eq!(
            replay.records.len(),
            complete,
            "cut at {cut}: wrong recovered-prefix record count"
        );
        assert_eq!(replay.valid_len, anchor as u64, "cut at {cut}");
        if cut == anchor {
            // The cut landed exactly on a frame boundary: a perfectly
            // truncated log, indistinguishable from a clean shutdown.
            assert!(replay.fault.is_none(), "cut at {cut}: boundary is clean");
        } else {
            match replay.fault {
                Some(WalError::TornRecord { offset, .. }) => {
                    assert_eq!(offset, anchor as u64, "cut at {cut}")
                }
                ref other => panic!("cut at {cut}: expected TornRecord, got {other:?}"),
            }
        }
    }
}

#[test]
fn flipped_crc_byte_stops_at_the_last_valid_record() {
    let bytes = fixture_bytes();
    let (offsets, _) = record_offsets();
    // Flip one byte of record #1's stored CRC (frame bytes 4..12).
    let mut corrupt = bytes.clone();
    let at = offsets[1] + 4;
    corrupt[at] ^= 0x01;
    let replay = read_log(&corrupt).unwrap();
    assert_eq!(replay.records.len(), 1, "only record #0 survives");
    assert_eq!(replay.valid_len, offsets[1] as u64);
    match replay.fault {
        Some(WalError::CorruptRecord {
            offset,
            stored,
            computed,
        }) => {
            assert_eq!(offset, offsets[1] as u64);
            assert_ne!(stored, computed);
        }
        ref other => panic!("expected CorruptRecord, got {other:?}"),
    }

    // Flipping a payload byte instead reports the same variant (the CRC
    // no longer matches the payload) at the same frame offset.
    let mut corrupt = bytes;
    corrupt[offsets[1] + RECORD_FRAME_LEN + 2] ^= 0x40;
    let replay = read_log(&corrupt).unwrap();
    assert_eq!(replay.records.len(), 1);
    assert!(matches!(
        replay.fault,
        Some(WalError::CorruptRecord { offset, .. }) if offset == offsets[1] as u64
    ));
}

#[test]
fn zero_length_record_is_its_own_fault() {
    // Zero-filled tail space (preallocation) must not read as data: a
    // zero `len` word is reported as ZeroLengthRecord at its offset.
    let mut bytes = fixture_bytes();
    let end = bytes.len();
    bytes.extend_from_slice(&[0u8; 16]);
    let replay = read_log(&bytes).unwrap();
    assert_eq!(replay.records.len(), 3, "all real records kept");
    assert_eq!(replay.valid_len, end as u64);
    assert_eq!(
        replay.fault,
        Some(WalError::ZeroLengthRecord { offset: end as u64 })
    );
}

#[test]
fn duplicated_record_replays_idempotently() {
    // A record duplicated by a retried write is *valid* framing — and
    // harmless: replay converges to the same dictionary because learns
    // dedup and forgets re-remove.
    let catalog = small_catalog();
    let records = golden_records(&catalog);
    let mut doubled = Vec::new();
    for r in &records {
        doubled.push(r.clone());
        doubled.push(r.clone());
    }
    let bytes = encode_log(RoundingDepth::new(2), 0, &doubled);
    let replay = read_log(&bytes).unwrap();
    assert_eq!(replay.records.len(), 6);
    assert!(replay.fault.is_none());

    let mut once = EfdDictionary::new(RoundingDepth::new(2));
    for (i, r) in records.iter().enumerate() {
        wal::apply_record(&mut once, r, &catalog, i).unwrap();
    }
    let mut twice = EfdDictionary::new(RoundingDepth::new(2));
    for (i, r) in replay.records.iter().enumerate() {
        wal::apply_record(&mut twice, r, &catalog, i).unwrap();
    }
    assert_eq!(once.len(), twice.len());
    let metric = catalog.id("nr_mapped_vmstat").unwrap();
    let q = Query::from_node_means(
        metric,
        Interval::PAPER_DEFAULT,
        &[7601.0, 7512.0, 7533.0, 7098.0],
    );
    assert_eq!(once.recognize(&q), twice.recognize(&q));
}

#[test]
fn empty_file_and_broken_headers_are_hard_errors() {
    // An empty file is NOT an empty log (that has a header): it is a
    // truncated header, a hard error — there is no valid prefix to keep.
    assert_eq!(
        read_log(&[]).unwrap_err(),
        WalError::Truncated {
            what: "wal header",
            need: WAL_HEADER_LEN,
            have: 0
        }
    );
    let bytes = fixture_bytes();
    for len in 1..WAL_HEADER_LEN {
        assert!(
            matches!(
                read_log(&bytes[..len]).unwrap_err(),
                WalError::Truncated {
                    what: "wal header",
                    ..
                }
            ),
            "header prefix of {len} bytes"
        );
    }

    let mut bad_magic = bytes.clone();
    bad_magic[..4].copy_from_slice(b"EFDB"); // right family, wrong file kind
    assert_eq!(
        read_log(&bad_magic).unwrap_err(),
        WalError::BadMagic { found: *b"EFDB" }
    );

    let mut newer_minor = bytes.clone();
    newer_minor[6] = wal::WAL_VERSION_MINOR as u8 + 1;
    assert!(matches!(
        read_log(&newer_minor).unwrap_err(),
        WalError::UnsupportedVersion { .. }
    ));

    let mut bad_depth = bytes;
    bad_depth[8] = 99;
    assert_eq!(
        read_log(&bad_depth).unwrap_err(),
        WalError::InvalidDepth(99)
    );
}

#[test]
fn unknown_record_kind_is_a_bad_record_at_its_offset() {
    let catalog = small_catalog();
    let mut records = golden_records(&catalog);
    records.truncate(1);
    let mut bytes = encode_log(RoundingDepth::new(2), 0, &records);
    let offset = bytes.len();
    // Append a validly-framed record with an unknown kind byte.
    let payload = [0xEEu8, 0x00];
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&efd_util::hash::hash_bytes(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    let replay = read_log(&bytes).unwrap();
    assert_eq!(replay.records.len(), 1);
    assert_eq!(replay.valid_len, offset as u64);
    assert_eq!(
        replay.fault,
        Some(WalError::BadRecord {
            offset: offset as u64,
            what: "unknown record kind"
        })
    );
}
