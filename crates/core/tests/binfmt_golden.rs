//! Golden-file tests for the EFDB binary format.
//!
//! `tests/fixtures/two_apps.efdb` is the checked-in encoding of a small
//! deterministic 2-app dictionary (the same one whose annotated hex dump
//! appears in `docs/FORMAT.md`). The byte-exact comparison pins the
//! *format*, not just the API: any change to section layout, ordering
//! rules, or the checksum breaks this test and must come with a version
//! bump and a spec update. Re-bless after an intentional change with
//!
//! ```sh
//! EFD_BLESS=1 cargo test -p efd-core --test binfmt_golden
//! ```
//!
//! The corruption tests then take the golden bytes apart: truncation,
//! flipped checksum, bad magic, future versions, invalid depth — each
//! must surface its own structured `BinFormatError` variant.

use efd_core::binfmt::{self, BinFormatError};
use efd_core::{EfdDictionary, LabeledObservation, Query, RoundingDepth};
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::{AppLabel, Interval};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/two_apps.efdb");

/// The fixture dictionary: SP and BT at rounding depth 2, where every key
/// collides (the paper's §5 narrative pair), 4 nodes each.
fn two_app_dict(catalog: &MetricCatalog) -> EfdDictionary {
    let metric = catalog.id("nr_mapped_vmstat").unwrap();
    let mut dict = EfdDictionary::new(RoundingDepth::new(2));
    for (app, means) in [
        ("sp", [7617.0, 7520.0, 7520.0, 7121.0]),
        ("bt", [7638.0, 7540.0, 7540.0, 7140.0]),
    ] {
        dict.learn(&LabeledObservation {
            label: AppLabel::new(app, "X"),
            query: Query::from_node_means(metric, Interval::PAPER_DEFAULT, &means),
        });
    }
    dict
}

fn golden_bytes() -> Vec<u8> {
    let catalog = small_catalog();
    binfmt::write_dictionary(&two_app_dict(&catalog), &catalog)
}

/// Read the checked-in fixture, (re)writing it first when blessing.
fn fixture_bytes() -> Vec<u8> {
    if std::env::var_os("EFD_BLESS").is_some() {
        std::fs::write(FIXTURE, golden_bytes()).expect("bless fixture");
    }
    std::fs::read(FIXTURE).expect(
        "fixture missing — generate with \
         EFD_BLESS=1 cargo test -p efd-core --test binfmt_golden",
    )
}

#[test]
fn writer_is_byte_exact_against_the_checked_in_fixture() {
    let bytes = golden_bytes();
    let fixture = fixture_bytes();
    assert_eq!(
        bytes, fixture,
        "EFDB encoding changed: if intentional, bump the format version, \
         update docs/FORMAT.md, and re-bless the fixture"
    );
}

#[test]
fn fixture_decodes_to_the_collision_dictionary() {
    let catalog = small_catalog();
    let efdb = binfmt::read(&fixture_bytes()).unwrap();
    assert_eq!(efdb.depth().get(), 2);
    assert_eq!(efdb.apps(), ["sp".to_string(), "bt".to_string()]);
    assert_eq!(efdb.len(), 4, "sp/bt collide on all 4 per-node keys");

    let dict = efdb.to_dictionary(&catalog).unwrap();
    let metric = catalog.id("nr_mapped_vmstat").unwrap();
    let q = Query::from_node_means(
        metric,
        Interval::PAPER_DEFAULT,
        &[7601.0, 7512.0, 7533.0, 7098.0],
    );
    let r = dict.recognize(&q);
    assert_eq!(
        r.verdict,
        efd_core::Verdict::Ambiguous(vec!["sp".into(), "bt".into()]),
        "tie array in first-learned order survives the binary round trip"
    );
    assert_eq!(r.best(), Some("bt"));
}

#[test]
fn truncated_fixture_reports_truncation_not_garbage() {
    let bytes = golden_bytes();
    // A handful of interesting cut points: inside the magic, the header,
    // each section, and just before the checksum trailer.
    for len in [
        0,
        2,
        10,
        47,
        60,
        bytes.len() / 2,
        bytes.len() - 9,
        bytes.len() - 1,
    ] {
        let err = binfmt::read(&bytes[..len]).unwrap_err();
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
fn flipped_checksum_bit_is_detected() {
    let mut bytes = golden_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x80;
    assert!(matches!(
        binfmt::read(&bytes).unwrap_err(),
        BinFormatError::ChecksumMismatch { .. }
    ));
}

#[test]
fn flipped_payload_bit_is_detected() {
    let mut bytes = golden_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    assert!(matches!(
        binfmt::read(&bytes).unwrap_err(),
        BinFormatError::ChecksumMismatch { .. }
    ));
}

#[test]
fn bad_magic_is_detected() {
    let mut bytes = golden_bytes();
    bytes[..4].copy_from_slice(b"JSON");
    assert_eq!(
        binfmt::read(&bytes).unwrap_err(),
        BinFormatError::BadMagic { found: *b"JSON" }
    );
}

#[test]
fn future_versions_are_rejected_per_policy() {
    // Same-major / newer-minor and different-major both refuse to load;
    // the error carries the versions so operators can tell which side to
    // upgrade.
    let bytes = golden_bytes();
    let mut newer_minor = bytes.clone();
    newer_minor[6] = binfmt::VERSION_MINOR as u8 + 1;
    assert!(matches!(
        binfmt::read(&newer_minor).unwrap_err(),
        BinFormatError::UnsupportedVersion { .. }
    ));
    let mut other_major = bytes;
    other_major[4] = binfmt::VERSION_MAJOR as u8 + 1;
    assert!(matches!(
        binfmt::read(&other_major).unwrap_err(),
        BinFormatError::UnsupportedVersion { .. }
    ));
}

#[test]
fn unsorted_string_table_is_detected() {
    // The fixture's string table is ["X", "bt", "ft", "nr_mapped_vmstat",
    // "sp"]. Rewrite the first string's one byte 'X' -> 'z' (offset 56:
    // strings section at 48, count u32, len u32, then the byte) so "bt"
    // at index 1 is no longer greater than its predecessor, and re-stamp
    // the checksum so validation reaches the ordering check.
    let mut bytes = golden_bytes();
    assert_eq!(bytes[56], b'X', "fixture layout changed; update this test");
    bytes[56] = b'z';
    let body = bytes.len() - 8;
    let sum = efd_util::hash::hash_bytes(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    assert_eq!(
        binfmt::read(&bytes).unwrap_err(),
        BinFormatError::UnsortedStrings { index: 1 }
    );
    // The zero-copy entry point refuses the same bytes: a buffer that
    // fails `check` can never be served.
    assert_eq!(
        binfmt::check(&bytes).unwrap_err(),
        BinFormatError::UnsortedStrings { index: 1 }
    );
}

#[test]
fn invalid_depth_is_detected() {
    let mut bytes = golden_bytes();
    bytes[8] = 0; // depth byte; re-stamp the checksum so validation gets there
    let body = bytes.len() - 8;
    let sum = efd_util::hash::hash_bytes(&bytes[..body]);
    let trailer = body;
    bytes[trailer..].copy_from_slice(&sum.to_le_bytes());
    assert_eq!(
        binfmt::read(&bytes).unwrap_err(),
        BinFormatError::InvalidDepth(0)
    );
}

// --- Files of at least 1 MiB: `check` computes the checksum on a second
// thread while it validates the sections, and must report exactly what
// the one-thread order reports (checksum first). The same bytes must
// fail `Snapshot::load`, the daemon's load path, with the same error.

/// A synthetic 50,000-key dictionary (~1.7 MB as EFDB): 50 nodes times
/// 1,000 means, each key one of 7 apps.
fn large_bytes() -> Vec<u8> {
    let catalog = small_catalog();
    let metric = catalog.id("nr_mapped_vmstat").unwrap();
    let mut dict = EfdDictionary::new(RoundingDepth::new(6));
    for i in 0..50_000u32 {
        let label = AppLabel::new(format!("app{}", i % 7), "X");
        let node = efd_telemetry::NodeId((i % 50) as u16);
        let mean = 100_000.0 + f64::from(i / 50);
        dict.insert_raw(metric, node, Interval::PAPER_DEFAULT, mean, &label);
    }
    let bytes = binfmt::write(&dict.to_parts(), &catalog);
    assert!(bytes.len() >= 1 << 20, "{} bytes", bytes.len());
    bytes
}

/// The `i`-th little-endian u32 of the header's section-offset table
/// (0 strings, …, 4 keys, 5 postings, 6 checksum).
fn section_offset(bytes: &[u8], i: usize) -> usize {
    let at = 20 + 4 * i;
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

/// Write a fresh checksum trailer over the body.
fn restamp(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = efd_util::hash::hash_bytes(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

/// `binfmt::check`'s error on `bytes`, after asserting that
/// `Snapshot::load` fails with the same one.
fn check_and_load_error(bytes: &[u8]) -> BinFormatError {
    let checked = binfmt::check(bytes).unwrap_err();
    let loaded = efd_serve::Snapshot::load(bytes.to_vec(), &small_catalog()).unwrap_err();
    assert_eq!(loaded, checked, "Snapshot::load and binfmt::check disagree");
    checked
}

/// Swap key records `k` and `k + 1`: record `k + 1` is then no greater
/// than its predecessor.
fn swap_key_records(bytes: &mut [u8], k: usize) {
    let at = section_offset(bytes, 4) + 4 + k * binfmt::KEY_RECORD_LEN;
    let (a, b) = bytes[at..at + 2 * binfmt::KEY_RECORD_LEN].split_at_mut(binfmt::KEY_RECORD_LEN);
    a.swap_with_slice(b);
}

#[test]
fn large_file_checks_clean_on_both_paths() {
    let bytes = large_bytes();
    assert_eq!(binfmt::check(&bytes).unwrap().len(), 50_000);
    assert_eq!(
        efd_serve::Snapshot::load(bytes, &small_catalog())
            .unwrap()
            .len(),
        50_000
    );
}

#[test]
fn large_file_structural_fault_with_stale_checksum_is_a_checksum_mismatch() {
    let mut bytes = large_bytes();
    swap_key_records(&mut bytes, 25_000);
    assert!(matches!(
        check_and_load_error(&bytes),
        BinFormatError::ChecksumMismatch { .. }
    ));
}

#[test]
fn large_file_structural_fault_with_fresh_checksum_reports_the_fault() {
    let mut bytes = large_bytes();
    swap_key_records(&mut bytes, 25_000);
    restamp(&mut bytes);
    assert_eq!(
        check_and_load_error(&bytes),
        BinFormatError::UnsortedKeys { index: 25_001 }
    );
}

#[test]
fn large_file_flipped_postings_byte_is_a_checksum_mismatch() {
    let mut bytes = large_bytes();
    let (blob, end) = (section_offset(&bytes, 5) + 4, section_offset(&bytes, 6));
    bytes[(blob + end) / 2] ^= 0x01;
    assert!(matches!(
        check_and_load_error(&bytes),
        BinFormatError::ChecksumMismatch { .. }
    ));
}

// --- Key-record faults on the large-file path. The values below are the
// errors the field-at-a-time key check reported for these exact bytes;
// checking whole records at fixed offsets must report each unchanged.

/// Byte offset of key record `k` in `bytes`.
fn key_record_at(bytes: &[u8], k: usize) -> usize {
    section_offset(bytes, 4) + 4 + k * binfmt::KEY_RECORD_LEN
}

/// `large` with one field of key record `k` overwritten at byte `field`
/// of the record, and a fresh checksum.
fn with_key_field(large: &[u8], k: usize, field: usize, value: &[u8]) -> Vec<u8> {
    let mut bytes = large.to_vec();
    let at = key_record_at(&bytes, k) + field;
    bytes[at..at + value.len()].copy_from_slice(value);
    restamp(&mut bytes);
    bytes
}

#[test]
fn large_file_truncated_inside_the_last_key_record_reports_what_it_did() {
    // The file ends `cut` bytes into the last key record; the postings
    // and checksum offsets move to the new end, and its last 8 bytes
    // become the (fresh) checksum trailer. The record's first `cut - 8`
    // bytes are its own, so a cut past byte 22 leaves a whole key whose
    // postings offset is cut short.
    use BinFormatError::{EmptyInterval, IdOutOfRange, Truncated};
    let metric = |id| IdOutOfRange {
        what: "key metric",
        id,
        limit: 1,
    };
    let cut_short = |what, need, have| Truncated { what, need, have };
    let expected = [
        cut_short("key metric id", 4, 0),
        cut_short("key metric id", 4, 1),
        cut_short("key metric id", 4, 2),
        cut_short("key metric id", 4, 3),
        metric(3_312_748_543),
        metric(1_240_800_045),
        metric(1_479_978_648),
        metric(2_853_802_884),
        metric(3_916_748_710),
        metric(3_962_098_944),
        metric(363_397_120),
        metric(4_060_086_272),
        cut_short("key interval end", 4, 2),
        cut_short("key interval end", 4, 3),
        cut_short("key mean bits", 8, 0),
        EmptyInterval {
            start: 1_320_076_348,
            end: 1_138_937_446,
        },
        EmptyInterval {
            start: 3_889_561_660,
            end: 686_417_850,
        },
        cut_short("key mean bits", 8, 3),
        cut_short("key mean bits", 8, 4),
        cut_short("key mean bits", 8, 5),
        cut_short("key mean bits", 8, 6),
        cut_short("key mean bits", 8, 7),
        cut_short("key postings offset", 4, 0),
        cut_short("key postings offset", 4, 1),
        cut_short("key postings offset", 4, 2),
        cut_short("key postings offset", 4, 3),
    ];
    assert_eq!(expected.len(), binfmt::KEY_RECORD_LEN);
    let large = large_bytes();
    for (cut, expected) in expected.into_iter().enumerate() {
        let mut bytes = large.clone();
        let end = key_record_at(&bytes, 49_999) + cut;
        bytes.truncate(end);
        let trailer = u32::try_from(end - 8).unwrap().to_le_bytes();
        bytes[40..44].copy_from_slice(&trailer);
        bytes[44..48].copy_from_slice(&trailer);
        restamp(&mut bytes);
        assert_eq!(check_and_load_error(&bytes), expected, "cut {cut}");
    }
}

#[test]
fn large_file_key_metric_out_of_range_is_reported() {
    let large = large_bytes();
    for k in [0, 25_000, 49_999] {
        let bytes = with_key_field(&large, k, 0, &7u32.to_le_bytes());
        assert_eq!(
            check_and_load_error(&bytes),
            BinFormatError::IdOutOfRange {
                what: "key metric",
                id: 7,
                limit: 1
            },
            "record {k}"
        );
    }
}

#[test]
fn large_file_key_with_an_empty_interval_is_reported() {
    let large = large_bytes();
    for k in [0, 25_000, 49_999] {
        // The interval's end moves from 120 to 0, before its start.
        let bytes = with_key_field(&large, k, 10, &0u32.to_le_bytes());
        assert_eq!(
            check_and_load_error(&bytes),
            BinFormatError::EmptyInterval { start: 60, end: 0 },
            "record {k}"
        );
    }
}

#[test]
fn large_file_key_with_a_nan_mean_is_reported() {
    let large = large_bytes();
    for k in [0, 25_000, 49_999] {
        let bytes = with_key_field(&large, k, 14, &f64::NAN.to_bits().to_le_bytes());
        assert_eq!(
            check_and_load_error(&bytes),
            BinFormatError::Layout {
                what: "non-finite mean bits in key record"
            },
            "record {k}"
        );
    }
}

#[test]
fn large_file_unsorted_key_is_reported_at_its_index() {
    let large = large_bytes();
    for k in [0, 24_999, 49_998] {
        let mut bytes = large.clone();
        swap_key_records(&mut bytes, k);
        restamp(&mut bytes);
        assert_eq!(
            check_and_load_error(&bytes),
            BinFormatError::UnsortedKeys { index: k + 1 },
            "records {k} and {} swapped",
            k + 1
        );
    }
}

/// A byte offset in a key record and the bytes written there.
type Field<'a> = (usize, &'a [u8]);

#[test]
fn large_file_key_with_several_faults_reports_its_first_field_check() {
    // Record 25,000 (node 25, the first of its node) gets faults in more
    // than one field; the report is the check of its earliest checked
    // field: metric, then interval, then mean, then order. Node 0 puts
    // the record before its predecessor (node 24).
    let large = large_bytes();
    let metric: &[u8] = &7u32.to_le_bytes();
    let node_0: &[u8] = &0u16.to_le_bytes();
    let empty: &[u8] = &0u32.to_le_bytes();
    let nan: &[u8] = &f64::NAN.to_bits().to_le_bytes();
    let non_finite = BinFormatError::Layout {
        what: "non-finite mean bits in key record",
    };
    let cases: [(&[Field<'_>], BinFormatError); 5] = [
        (
            &[(0, metric), (4, node_0), (10, empty), (14, nan)],
            BinFormatError::IdOutOfRange {
                what: "key metric",
                id: 7,
                limit: 1,
            },
        ),
        (
            &[(4, node_0), (10, empty), (14, nan)],
            BinFormatError::EmptyInterval { start: 60, end: 0 },
        ),
        (&[(4, node_0), (14, nan)], non_finite),
        (
            &[(4, node_0), (10, empty)],
            BinFormatError::EmptyInterval { start: 60, end: 0 },
        ),
        (
            &[(4, node_0)],
            BinFormatError::UnsortedKeys { index: 25_000 },
        ),
    ];
    for (fields, expected) in cases {
        let mut bytes = large.clone();
        let at = key_record_at(&bytes, 25_000);
        for &(field, value) in fields {
            bytes[at + field..at + field + value.len()].copy_from_slice(value);
        }
        restamp(&mut bytes);
        assert_eq!(check_and_load_error(&bytes), expected, "{fields:?}");
    }
}
