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
