//! Golden-file tests for `efd diff`.
//!
//! `tests/fixtures/` holds two small committed dictionaries (`base` /
//! `next`) engineered to exercise every change class the differ
//! reports — added keys, removed keys, relabelled keys, per-app
//! coverage deltas, verdict divergence — plus the blessed table and
//! JSON reports the binary must reproduce byte-for-byte. Re-bless after
//! an intentional report-format change with
//!
//! ```sh
//! EFD_BLESS=1 cargo test -p efd-cli --test diff_golden
//! ```
//!
//! The exit-code contract is pinned alongside: 0 = semantically equal
//! (including byte-different encodings of the same dictionary),
//! 3 = semantically different, 1 = error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use efd_core::{binfmt, serialize, EfdDictionary, LabeledObservation, Query, RoundingDepth};
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::{AppLabel, Interval};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
const W: Interval = Interval::PAPER_DEFAULT;

fn learn(dict: &mut EfdDictionary, app: &str, means: &[f64]) {
    let metric = small_catalog().id("nr_mapped_vmstat").unwrap();
    dict.learn(&LabeledObservation {
        label: AppLabel::new(app, "X"),
        query: Query::from_node_means(metric, W, means),
    });
}

/// The `base` side: three apps, two nodes each, rounding depth 2.
fn base_dict() -> EfdDictionary {
    let mut d = EfdDictionary::new(RoundingDepth::new(2));
    learn(&mut d, "sp", &[7617.0, 7520.0]);
    learn(&mut d, "bt", &[7638.0, 7540.0]);
    learn(&mut d, "ft", &[6000.0, 6005.0]);
    d
}

/// The `next` side against `base`:
/// * `sp` unchanged — but `cg` learns onto its keys (**relabelled**);
/// * `bt` moves its node-1 fingerprint (**removed** + **added**);
/// * `cg` is new (**added** keys, coverage 0 → 4);
/// * `ft` is gone (**removed** keys, coverage 2 → 0).
fn next_dict() -> EfdDictionary {
    let mut d = EfdDictionary::new(RoundingDepth::new(2));
    learn(&mut d, "sp", &[7617.0, 7520.0]);
    learn(&mut d, "bt", &[7638.0, 9900.0]);
    learn(&mut d, "cg", &[8110.0, 8110.0]);
    learn(&mut d, "cg", &[7617.0, 7520.0]);
    d
}

/// Run `efd` with `cwd` = the fixtures dir, so the report's artifact
/// labels are the stable relative paths the goldens were blessed with.
fn efd_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_efd"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn efd")
}

/// Write the committed fixture dictionaries (bless mode only), then
/// return the fixtures dir. The EFDB pair drives the golden reports;
/// `base.json` is the byte-different-but-equal encoding of `base.efdb`.
fn fixtures() -> &'static Path {
    static FIX: OnceLock<PathBuf> = OnceLock::new();
    FIX.get_or_init(|| {
        let dir = PathBuf::from(FIXTURES);
        if std::env::var_os("EFD_BLESS").is_some() {
            std::fs::create_dir_all(&dir).expect("fixtures dir");
            let cat = small_catalog();
            std::fs::write(
                dir.join("base.efdb"),
                binfmt::write_dictionary(&base_dict(), &cat),
            )
            .expect("bless base.efdb");
            std::fs::write(
                dir.join("next.efdb"),
                binfmt::write_dictionary(&next_dict(), &cat),
            )
            .expect("bless next.efdb");
            std::fs::write(
                dir.join("base.json"),
                serialize::to_json(&base_dict(), &cat),
            )
            .expect("bless base.json");
        }
        assert!(
            dir.join("base.efdb").exists(),
            "fixtures missing — generate with EFD_BLESS=1 cargo test -p efd-cli --test diff_golden"
        );
        dir
    })
}

/// Compare the binary's stdout for `args` against a blessed golden,
/// (re)writing the golden first when blessing. Returns the stdout.
fn assert_matches_golden(args: &[&str], golden: &str, expect_code: i32) -> String {
    let dir = fixtures();
    let out = efd_in(dir, args);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 report");
    assert_eq!(
        out.status.code(),
        Some(expect_code),
        "{args:?}: stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = dir.join(golden);
    if std::env::var_os("EFD_BLESS").is_some() {
        std::fs::write(&path, &stdout).expect("bless golden");
    }
    let blessed = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("golden {golden} missing — re-bless with EFD_BLESS=1"));
    assert_eq!(
        stdout, blessed,
        "{args:?} diverged from {golden}: if the report format change is \
         intentional, re-bless with EFD_BLESS=1"
    );
    stdout
}

#[test]
fn table_report_matches_the_blessed_golden_and_exits_3() {
    let report = assert_matches_golden(&["diff", "base.efdb", "next.efdb"], "diff_table.golden", 3);
    // The fixture pair exercises every change class — spot-check that
    // the blessed report actually contains all of them.
    for needle in [
        "added",
        "removed",
        "relabelled",
        "verdict:    semantically different",
    ] {
        assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
    }
}

#[test]
fn json_report_matches_the_blessed_golden_and_exits_3() {
    let report = assert_matches_golden(
        &["diff", "base.efdb", "next.efdb", "--format", "json"],
        "diff_json.golden",
        3,
    );
    assert!(report.contains("\"semantically_equal\": false"), "{report}");
    let parsed: serde_json::Value = serde_json::from_str(&report).expect("JSON report must parse");
    let field = |k: &str| {
        parsed
            .get(k)
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("report field {k:?} missing"))
            .to_string()
    };
    assert_eq!(field("a"), "base.efdb");
    assert_eq!(field("b"), "next.efdb");
}

#[test]
fn identical_artifacts_diff_empty_and_exit_zero() {
    let out = efd_in(fixtures(), &["diff", "base.efdb", "base.efdb"]);
    assert_eq!(out.status.code(), Some(0));
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        report.contains("0 added, 0 removed, 0 relabelled"),
        "{report}"
    );
    assert!(report.contains("semantically equal"), "{report}");
}

#[test]
fn byte_different_encodings_of_one_dictionary_are_semantically_equal() {
    let dir = fixtures();
    // Same dictionary, two wire formats: the bytes differ, the
    // structure must not.
    assert_ne!(
        std::fs::read(dir.join("base.efdb")).unwrap(),
        std::fs::read(dir.join("base.json")).unwrap()
    );
    let out = efd_in(dir, &["diff", "base.efdb", "base.json"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("semantically equal"));
}

#[test]
fn empty_vs_empty_exits_zero() {
    let dir = std::env::temp_dir().join(format!("efd-diff-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let empty = serialize::to_json(&EfdDictionary::new(RoundingDepth::new(2)), &small_catalog());
    std::fs::write(dir.join("a.json"), &empty).unwrap();
    std::fs::write(dir.join("b.json"), &empty).unwrap();
    let out = efd_in(&dir, &["diff", "a.json", "b.json"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(report.contains("0 -> 0 (+0)"), "{report}");
    assert!(report.contains("semantically equal"), "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}
