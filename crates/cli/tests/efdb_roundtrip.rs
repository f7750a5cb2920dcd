//! The dictionary load path end to end, through the `efd` binary:
//!
//! * docs/FORMAT.md promises canonical bytes: a trained dictionary
//!   dumped as JSON and converted JSON → EFDB → JSON → EFDB gives two
//!   byte-identical EFDB files, and the EFDB serves;
//! * a 100,000-key synthetic EFDB (3.4 MB, read in parts on a machine
//!   with two or more cores) makes the same round trip, and it serves
//!   the same verdicts as its JSON form;
//! * one engine API, either backend: `efd serve --backend <each>` over
//!   the golden EFDB fixture and over its JSON conversion prints the
//!   same `verdicts:` line, and both backends print the same one.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// The EFDB golden fixture (a 2-app dictionary).
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../core/tests/fixtures/two_apps.efdb"
);

/// A child `efd`, killed and reaped if it is dropped before it exits
/// (a failed assertion, or a run past its deadline).
struct Running(Option<Child>);

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Run `efd args` in `dir` to completion within 120 s and require exit 0.
/// The commands run here print a few lines, well inside a pipe's buffer,
/// so polling for the exit before reading the output cannot stall.
fn efd_ok(dir: &Path, args: &[&str]) -> Output {
    let child = Command::new(env!("CARGO_BIN_EXE_efd"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn efd");
    let mut running = Running(Some(child));
    let deadline = Instant::now() + Duration::from_secs(120);
    while let Some(child) = running.0.as_mut() {
        if child.try_wait().expect("poll efd").is_some() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{args:?} was still running after 120 s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let child = running.0.take().expect("the child is still held");
    let out = child.wait_with_output().expect("collect efd output");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The one `verdicts:` line `efd serve` printed.
fn verdicts(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("verdicts:"))
        .collect();
    assert_eq!(lines.len(), 1, "expected one verdicts: line in:\n{stdout}");
    lines[0].to_string()
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("efd-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `efd convert` `json` → `a.efdb` → `b.json` → `b.efdb` in `dir`, and
/// require the two EFDB files byte-identical.
fn assert_round_trip_is_canonical(dir: &Path, json: &str) {
    efd_ok(dir, &["convert", "--in", json, "--out", "a.efdb"]);
    efd_ok(dir, &["convert", "--in", "a.efdb", "--out", "b.json"]);
    efd_ok(dir, &["convert", "--in", "b.json", "--out", "b.efdb"]);
    let a = std::fs::read(dir.join("a.efdb")).expect("read a.efdb");
    let b = std::fs::read(dir.join("b.efdb")).expect("read b.efdb");
    assert!(
        a == b,
        "JSON -> EFDB -> JSON -> EFDB changed the bytes ({} vs {} bytes)",
        a.len(),
        b.len()
    );
}

#[test]
fn trained_dictionary_round_trips_to_identical_efdb_and_serves() {
    let dir = scratch("trained");
    efd_ok(&dir, &["dump", "--out", "dict.json", "--format", "json"]);
    assert_round_trip_is_canonical(&dir, "dict.json");
    efd_ok(&dir, &["serve", "--load", "a.efdb", "--synth", "2000"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn synthetic_100k_key_efdb_round_trips_and_serves_like_its_json() {
    let dir = scratch("synth");
    efd_ok(
        &dir,
        &["dump", "--out", "synth.efdb", "--synth-keys", "100000"],
    );
    let size = std::fs::metadata(dir.join("synth.efdb")).unwrap().len();
    assert!(size > 2 << 20, "{size} bytes: too small to read in parts");
    efd_ok(
        &dir,
        &["convert", "--in", "synth.efdb", "--out", "synth.json"],
    );
    assert_round_trip_is_canonical(&dir, "synth.json");
    let synth = std::fs::read(dir.join("synth.efdb")).unwrap();
    let again = std::fs::read(dir.join("b.efdb")).unwrap();
    assert!(synth == again, "the dumped EFDB is not canonical");
    let served = |load: &str| {
        let args = ["serve", "--load", load, "--synth", "500"];
        verdicts(&efd_ok(&dir, &args))
    };
    assert_eq!(served("synth.efdb"), served("synth.json"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn both_backends_serve_the_fixture_and_its_json_alike() {
    let dir = scratch("backends");
    efd_ok(
        &dir,
        &["convert", "--in", FIXTURE, "--out", "two_apps.json"],
    );
    let served = |load: &str, backend: &str| {
        let args = [
            "serve",
            "--load",
            load,
            "--backend",
            backend,
            "--synth",
            "2000",
        ];
        verdicts(&efd_ok(&dir, &args))
    };
    let snapshot = served(FIXTURE, "snapshot");
    assert_eq!(served("two_apps.json", "snapshot"), snapshot, "snapshot");
    let combo = served(FIXTURE, "combo");
    assert_eq!(served("two_apps.json", "combo"), combo, "combo");
    assert_eq!(snapshot, combo, "snapshot vs combo");
    std::fs::remove_dir_all(&dir).unwrap();
}
