//! A `recognizer.v1` manifest without a catalog names its artifacts as
//! files relative to the manifest's own directory: a one-stage `exact`
//! stack over a dictionary file answers exactly like `serve --load` of
//! that file.

use std::process::Command;

/// The EFDB golden fixture (a 2-app dictionary).
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../core/tests/fixtures/two_apps.efdb"
);

/// Run `efd` to completion and return the `verdicts:` line of its
/// stdout; any failure panics with the stderr.
fn verdicts(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_efd"))
        .args(args)
        .output()
        .expect("spawn efd");
    assert!(
        out.status.success(),
        "efd {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 stdout")
        .lines()
        .find(|l| l.starts_with("verdicts:"))
        .unwrap_or_else(|| panic!("efd {args:?} printed no verdicts line"))
        .to_string()
}

#[test]
fn a_manifest_file_stage_serves_like_load() {
    let dir = std::env::temp_dir().join(format!("efd-manifest-file-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(FIXTURE, dir.join("two_apps.efdb")).expect("copy the fixture");
    let manifest = dir.join("m.json");
    std::fs::write(
        &manifest,
        r#"{
            "schema": "recognizer.v1",
            "name": "file-stack",
            "stack": [{"backend": "exact", "artifact": "two_apps.efdb"}]
        }"#,
    )
    .unwrap();

    let manifest = manifest.to_str().unwrap();
    let stacked = verdicts(&["serve", "--manifest", manifest, "--synth", "2000"]);
    let loaded = verdicts(&["serve", "--load", FIXTURE, "--synth", "2000"]);
    assert_eq!(stacked, loaded);
    assert!(
        !stacked.starts_with("verdicts:   0 recognized, 0 ambiguous"),
        "{stacked}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
