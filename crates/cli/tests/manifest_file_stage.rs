//! A `recognizer.v1` manifest without a catalog names its artifacts as
//! files relative to the manifest's own directory: a one-stage stack
//! over a dictionary file answers exactly like `serve --load` of that
//! file with the same `--backend`. One registry parses both, so a
//! misspelt name fails alike in either place, and the manifest aliases
//! of the snapshot keep loading.

use std::path::{Path, PathBuf};
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

/// A fresh directory holding a copy of the fixture; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("efd-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(FIXTURE, dir.join("two_apps.efdb")).expect("copy the fixture");
        Scratch(dir)
    }

    /// Write a one-stage manifest over the fixture copy, `backend` given
    /// as is, and return its path.
    fn one_stage(&self, backend: &str) -> String {
        let path = self.0.join(format!("{backend}.json"));
        std::fs::write(
            &path,
            format!(
                r#"{{
                    "schema": "recognizer.v1",
                    "name": "one-stage",
                    "stack": [{{"backend": "{backend}", "artifact": "two_apps.efdb"}}]
                }}"#
            ),
        )
        .unwrap();
        path_str(&path).to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

#[test]
fn an_ml_backend_serves_alike_from_load_and_from_a_manifest() {
    let scratch = Scratch::new("manifest-ml");
    for backend in ["knn", "gaussian-nb", "forest"] {
        let manifest = scratch.one_stage(backend);
        let stacked = verdicts(&["serve", "--manifest", &manifest, "--synth", "2000"]);
        let loaded = verdicts(&[
            "serve",
            "--load",
            FIXTURE,
            "--backend",
            backend,
            "--synth",
            "2000",
        ]);
        assert_eq!(stacked, loaded, "{backend}");
        assert!(
            !stacked.starts_with("verdicts:   0 recognized"),
            "{backend}: {stacked}"
        );
    }
}

#[test]
fn a_misspelt_backend_lists_the_registry_in_one_error_line() {
    let scratch = Scratch::new("manifest-misspelt");
    let manifest = scratch.one_stage("knnn");
    for args in [
        &[
            "serve",
            "--load",
            FIXTURE,
            "--backend",
            "knnn",
            "--synth",
            "10",
        ][..],
        &["serve", "--manifest", &manifest, "--synth", "10"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_efd"))
            .args(args)
            .output()
            .expect("spawn efd");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{args:?}: {stderr}");
        assert!(lines[0].starts_with("error: "), "{stderr}");
        assert!(
            lines[0].contains("unknown backend \"knnn\" (snapshot|combo|knn|gaussian-nb|forest)"),
            "{stderr}"
        );
    }
}

#[test]
fn the_manifest_aliases_load_as_the_snapshot() {
    let scratch = Scratch::new("manifest-aliases");
    let snapshot = verdicts(&[
        "serve",
        "--load",
        FIXTURE,
        "--backend",
        "snapshot",
        "--synth",
        "2000",
    ]);
    for alias in ["exact", "efdb", "sharded", "snapshot"] {
        let manifest = scratch.one_stage(alias);
        let out = Command::new(env!("CARGO_BIN_EXE_efd"))
            .args(["serve", "--manifest", &manifest, "--synth", "2000"])
            .output()
            .expect("spawn efd");
        assert!(out.status.success(), "{alias}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert!(
            stdout.contains(" — stack snapshot(0)\n"),
            "{alias} builds the snapshot: {stdout}"
        );
        assert!(
            stdout.contains(&format!("{snapshot}\n")),
            "{alias}: {stdout}"
        );
    }
}
