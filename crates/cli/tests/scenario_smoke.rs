//! The scenario matrix end to end, cheaply: two scenarios at low
//! intensity over two backends at a fixed seed, run twice and required
//! byte-identical (the suite is a pure function of its flags). Both
//! backends must produce the same verdict histogram per scenario (serving
//! representations of one dictionary), and the intensity-0 clean cells
//! must match the committed `SCENARIO_9.json`.
//!
//! `SCENARIO_9.json` is the historical full matrix; only its clean
//! `cryptomining-masquerade` cells for `snapshot` and `wal` are compared.
//! Every run writes into a scratch directory, which is also its working
//! directory, so the default `--out` cannot rewrite the committed file.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

/// The fields of a cell compared against the blessed matrix.
const COMPARED: [&str; 9] = [
    "n",
    "macro_f1",
    "accuracy",
    "unknown_precision",
    "unknown_recall",
    "calibration_error",
    "recognized",
    "ambiguous",
    "unknown",
];

/// Run `efd evaluate` in `dir`, killing it after 60 s, and return the
/// bytes it wrote to `dir/out`.
fn evaluate(dir: &Path, out: &str, args: &[&str]) -> Vec<u8> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_efd"))
        .arg("evaluate")
        .args(args)
        .args(["--out", out])
        .current_dir(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn efd");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll efd").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("efd evaluate {args:?} was still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("collect efd output");
    assert!(
        output.status.success(),
        "efd evaluate {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::read(dir.join(out)).expect("read the written matrix")
}

fn cells(bytes: &[u8]) -> Vec<Value> {
    let text = std::str::from_utf8(bytes).expect("UTF-8 matrix");
    let matrix: Value = serde_json::from_str(text).expect("the matrix is JSON");
    matrix
        .get("cells")
        .and_then(Value::as_arr)
        .expect("a cells array")
        .to_vec()
}

fn field<'a>(cell: &'a Value, key: &str) -> &'a Value {
    cell.get(key)
        .unwrap_or_else(|| panic!("cell field {key:?} missing: {cell:?}"))
}

fn text<'a>(cell: &'a Value, key: &str) -> &'a str {
    field(cell, key).as_str().expect("a string field")
}

fn number(cell: &Value, key: &str) -> f64 {
    field(cell, key).as_f64().expect("a numeric field")
}

#[test]
fn scenario_matrix_is_deterministic_and_matches_the_blessed_clean_cells() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("efd-scenario-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let smoke_args = [
        "--scenario",
        "cryptomining-masquerade,metric-dropout",
        "--backend",
        "snapshot,wal",
        "--intensity",
        "0.25",
        "--seed",
        "42",
    ];
    let a = evaluate(&dir, "scenario_a.json", &smoke_args);
    let b = evaluate(&dir, "scenario_b.json", &smoke_args);
    assert!(a == b, "two runs with the same flags wrote different bytes");

    let smoke = cells(&a);
    assert_eq!(smoke.len(), 4, "{smoke:?}");
    for scenario in ["cryptomining-masquerade", "metric-dropout"] {
        let hists: BTreeSet<[u64; 3]> = smoke
            .iter()
            .filter(|c| text(c, "scenario") == scenario)
            .map(|c| {
                ["recognized", "ambiguous", "unknown"]
                    .map(|k| field(c, k).as_u64().expect("a verdict count"))
            })
            .collect();
        assert_eq!(hists.len(), 1, "{scenario}: {hists:?}");
    }

    let clean = cells(&evaluate(
        &dir,
        "scenario_clean.json",
        &[
            "--scenario",
            "cryptomining-masquerade",
            "--backend",
            "snapshot,wal",
            "--intensity",
            "0",
            "--seed",
            "0",
        ],
    ));
    let blessed_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../SCENARIO_9.json");
    let blessed = cells(&std::fs::read(&blessed_path).expect("read SCENARIO_9.json"));
    for c in &clean {
        let backend = text(c, "backend");
        let b = blessed
            .iter()
            .find(|b| {
                text(b, "scenario") == "cryptomining-masquerade"
                    && number(b, "intensity") == 0.0
                    && text(b, "backend") == backend
            })
            .unwrap_or_else(|| panic!("no blessed clean cell for {backend}"));
        for k in COMPARED {
            assert_eq!(
                number(c, k),
                number(b, k),
                "{backend} {k}: run vs SCENARIO_9.json"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
