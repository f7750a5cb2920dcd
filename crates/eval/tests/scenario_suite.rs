//! Integration suite for the scenario × backend matrix.
//!
//! Three cross-crate guarantees the inline unit tests can't give:
//!
//! * **Null-perturbation scoring** — at intensity 0 every scenario's
//!   report is bit-identical to the clean baseline (the scoring-side half
//!   of the byte-identity property in `efd_workload`).
//! * **Backend conformance** — every dictionary-family backend (in-memory,
//!   EFDB-loaded snapshot, combo, WAL-recovered) produces the *identical
//!   verdict histogram* on the masquerade scenario at a fixed seed: they
//!   are serving representations of one dictionary, not four classifiers.
//! * **Blessed clean baseline** — the intensity-0 cells for all four
//!   dictionary-family backends, pinned to a fixture file. Re-bless after
//!   an intentional change with `EFD_BLESS=1 cargo test -p efd-eval`.

use std::sync::OnceLock;

use efd_eval::{fit_backend, run_cell, AbstentionReport, BackendKind};
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::Interval;
use efd_workload::scenario::{build, CleanRuns, ScenarioKind, ScenarioSpec};
use efd_workload::{Dataset, DatasetSpec};

struct Fixture {
    dataset: Dataset,
    metric: efd_telemetry::MetricId,
    clean: CleanRuns,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let dataset = Dataset::with_catalog(DatasetSpec::default(), small_catalog());
        let metric = dataset.catalog().id("nr_mapped_vmstat").unwrap();
        let clean = CleanRuns::from_dataset(&dataset, metric, Interval::PAPER_DEFAULT);
        Fixture {
            dataset,
            metric,
            clean,
        }
    })
}

/// Every float field of a report, as bits — exact comparison, NaN-proof.
fn report_bits(r: &AbstentionReport) -> Vec<u64> {
    vec![
        r.n as u64,
        r.macro_f1.to_bits(),
        r.accuracy.to_bits(),
        r.unknown_precision.to_bits(),
        r.unknown_recall.to_bits(),
        r.unknown_f1.to_bits(),
        r.calibration_error.to_bits(),
        r.tie_coverage.to_bits(),
        r.verdicts.recognized as u64,
        r.verdicts.ambiguous as u64,
        r.verdicts.unknown as u64,
    ]
}

#[test]
fn intensity_zero_scores_equal_clean_baseline_for_every_scenario() {
    let fix = fixture();
    let clf = fit_backend(
        BackendKind::Dict,
        &fix.dataset,
        fix.metric,
        Interval::PAPER_DEFAULT,
    );
    let mut baseline: Option<Vec<u64>> = None;
    for kind in ScenarioKind::ALL {
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let spec = ScenarioSpec {
                kind,
                intensity: 0.0,
                seed,
            };
            let data = build(&fix.clean, &spec);
            let report = run_cell(&clf, &data, fix.metric, Interval::PAPER_DEFAULT);
            let bits = report_bits(&report);
            match &baseline {
                None => baseline = Some(bits),
                Some(b) => assert_eq!(
                    &bits, b,
                    "{kind} at intensity 0 (seed {seed}) diverged from the clean baseline"
                ),
            }
        }
    }
}

#[test]
fn dictionary_family_backends_agree_on_masquerade_verdicts() {
    let fix = fixture();
    let spec = ScenarioSpec {
        kind: ScenarioKind::CryptominingMasquerade,
        intensity: 0.75,
        seed: 9,
    };
    let data = build(&fix.clean, &spec);

    let mut reference: Option<(BackendKind, AbstentionReport)> = None;
    for backend in BackendKind::ALL
        .into_iter()
        .filter(|b| b.dictionary_family())
    {
        let clf = fit_backend(backend, &fix.dataset, fix.metric, Interval::PAPER_DEFAULT);
        let report = run_cell(&clf, &data, fix.metric, Interval::PAPER_DEFAULT);
        match &reference {
            None => reference = Some((backend, report)),
            Some((first, expected)) => {
                assert_eq!(
                    report.verdicts, expected.verdicts,
                    "{backend} verdict histogram diverged from {first} \
                     on masquerade (seed 9, intensity 0.75)"
                );
                assert_eq!(
                    report_bits(&report),
                    report_bits(expected),
                    "{backend} full report diverged from {first}"
                );
            }
        }
    }
    // All four dictionary-family backends actually ran.
    let (_, expected) = reference.expect("at least one dictionary-family backend");
    assert!(expected.n > 0);
}

fn baseline_fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clean_baseline.txt")
}

fn render_baseline_line(backend: BackendKind, r: &AbstentionReport) -> String {
    format!(
        "{} n={} {} macro_f1={:.6} accuracy={:.6} unknown_p={:.6} unknown_r={:.6} \
         unknown_f1={:.6} ece={:.6} tie_coverage={:.6}",
        backend,
        r.n,
        r.verdicts,
        r.macro_f1,
        r.accuracy,
        r.unknown_precision,
        r.unknown_recall,
        r.unknown_f1,
        r.calibration_error,
        r.tie_coverage,
    )
}

#[test]
fn clean_baseline_matches_blessed_fixture() {
    let fix = fixture();
    let spec = ScenarioSpec {
        kind: ScenarioKind::CryptominingMasquerade,
        intensity: 0.0,
        seed: 0,
    };
    let data = build(&fix.clean, &spec);

    let mut lines = Vec::new();
    for backend in BackendKind::ALL
        .into_iter()
        .filter(|b| b.dictionary_family())
    {
        let clf = fit_backend(backend, &fix.dataset, fix.metric, Interval::PAPER_DEFAULT);
        let report = run_cell(&clf, &data, fix.metric, Interval::PAPER_DEFAULT);
        lines.push(render_baseline_line(backend, &report));
    }
    let rendered = format!("{}\n", lines.join("\n"));

    let path = baseline_fixture_path();
    if std::env::var("EFD_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let blessed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing blessed baseline {} ({e}); run `EFD_BLESS=1 cargo test -p efd-eval` \
             to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        blessed,
        "clean-baseline cells diverged from {}; if the change is intentional, \
         re-bless with `EFD_BLESS=1 cargo test -p efd-eval`",
        path.display()
    );
}
