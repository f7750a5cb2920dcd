//! Acceptance test for the catalog drift story: a daemon serving a
//! manifest-stacked engine with a published baseline must raise the
//! drift alarm under an injected `concept-drift` workload, and clear
//! it after a `SWAP` to a version re-learned on the drifted runs.
//!
//! Everything is deterministic: the dataset, the scenario perturbation,
//! and the drift-monitor judgement are pure functions of fixed seeds,
//! and verdicts are recorded synchronously with each `RECOGNIZE`
//! response — no sleeps, no polling.

mod common;

use std::sync::Arc;

use common::*;
use efd_core::engine::Recognize;
use efd_core::{EfdDictionary, LabeledObservation, Query, RoundingDepth, Verdict};
use efd_serve::net::{DriftBaseline, DriftConfig, DriftState, Engine};
use efd_serve::{Manifest, StackedRecognizer, StackedStage};
use efd_telemetry::Interval;
use efd_workload::scenario::{build, CleanRuns, ScenarioKind, ScenarioSpec};
use efd_workload::{Dataset, DatasetSpec};

/// The stack shape under test, declared the way operators declare it: a
/// `recognizer.v1` manifest. The artifact names are symbolic here — the
/// test builds the stage engines from one in-process dictionary — but
/// precedence and confidence bars come straight from the manifest.
fn manifest() -> Manifest {
    Manifest::parse(
        r#"{
            "schema": "recognizer.v1",
            "name": "drift-demo",
            "stack": [
                {"backend": "exact", "artifact": "drift-demo", "min_confidence": 0.6},
                {"backend": "combo", "artifact": "drift-demo", "min_confidence": 0.5}
            ]
        }"#,
    )
    .expect("manifest literal parses")
}

/// Build the manifest's stack over one dictionary and wrap it as a
/// served engine tagged with a catalog version and its baseline.
fn stacked_engine(dict: &EfdDictionary, version: &str, baseline: DriftBaseline) -> Engine {
    Engine {
        version: Some(version.to_string()),
        baseline: Some(baseline),
        ..Engine::fixed(Arc::new(stack_for(dict)), dict.len(), "stacked")
    }
}

fn stack_for(dict: &EfdDictionary) -> StackedRecognizer {
    let stages = manifest()
        .stack
        .iter()
        .map(|s| {
            let (engine, _keys) = s
                .backend
                .from_dictionary(dict, s.min_confidence)
                .expect("registry builds every dictionary stage");
            StackedStage {
                name: s.backend.to_string(),
                engine,
                min_confidence: s.min_confidence,
            }
        })
        .collect();
    StackedRecognizer::new(stages)
}

/// The scenario substrate: the deterministic public dataset reduced to
/// per-run window means, plus the concept-drift perturbation at full
/// intensity (runs shift up to +35% by the end of the sequence).
fn drift_scenario() -> efd_workload::scenario::ScenarioData {
    let dataset = Dataset::with_catalog(DatasetSpec::default(), catalog());
    let metric = dataset.catalog().id(METRIC).expect("harness metric");
    let clean = CleanRuns::from_dataset(&dataset, metric, Interval::PAPER_DEFAULT);
    build(
        &clean,
        &ScenarioSpec {
            kind: ScenarioKind::ConceptDrift,
            intensity: 1.0,
            seed: 9,
        },
    )
}

fn learn_runs(dict: &mut EfdDictionary, runs: &[efd_workload::scenario::ScenarioRun]) {
    for run in runs {
        let label = run.truth.clone().expect("labeled run");
        dict.learn(&LabeledObservation {
            label,
            query: Query::from_node_means(M, W, &run.means),
        });
    }
}

/// Offline abstention rates of `engine` over `runs` — what `efd catalog
/// publish` measures and stores as the version's baseline.
fn measure_baseline(
    engine: &dyn Recognize,
    runs: &[efd_workload::scenario::ScenarioRun],
) -> DriftBaseline {
    let (mut unknown, mut ambiguous) = (0usize, 0usize);
    for run in runs {
        match engine
            .recognize(&Query::from_node_means(M, W, &run.means))
            .verdict
        {
            Verdict::Recognized(_) => {}
            Verdict::Ambiguous(_) => ambiguous += 1,
            _ => unknown += 1,
        }
    }
    DriftBaseline {
        unknown_rate: unknown as f64 / runs.len() as f64,
        ambiguous_rate: ambiguous as f64 / runs.len() as f64,
    }
}

fn recognize_run_line(means: &[f64]) -> String {
    let rendered: Vec<String> = means.iter().map(|m| m.to_string()).collect();
    format!(
        "RECOGNIZE {METRIC} {} {} {}",
        W.start,
        W.end,
        rendered.join(" ")
    )
}

#[test]
fn concept_drift_raises_the_alarm_and_a_relearned_swap_clears_it() {
    let data = drift_scenario();
    // Version 1 knows only the clean training runs.
    let mut v1 = EfdDictionary::new(RoundingDepth::new(3));
    learn_runs(&mut v1, &data.train);
    // Version 2 is re-learned with the drifted test runs folded in — the
    // online-relearning arm the scenario's `relearn` flag marks.
    let mut v2 = v1.clone();
    learn_runs(&mut v2, &data.test);

    // The drifted tail: the last quarter of the ordered test sequence,
    // where the ramp has shifted fingerprints far outside v1's keys.
    let tail = &data.test[data.test.len() - data.test.len() / 4..];
    let baseline_v1 = measure_baseline(&stack_for(&v1), &data.train);
    let baseline_v2 = measure_baseline(&stack_for(&v2), &data.test);
    assert!(
        baseline_v1.unknown_rate < 0.05,
        "v1 must know its own training runs (unknown rate {})",
        baseline_v1.unknown_rate
    );

    // Small monitor so the test needs only a few dozen verdicts: judge
    // after 16 samples over a 64-verdict window, alarm at +0.15.
    let drift_cfg = DriftConfig {
        window: 64,
        min_samples: 16,
        margin: 0.15,
    };
    let v2_engine = stacked_engine(&v2, "drift-demo@v2", baseline_v2);
    let server = start_server(
        stacked_engine(&v1, "drift-demo@v1", baseline_v1),
        move |cfg| {
            cfg.drift = drift_cfg;
            // Bare `SWAP` rebuilds through the configured loader — the
            // manifest-serving reload path — which here hands back the
            // re-learned v2 publication.
            cfg.reload_path = Some(std::path::PathBuf::from("drift-demo.manifest.json"));
            cfg.loader = Arc::new(move |_path, _catalog| Ok(v2_engine.clone()));
        },
    );
    let mut client = Client::connect(server.local_addr());

    // Before any traffic: the monitor is warming and STATUS carries the
    // served catalog version, backend, and published baseline.
    let status = client.request("STATUS");
    assert!(
        status.starts_with("STATUS gen=1 version=drift-demo@v1 backend=stacked"),
        "unexpected status {status:?}"
    );
    assert!(status.contains("drift=warming samples=0"), "{status:?}");
    assert_eq!(server.drift_snapshot().state, DriftState::Warming);

    // Inject the drift workload: replay the drifted tail until the
    // window has enough samples to judge. Every query is answered
    // before the next is sent, so the alarm edge is deterministic.
    let mut sent = 0usize;
    'drift: loop {
        for run in tail {
            let resp = client.request(&recognize_run_line(&run.means));
            assert!(resp.starts_with("OK 1 "), "unexpected answer {resp:?}");
            sent += 1;
            if sent >= drift_cfg.min_samples {
                break 'drift;
            }
        }
    }
    let snap = server.drift_snapshot();
    assert_eq!(
        snap.state,
        DriftState::Alarm,
        "drifted tail must trip the alarm (unknown_rate {} vs baseline {} + {})",
        snap.unknown_rate,
        baseline_v1.unknown_rate,
        drift_cfg.margin
    );
    assert!(
        snap.unknown_rate > baseline_v1.unknown_rate + drift_cfg.margin,
        "alarm must be explained by the unknown rate ({snap:?})"
    );
    let status = client.request("STATUS");
    assert!(status.contains("drift=alarm"), "{status:?}");

    // The alarm is visible to scrapers, tagged with the served version.
    let (_, body) = http_get(server.local_addr(), "/metrics");
    for needle in [
        "efd_drift_alarm 1",
        "efd_catalog_info{version=\"drift-demo@v1\"} 1",
        &format!("efd_drift_window_samples {}", drift_cfg.min_samples),
        &format!(
            "efd_drift_baseline_unknown_rate {}",
            baseline_v1.unknown_rate
        ),
    ] {
        assert!(
            body.contains(needle),
            "missing {needle:?} in scrape:\n{body}"
        );
    }

    // SWAP to the re-learned version: the loader rebuilds the stack,
    // the baseline is republished, and the monitor restarts clean.
    assert_eq!(
        client.request("SWAP"),
        format!("SWAPPED 2 {} drift-demo@v2", v2.len())
    );
    assert_eq!(
        server.drift_snapshot().state,
        DriftState::Warming,
        "a swap republishes the baseline and resets the window"
    );

    // The same drifted traffic is in-dictionary for v2: once the new
    // window can judge, the monitor settles at Ok — the alarm cleared.
    let mut sent = 0usize;
    'after: loop {
        for run in tail {
            let resp = client.request(&recognize_run_line(&run.means));
            assert!(resp.starts_with("OK 2 "), "unexpected answer {resp:?}");
            sent += 1;
            if sent >= drift_cfg.min_samples {
                break 'after;
            }
        }
    }
    let snap = server.drift_snapshot();
    assert_eq!(
        snap.state,
        DriftState::Ok,
        "relearned version clears the alarm: {snap:?}"
    );
    let status = client.request("STATUS");
    assert!(
        status.starts_with("STATUS gen=2 version=drift-demo@v2 backend=stacked"),
        "{status:?}"
    );
    assert!(status.contains("drift=ok"), "{status:?}");
    let (_, body) = http_get(server.local_addr(), "/metrics");
    assert!(body.contains("efd_drift_alarm 0"), "{body}");
    assert!(
        body.contains("efd_catalog_info{version=\"drift-demo@v2\"} 1"),
        "{body}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn baseline_free_engines_never_alarm_under_the_same_drift() {
    // The same drifted workload against the same v1 stack, but served
    // without a published baseline: the monitor must stay warming —
    // alarms are judgements against a published version, not absolute
    // thresholds.
    let data = drift_scenario();
    let mut v1 = EfdDictionary::new(RoundingDepth::new(3));
    learn_runs(&mut v1, &data.train);
    let tail = &data.test[data.test.len() - data.test.len() / 4..];

    let engine = Engine {
        version: Some("drift-demo@v1".to_string()),
        ..Engine::fixed(Arc::new(stack_for(&v1)), v1.len(), "stacked")
    };
    let server = start_server(engine, |cfg| {
        cfg.drift = DriftConfig {
            window: 64,
            min_samples: 16,
            margin: 0.15,
        };
    });
    let mut client = Client::connect(server.local_addr());
    for _ in 0..3 {
        for run in tail {
            client.request(&recognize_run_line(&run.means));
        }
    }
    let snap = server.drift_snapshot();
    assert_eq!(
        snap.state,
        DriftState::Ok,
        "no baseline ⇒ no judgement to alarm against: {snap:?}"
    );
    assert!(
        snap.unknown_rate > 0.5,
        "the drifted tail IS mostly unknown: {snap:?}"
    );
    assert!(snap.baseline.is_none());
    let status = client.request("STATUS");
    assert!(
        status.contains("baseline_unknown=- baseline_ambiguous=-"),
        "{status:?}"
    );

    server.shutdown();
    server.join();
}
