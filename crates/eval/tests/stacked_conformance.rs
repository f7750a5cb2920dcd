//! Manifest-stack conformance: `StackedRecognizer` over the canonical
//! (exact → combo → knn) precedence must answer **exactly** as the
//! exact backend wherever the exact backend is confident. The stack is
//! an augmentation of the primary dictionary, never an override — the
//! abstention-safeguard contract `efd_serve::stacked` documents,
//! checked here across the full dataset with a real ml fallback in the
//! third slot (which is why this test lives in `efd-eval`, the crate
//! that owns [`MlBackend`]).

use std::sync::Arc;

use efd_core::engine::Recognize;
use efd_core::multi::ComboDictionary;
use efd_core::{EfdDictionary, LabeledObservation, Query, RoundingDepth, Verdict};
use efd_eval::MlBackend;
use efd_serve::{Snapshot, StackedRecognizer, StackedStage};
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::{Interval, MetricId};
use efd_workload::scenario::{build, CleanRuns, ScenarioKind, ScenarioSpec};
use efd_workload::{Dataset, DatasetSpec};

const W: Interval = Interval::PAPER_DEFAULT;
const M: MetricId = MetricId(0);
/// The exact stage's confidence bar (the manifest default precedence).
const EXACT_BAR: f64 = 0.6;

fn obs(label: &efd_telemetry::AppLabel, means: &[f64]) -> LabeledObservation {
    LabeledObservation {
        label: label.clone(),
        query: Query::from_node_means(M, W, means),
    }
}

/// Train the three backends of the canonical stack on the same runs.
fn stack_over(train: &[efd_workload::scenario::ScenarioRun]) -> (EfdDictionary, StackedRecognizer) {
    let mut dict = EfdDictionary::new(RoundingDepth::new(3));
    let mut knn = MlBackend::knn(3, 0.5);
    for run in train {
        let label = run.truth.clone().expect("training runs are labeled");
        let o = obs(&label, &run.means);
        dict.learn(&o);
        efd_core::engine::Learn::learn(&mut knn, &o);
    }
    let combo = ComboDictionary::from_single_metric(&dict).expect("non-empty dict");
    let stack = StackedRecognizer::new(vec![
        StackedStage {
            name: "exact".into(),
            engine: Arc::new(Snapshot::freeze(&dict)),
            min_confidence: EXACT_BAR,
        },
        StackedStage {
            name: "combo".into(),
            engine: Arc::new(combo),
            min_confidence: 0.5,
        },
        StackedStage {
            name: "knn(k=3)".into(),
            engine: Arc::new(knn),
            min_confidence: 0.5,
        },
    ]);
    (dict, stack)
}

/// Confidence the way the stack judges it: a `Recognized` verdict whose
/// matched-point fraction clears the stage bar.
fn exact_is_confident(rec: &efd_core::Recognition) -> bool {
    matches!(rec.verdict, Verdict::Recognized(_))
        && rec.total_points > 0
        && rec.matched_points as f64 / rec.total_points as f64 >= EXACT_BAR
}

#[test]
fn stack_agrees_with_exact_wherever_exact_is_confident() {
    let dataset = Dataset::with_catalog(DatasetSpec::default(), small_catalog());
    let metric = dataset.catalog().id("nr_mapped_vmstat").unwrap();
    let clean = CleanRuns::from_dataset(&dataset, metric, W);

    // Query mix: clean in-dictionary runs (exact confident), injected
    // miners (out-of-dictionary), and extrapolated inputs (exact loses
    // confidence) — the regions where a broken stack would override the
    // primary differ per scenario.
    let mut queries: Vec<Query> = Vec::new();
    let mut train = None;
    for (kind, intensity) in [
        (ScenarioKind::CryptominingMasquerade, 0.5),
        (ScenarioKind::InputExtrapolation, 1.0),
        (ScenarioKind::ConceptDrift, 1.0),
    ] {
        let data = build(
            &clean,
            &ScenarioSpec {
                kind,
                intensity,
                seed: 9,
            },
        );
        queries.extend(
            data.test
                .iter()
                .map(|run| Query::from_node_means(M, W, &run.means)),
        );
        train.get_or_insert(data.train);
    }
    let (dict, stack) = stack_over(&train.expect("at least one scenario built"));
    let exact = Snapshot::freeze(&dict);

    let (mut confident, mut fallthrough, mut augmented) = (0usize, 0usize, 0usize);
    for q in &queries {
        let from_exact = exact.recognize(q);
        let from_stack = stack.recognize(q);
        if exact_is_confident(&from_exact) {
            confident += 1;
            assert_eq!(
                from_stack.verdict, from_exact.verdict,
                "stack flipped a confident exact verdict on {q:?}"
            );
            assert_eq!(
                (from_stack.matched_points, from_stack.total_points),
                (from_exact.matched_points, from_exact.total_points),
                "stack must return the exact stage's recognition unchanged"
            );
        } else {
            fallthrough += 1;
            if from_stack.verdict != from_exact.verdict {
                augmented += 1;
                // A later stage only ever *adds* recognitions — it can
                // never introduce a new abstention.
                assert!(
                    matches!(from_stack.verdict, Verdict::Recognized(_)),
                    "fallback produced a non-recognition override: {:?}",
                    from_stack.verdict
                );
            }
        }
    }
    // The mix must actually exercise both regions, and the fallback
    // stages must matter somewhere — otherwise this test proves nothing.
    assert!(confident > 0, "no confident exact verdicts in the mix");
    assert!(fallthrough > 0, "no fall-through cases in the mix");
    assert!(
        augmented > 0,
        "fallback stages never engaged ({confident} confident, {fallthrough} fall-through)"
    );
}
