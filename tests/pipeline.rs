//! End-to-end pipeline tests across crates: generation → learning →
//! persistence → restore → (offline|online) recognition.

use efd::prelude::*;
use efd_core::serialize;
use efd_telemetry::catalog::small_catalog;

fn dataset() -> Dataset {
    Dataset::with_catalog(DatasetSpec::default(), small_catalog())
}

#[test]
fn train_dump_restore_recognize() {
    let d = dataset();
    let metric = d.catalog().id("nr_mapped_vmstat").unwrap();
    let selection = MetricSelection::single(metric);

    let train: Vec<ExecutionTrace> = (0..d.len())
        .filter(|i| i % 4 != 0)
        .map(|i| d.materialize_prefix(i, &selection, 120))
        .collect();
    let efd = Efd::fit_traces(EfdConfig::single_metric(metric), &train);

    // Persist and restore the dictionary.
    let json = serialize::to_json(efd.dictionary(), d.catalog());
    let restored = serialize::from_json(&json, d.catalog()).unwrap();
    assert_eq!(restored.len(), efd.dictionary().len());
    assert_eq!(restored.depth(), efd.depth());

    // The restored dictionary gives identical verdicts on held-out runs.
    let mut checked = 0;
    for i in (0..d.len()).filter(|i| i % 4 == 0).take(30) {
        let trace = d.materialize_prefix(i, &selection, 120);
        let q = Query::from_trace(&trace, &[metric], &[Interval::PAPER_DEFAULT]);
        assert_eq!(
            efd.recognize(&q).verdict,
            restored.recognize(&q).verdict,
            "run {i}"
        );
        checked += 1;
    }
    assert_eq!(checked, 30);
}

#[test]
fn online_verdict_matches_offline() {
    let d = dataset();
    let metric = d.catalog().id("nr_mapped_vmstat").unwrap();
    let selection = MetricSelection::single(metric);
    let train: Vec<ExecutionTrace> = (1..d.len())
        .map(|i| d.materialize_prefix(i, &selection, 120))
        .collect();
    let efd = Efd::fit_traces(EfdConfig::single_metric(metric), &train);

    let job = d.materialize_prefix(0, &selection, 150);
    let offline = efd.recognize_trace(&job);

    let nodes: Vec<NodeId> = job.nodes.iter().map(|n| n.node).collect();
    let mut rec = efd_core::online::OnlineRecognizer::new(
        efd.dictionary(),
        &[metric],
        &nodes,
        vec![Interval::PAPER_DEFAULT],
    );
    let mut online = None;
    'outer: for t in 0..job.duration_s {
        for node in &job.nodes {
            let v = node.series[0].at(t).unwrap_or(f64::NAN);
            if let Some(r) = rec.push(node.node, metric, t, v) {
                online = Some(r);
                break 'outer;
            }
        }
    }
    let online = online.expect("online verdict by 120 s");
    assert_eq!(online.verdict, offline.verdict);
    assert_eq!(online.matched_points, offline.matched_points);
}

#[test]
fn incremental_learning_extends_a_live_dictionary() {
    // "Learning new applications is as simple as adding new keys."
    let d = dataset();
    let metric = d.catalog().id("nr_mapped_vmstat").unwrap();
    let selection = MetricSelection::single(metric);
    let labels = d.labels();

    // Start with a 10-app dictionary (no kripke).
    let mut dict = EfdDictionary::new(RoundingDepth::new(3));
    for i in (0..d.len()).filter(|&i| labels[i].app != "kripke") {
        let trace = d.materialize_prefix(i, &selection, 120);
        dict.learn(&efd_core::observation::LabeledObservation::from_trace(
            &trace,
            &[metric],
            &[Interval::PAPER_DEFAULT],
        ));
    }
    let kripke_runs: Vec<usize> = (0..d.len())
        .filter(|&i| labels[i].app == "kripke")
        .collect();
    let probe = {
        let trace = d.materialize_prefix(kripke_runs[0], &selection, 120);
        Query::from_trace(&trace, &[metric], &[Interval::PAPER_DEFAULT])
    };
    assert_eq!(dict.recognize(&probe).verdict, Verdict::Unknown);

    // Add kripke from its other runs — no retraining of anything.
    let before = dict.len();
    for &i in &kripke_runs[1..] {
        let trace = d.materialize_prefix(i, &selection, 120);
        dict.learn(&efd_core::observation::LabeledObservation::from_trace(
            &trace,
            &[metric],
            &[Interval::PAPER_DEFAULT],
        ));
    }
    assert!(dict.len() > before);
    assert_eq!(dict.recognize(&probe).best(), Some("kripke"));
}
