//! Facade-level serving test: the full pipeline (synthetic dataset →
//! training → freeze → parallel batch) answers exactly like the
//! single-threaded dictionary, and the serving types are reachable
//! through `efd::prelude`.

use std::sync::Arc;

use efd::prelude::*;
use efd_telemetry::catalog::small_catalog;

#[test]
fn served_pipeline_matches_oracle_on_dataset() {
    let dataset = Dataset::with_catalog(DatasetSpec::default(), small_catalog());
    let metric = dataset.catalog().id("nr_mapped_vmstat").unwrap();
    let selection = MetricSelection::single(metric);

    let traces: Vec<ExecutionTrace> = (0..dataset.len())
        .map(|i| dataset.materialize_prefix(i, &selection, 120))
        .collect();
    let efd = Efd::fit_traces(
        EfdConfig::single_metric_fixed(metric, RoundingDepth::new(3)),
        &traces,
    );
    let dict = efd.dictionary();

    let queries: Vec<Query> = traces
        .iter()
        .map(|t| Query::from_trace(t, &[metric], &[Interval::PAPER_DEFAULT]))
        .collect();

    let snapshot = Arc::new(Snapshot::freeze(dict));
    assert_eq!(snapshot.len(), dict.len());
    let answers = snapshot.recognize_batch_parallel(&queries);

    let (mut scratch, mut answer) = (VoteScratch::default(), Answer::default());
    for (q, served) in queries.iter().zip(&answers) {
        let oracle = dict.recognize(q).normalized();
        assert_eq!(served, &oracle);
        snapshot.answer_into(q, &mut scratch, &mut answer);
        assert_eq!(answer.apps().next(), oracle.best());
    }

    // Training data recognizes itself (sanity that the pipeline is live).
    let recognized = answers.iter().filter(|r| r.best().is_some()).count();
    assert!(
        recognized * 10 >= answers.len() * 9,
        "only {recognized}/{} recognized",
        answers.len()
    );
}

#[test]
fn online_session_through_facade() {
    let mut dict = EfdDictionary::new(RoundingDepth::new(2));
    dict.learn(&LabeledObservation {
        label: AppLabel::new("ft", "X"),
        query: Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[6000.0, 6000.0]),
    });
    let snap = Arc::new(Snapshot::freeze(&dict));

    let mut session = OnlineRecognizer::new(
        snap,
        &[MetricId(0)],
        &[NodeId(0), NodeId(1)],
        vec![Interval::PAPER_DEFAULT],
    );
    let mut verdict = None;
    for t in 0..=session.horizon_s() {
        for n in [NodeId(0), NodeId(1)] {
            if let Some(r) = session.push(n, MetricId(0), t, 6004.0) {
                verdict = Some(r);
            }
        }
    }
    assert_eq!(verdict.expect("verdict at horizon").best(), Some("ft"));
}
