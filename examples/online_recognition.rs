//! Online recognition: a verdict while the job is still running.
//!
//! ```sh
//! cargo run --release --example online_recognition
//! ```
//!
//! The paper's pitch is low latency: related work waits for the whole
//! execution, the EFD answers two minutes in. This example streams a
//! job's telemetry sample by sample into a served [`OnlineSession`]
//! (the `'static`, snapshot-backed streaming form) and prints the moment
//! the verdict drops. Because the session also implements the engine
//! API's [`Recognize`] trait, the same object answers ad-hoc queries
//! against its current publication — a session table doubles as a fleet
//! of ordinary backends.

use std::sync::Arc;

use efd::prelude::*;
use efd_telemetry::catalog::small_catalog;

fn main() {
    let dataset = Dataset::with_catalog(DatasetSpec::default(), small_catalog());
    let metric = dataset.catalog().id("nr_mapped_vmstat").unwrap();
    let selection = MetricSelection::single(metric);

    // Train on everything except the run we will stream.
    let streamed_run = 7;
    let train: Vec<ExecutionTrace> = (0..dataset.len())
        .filter(|&i| i != streamed_run)
        .map(|i| dataset.materialize_prefix(i, &selection, 120))
        .collect();
    let efd = Efd::fit_traces(EfdConfig::single_metric(metric), &train);
    println!("dictionary ready (depth {})", efd.depth());

    // Publish once; the streaming session holds the Arc and can swap to a
    // newer publication mid-stream.
    let snapshot = Arc::new(Snapshot::freeze(efd.dictionary()));

    // "Live" job: materialize the full trace, then replay it as a stream —
    // exactly what an LDMS subscriber would deliver.
    let job = dataset.materialize(streamed_run, &selection);
    println!(
        "job started: {} nodes, duration {} s (true label hidden: {})",
        job.node_count(),
        job.duration_s,
        job.label
    );

    let nodes: Vec<NodeId> = job.nodes.iter().map(|n| n.node).collect();
    let mut session = OnlineSession::new(
        Arc::clone(&snapshot),
        &[metric],
        &nodes,
        vec![Interval::PAPER_DEFAULT],
    );

    'stream: for t in 0..job.duration_s {
        for node in &job.nodes {
            let value = node.series[0].at(t).unwrap_or(f64::NAN);
            if let Some(recognition) = session.push(node.node, metric, t, value) {
                println!(
                    "t = {t:>3} s: verdict {:?} after {} window means \
                     ({} of {} matched); job still has {} s to run",
                    recognition.verdict,
                    session.collected(),
                    recognition.matched_points,
                    recognition.total_points,
                    job.duration_s - t
                );
                assert_eq!(recognition.best(), Some(job.label.app.as_str()));
                break 'stream;
            }
        }
    }
    println!("ground truth was: {}", job.label);

    // The session is an engine backend too: ad-hoc queries answer against
    // the publication it currently serves, identically to the snapshot.
    let probe = Query::from_trace(
        &dataset.materialize_prefix(0, &selection, 120),
        &[metric],
        &[Interval::PAPER_DEFAULT],
    );
    let via_session = Recognize::recognize(&session, &probe);
    assert_eq!(via_session, Recognize::recognize(&snapshot, &probe));
    println!(
        "ad-hoc query through the session (engine API): {:?}",
        via_session.verdict
    );
}
