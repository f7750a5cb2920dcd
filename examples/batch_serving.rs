//! Batch serving through the engine API: one `Recognize` contract, any
//! backend.
//!
//! ```sh
//! cargo run --release --example batch_serving [snapshot|combo]
//! ```
//!
//! The serving lifecycle on top of the paper's pipeline: train an EFD on
//! the synthetic dataset, publish it through the backend registry as a
//! runtime-selected `Arc<dyn Recognize + Send + Sync>` (an immutable
//! [`Snapshot`] or a conjunctive `ComboDictionary` — the same loop serves
//! both), fan a 10 000-query stream over worker threads
//! with [`ParallelRecognize::recognize_batch_parallel`], then learn a
//! *new* application concurrently and re-publish — the paper's "learning
//! new applications is as simple as adding new keys", done live.

use std::sync::Arc;
use std::time::Instant;

use efd::prelude::*;
use efd::serve::manifest::DEFAULT_MIN_CONFIDENCE;
use efd::serve::Backend;
use efd_telemetry::catalog::small_catalog;
use efd_util::SplitMix64;

fn main() -> Result<(), String> {
    let backend_kind = std::env::args().nth(1).unwrap_or_else(|| "snapshot".into());

    // Train exactly like the quickstart: one metric, first two minutes.
    let dataset = Dataset::with_catalog(DatasetSpec::default(), small_catalog());
    let metric = dataset.catalog().id("nr_mapped_vmstat").unwrap();
    let selection = MetricSelection::single(metric);
    let traces: Vec<ExecutionTrace> = (0..dataset.len())
        .map(|i| dataset.materialize_prefix(i, &selection, 120))
        .collect();
    let efd = Efd::fit_traces(EfdConfig::single_metric(metric), &traces);
    let dict = efd.dictionary();
    println!(
        "trained: {} keys, depth {}, {} apps",
        dict.len(),
        efd.depth(),
        dict.app_names().len()
    );

    // Publish behind the object-safe engine trait, built by name through
    // the registry `efd serve` uses. This is the whole point of the API:
    // the serving loop below never names a concrete backend type.
    let (backend, _keys) =
        Backend::parse(&backend_kind)?.from_dictionary(dict, DEFAULT_MIN_CONFIDENCE)?;
    println!("published: backend = {backend_kind}");

    // A 10k-query stream: the dataset's runs with small jitter.
    let mut rng = SplitMix64::new(7);
    let base: Vec<Query> = traces
        .iter()
        .map(|t| Query::from_trace(t, &[metric], &[Interval::PAPER_DEFAULT]))
        .collect();
    let stream: Vec<Query> = (0..10_000)
        .map(|i| {
            let mut q = base[i % base.len()].clone();
            for p in &mut q.points {
                p.mean *= 1.0 + (rng.next_f64() - 0.5) * 0.004;
            }
            q
        })
        .collect();

    // Every `Recognize + Sync` engine batches in parallel; here it is the
    // trait object itself.
    let t = Instant::now();
    let answers = backend.recognize_batch_parallel(&stream);
    let dt = t.elapsed();
    let recognized = answers.iter().filter(|r| r.best().is_some()).count();
    println!(
        "served: {} queries in {:.1} ms ({:.0} q/s), {recognized} recognized",
        stream.len(),
        dt.as_secs_f64() * 1e3,
        stream.len() as f64 / dt.as_secs_f64()
    );
    assert!(
        recognized * 10 >= stream.len() * 9,
        "jitter broke recognition"
    );

    // Every backend answers like the single-threaded oracle (the engine
    // contract, asserted across the board by `engine_conformance`).
    for q in stream.iter().take(50) {
        assert_eq!(
            Recognize::recognize(&backend, q),
            dict.recognize(q).normalized()
        );
    }

    // Live learning: thaw into a sharded dictionary, learn a brand-new
    // app from two threads, re-publish, serve the new publication.
    let snapshot = Snapshot::freeze(dict);
    let sharded = ShardedDictionary::from_parts(snapshot.to_dictionary().into_parts(), 8);
    let novel = Query::from_node_means(metric, Interval::PAPER_DEFAULT, &[123_456.0; 4]);
    std::thread::scope(|s| {
        for input in ["X", "Y"] {
            let sharded = &sharded;
            let novel = &novel;
            s.spawn(move || {
                sharded.learn(&LabeledObservation {
                    label: AppLabel::new("newapp", input),
                    query: novel.clone(),
                });
            });
        }
    });
    let backend: Arc<dyn Recognize + Send + Sync> = Arc::new(sharded.snapshot());
    let verdict = backend.recognize_batch_parallel(std::slice::from_ref(&novel));
    assert_eq!(verdict[0].best(), Some("newapp"));
    println!(
        "re-published: verdict for the live-learned app = {:?}",
        verdict[0].verdict
    );
    Ok(())
}
