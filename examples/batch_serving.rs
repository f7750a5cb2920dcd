//! Batch serving through the engine API: one `Recognize` contract, any
//! backend.
//!
//! ```sh
//! cargo run --release --example batch_serving [snapshot|sharded|combo]
//! ```
//!
//! The serving lifecycle on top of the paper's pipeline: train an EFD on
//! the synthetic dataset, publish it as a runtime-selected
//! `Box<dyn Recognize + Send + Sync>` (an immutable [`Snapshot`], a live
//! [`ShardedDictionary`], or a conjunctive `ComboSnapshot` — the same
//! loop serves all three), fan a 10 000-query stream over worker threads
//! with the generic [`BatchRecognizer`], then learn a *new* application
//! concurrently and re-publish — the paper's "learning new applications
//! is as simple as adding new keys", done live.

use std::sync::Arc;
use std::time::Instant;

use efd::prelude::*;
use efd_telemetry::catalog::small_catalog;
use efd_util::SplitMix64;

fn main() {
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

    // Publish behind the object-safe engine trait. This is the whole
    // point of the API: the serving loop below never names a concrete
    // backend type.
    let snapshot = Arc::new(Snapshot::freeze(dict));
    let backend: Arc<dyn Recognize + Send + Sync> = match backend_kind.as_str() {
        "snapshot" => Arc::clone(&snapshot) as _,
        "sharded" => Arc::new(ShardedDictionary::from_parts(dict.to_parts(), 8)) as _,
        "combo" => {
            let combo = efd::core::multi::ComboDictionary::from_single_metric(dict)
                .expect("trained dictionary is single-metric");
            Arc::new(efd::serve::ComboSnapshot::freeze(combo)) as _
        }
        other => {
            eprintln!("unknown backend {other:?} (snapshot|sharded|combo)");
            std::process::exit(1);
        }
    };
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

    // The batch front end is generic over `R: Recognize + Sync`; here R is
    // the trait object itself.
    let server = BatchRecognizer::new(Arc::clone(&backend));
    let t = Instant::now();
    let answers = server.recognize_batch(&stream);
    let dt = t.elapsed();
    let recognized = answers.iter().filter(|r| r.best().is_some()).count();
    println!(
        "served: {} queries in {:.1} ms ({:.0} q/s), {recognized} recognized",
        stream.len(),
        dt.as_secs_f64() * 1e3,
        stream.len() as f64 / dt.as_secs_f64()
    );
    assert!(recognized * 10 >= stream.len() * 9, "jitter broke recognition");

    // Every backend answers like the single-threaded oracle (the engine
    // contract, asserted across the board by `engine_conformance`).
    for q in stream.iter().take(50) {
        assert_eq!(
            Recognize::recognize(&backend, q),
            dict.recognize(q).normalized()
        );
    }

    // Live learning: thaw into a sharded dictionary, learn a brand-new
    // app from two threads, re-publish, swap it into the server.
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
    let mut server = server;
    server.swap(Arc::new(sharded.snapshot()) as _);
    let verdict = server.recognize_batch(std::slice::from_ref(&novel));
    assert_eq!(verdict[0].best(), Some("newapp"));
    println!(
        "re-published: verdict for the live-learned app = {:?}",
        verdict[0].verdict
    );
}
