//! Unknown-application detection: the cryptomining scenario.
//!
//! ```sh
//! cargo run --release --example cryptomining_detection
//! ```
//!
//! The paper's motivation (a): detect allocations that "deviate from
//! allocation purpose (e.g. cryptocurrency mining)". A miner is not in the
//! dictionary, so its fingerprints miss everywhere — the EFD's in-built
//! safeguard flags it as unknown, while known science apps keep being
//! recognized. A *known-malicious* dictionary then identifies the miner
//! positively.

use efd::prelude::*;
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::noise::{Composite, NoiseProcess};
use efd_telemetry::sampler::{CollectorConfig, LdmsCollector};
use efd_util::rng::derive_seed;

/// Synthesize a miner-like job: pegged compute, memory footprint unlike
/// any learned application, tiny variance (miners are steady-state).
fn miner_trace(exec_id: u64, nodes: u16, duration_s: u32, seed: u64) -> ExecutionTrace {
    let metric = MetricId(0); // nr_mapped_vmstat position in small_catalog
    let node_traces = (0..nodes)
        .map(|n| {
            let mut noise = Composite::standard(12.0, 4.0, 0.0, derive_seed(seed, &[n as u64]));
            let mut source = move |t: f64| 23_370.0 + noise.sample(t);
            let mut collector = LdmsCollector::new(
                CollectorConfig::default(),
                derive_seed(seed, &[n as u64, 9]),
            );
            NodeTrace {
                node: NodeId(n),
                series: vec![collector.collect(&mut source, duration_s)],
            }
        })
        .collect::<Vec<_>>();
    ExecutionTrace {
        exec_id,
        label: AppLabel::new("??", "?"),
        selection: MetricSelection::single(metric),
        nodes: node_traces,
        duration_s,
    }
}

fn main() {
    let dataset = Dataset::with_catalog(DatasetSpec::default(), small_catalog());
    let metric = dataset.catalog().id("nr_mapped_vmstat").unwrap();
    let selection = MetricSelection::single(metric);

    // Dictionary of sanctioned applications.
    let traces: Vec<ExecutionTrace> = (0..dataset.len())
        .map(|i| dataset.materialize_prefix(i, &selection, 120))
        .collect();
    let sanctioned = Efd::fit_traces(EfdConfig::single_metric(metric), &traces);
    println!(
        "sanctioned dictionary: {} apps, {} keys",
        sanctioned.dictionary().stats().apps,
        sanctioned.dictionary().len()
    );

    // A legitimate job is recognized…
    let legit = dataset.materialize_prefix(3, &selection, 120);
    let r = sanctioned.recognize_trace(&legit);
    println!("job A -> {:?} (truth: {})", r.verdict, dataset.labels()[3]);
    assert!(matches!(r.verdict, Verdict::Recognized(_)));

    // …the miner is not.
    let miner = miner_trace(0xBAD, 4, 150, 0xC0FFEE);
    let r = sanctioned.recognize_trace(&miner);
    println!(
        "job B -> {:?}  << ALERT: no known application matches",
        r.verdict
    );
    assert_eq!(r.verdict, Verdict::Unknown);

    // Second line of defense: a dictionary of *known-malicious* signatures
    // (paper motivation (c): "detect resource usage of known malicious
    // applications"). Learn the miner from a previous incident, then
    // positively identify the new sighting.
    let mut blacklist = EfdDictionary::new(RoundingDepth::new(2));
    let incident = miner_trace(0xBAD0, 4, 150, 0x5EED5);
    blacklist.learn(&LabeledObservation::from_trace(
        &ExecutionTrace {
            label: AppLabel::new("xmrig", "-"),
            ..incident
        },
        &[metric],
        &[Interval::PAPER_DEFAULT],
    ));
    let q = Query::from_trace(&miner, &[metric], &[Interval::PAPER_DEFAULT]);
    let r = blacklist.recognize(&q);
    println!("job B vs blacklist -> {:?}", r.verdict);
    assert_eq!(r.best(), Some("xmrig"));
}
