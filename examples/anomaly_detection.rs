//! Deviation detection: a known app behaving unlike its past runs.
//!
//! ```sh
//! cargo run --release --example anomaly_detection
//! ```
//!
//! Paper motivation (b): "detect deviations from past resource usage
//! (indicating anomalies and potential errors)". We recognize a job in its
//! first two minutes, forecast its later windows by reverse lookup, and
//! raise an alert when the observed usage leaves the envelope of all past
//! fingerprints — here injected as a memory leak that inflates
//! `nr_mapped` after t = 150 s.

use efd::prelude::*;
use efd_core::reverse::predict_usage;
use efd_telemetry::catalog::small_catalog;

/// Inject a leak: from `onset`, values grow by `rate` per second.
fn inject_leak(trace: &mut ExecutionTrace, onset: u32, rate: f64) {
    for node in &mut trace.nodes {
        for series in &mut node.series {
            let vals: Vec<f64> = series
                .values()
                .iter()
                .enumerate()
                .map(|(t, &v)| {
                    if t as u32 > onset && v.is_finite() {
                        v + rate * (t as u32 - onset) as f64
                    } else {
                        v
                    }
                })
                .collect();
            *series = TimeSeries::from_values(vals);
        }
    }
}

fn main() {
    let dataset = Dataset::with_catalog(DatasetSpec::default(), small_catalog());
    let metric = dataset.catalog().id("nr_mapped_vmstat").unwrap();
    let selection = MetricSelection::single(metric);
    let tiling = Interval::tiling(60, 240);

    let target = (0..dataset.len())
        .find(|&i| dataset.labels()[i].to_string() == "cg Y")
        .expect("a cg Y run");
    let train: Vec<ExecutionTrace> = (0..dataset.len())
        .filter(|&i| i != target)
        .map(|i| dataset.materialize(i, &selection))
        .collect();
    let efd = Efd::fit_traces(
        EfdConfig {
            metrics: vec![metric],
            intervals: tiling.clone(),
            depth: DepthPolicy::Fixed(RoundingDepth::new(3)),
        },
        &train,
    );

    // The job starts healthy, is recognized at t = 120 s…
    let mut job = dataset.materialize(target, &selection);
    let early = Query::from_trace(&job, &[metric], &[Interval::PAPER_DEFAULT]);
    let app = efd
        .recognize(&early)
        .best()
        .expect("recognized")
        .to_string();
    println!("t = 120 s: job recognized as '{app}'");

    // …then a memory leak sets in.
    inject_leak(&mut job, 150, 35.0);

    // Envelope of past behavior per window (min/max stored fingerprints,
    // one grain of slack).
    let envelope = predict_usage(efd.dictionary(), &app, None);
    println!("\n  window      observed    envelope         status");
    let mut alerts = 0;
    for w in &tiling {
        let mut observed = 0.0;
        for node in &job.nodes {
            observed += node.series[0].window_mean(*w);
        }
        observed /= job.node_count() as f64;
        let (lo, hi) = envelope
            .iter()
            .filter(|p| p.interval == *w)
            .flat_map(|p| p.means.iter().copied())
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), m| {
                (lo.min(m), hi.max(m))
            });
        let slack = (hi - lo).max(hi * 0.005);
        let ok = observed >= lo - slack && observed <= hi + slack;
        if !ok {
            alerts += 1;
        }
        println!(
            "  {:<10} {:>9.0}   [{:>7.0}, {:>7.0}]   {}",
            w.to_string(),
            observed,
            lo,
            hi,
            if ok { "ok" } else { "DEVIATION" }
        );
    }
    assert!(alerts >= 1, "the injected leak must trip the envelope");
    println!(
        "\n{alerts} window(s) outside the fingerprint envelope — job flagged \
         for inspection while still running."
    );
}
