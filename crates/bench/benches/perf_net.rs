//! Network daemon throughput over loopback: an in-process
//! [`efd_serve::net::Server`] over a synthetic keyspace, driven by the
//! pipelined [`efd_serve::net::loadgen`] client.
//!
//! This is the socket-inclusive companion to `perf_serving`: every
//! verdict here pays frame decode, catalog lookup, recognition, frame
//! encode, and a loopback round trip. The acceptance claim behind
//! `BENCH_8.json` — ≥ 50 000 verdicts/s sustained against a 1M-key
//! EFDB — is the CLI-level version of this bench (`efd serve --listen`
//! driven by `efd loadgen --keyspace`); this target tracks the same
//! path in-process so regressions show up in `cargo bench` without a
//! daemon orchestration step.
//!
//! Knobs: `EFD_NET_KEYS` (default 100000), `EFD_NET_SECS` per row
//! (default 2).

use std::sync::Arc;

use efd_core::{EfdDictionary, LabeledObservation, Query, RoundingDepth};
use efd_serve::net::loadgen::{run, LoadgenConfig};
use efd_serve::net::{Engine, Server, ServerConfig};
use efd_serve::Snapshot;
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
use efd_util::TextTable;

/// Nodes the synthetic keyspace cycles over (matches the CLI's
/// `dump --synth-keys` / `loadgen --keyspace` generator shape).
const NODES: u16 = 64;
/// Nodes per `RECOGNIZE` payload.
const QUERY_NODES: usize = 8;
const METRIC: MetricId = MetricId(0);
const METRIC_NAME: &str = "nr_mapped_vmstat";
const WINDOW: Interval = Interval::PAPER_DEFAULT;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// Key `i`: `(METRIC, node i % NODES, WINDOW, mean 100000 + i)` labeled
/// `app{i % 50}` — distinct, densely packed keys at depth 6.
fn synth_dictionary(keys: usize) -> EfdDictionary {
    let mut d = EfdDictionary::new(RoundingDepth::new(6));
    for i in 0..keys {
        let q = Query {
            points: vec![efd_core::ObsPoint {
                metric: METRIC,
                node: NodeId((i % NODES as usize) as u16),
                interval: WINDOW,
                mean: 100_000.0 + i as f64,
            }],
        };
        d.learn(&LabeledObservation {
            label: AppLabel::new(format!("app{:03}", i % 50), "X"),
            query: q,
        });
    }
    d
}

/// `RECOGNIZE` payloads aligned to NODES-key blocks, so payload means
/// land on the learned keys of nodes `0..QUERY_NODES`; block indices a
/// little past the keyspace produce misses (~9%).
fn synth_payloads(keys: usize, count: usize) -> Vec<String> {
    let blocks = (keys / NODES as usize).max(1);
    let span = blocks + blocks / 10 + 1;
    (0..count)
        .map(|i| {
            let i0 = (i % span) * NODES as usize;
            let means: Vec<String> = (0..QUERY_NODES)
                .map(|j| format!("{}", 100_000.0 + (i0 + j) as f64))
                .collect();
            format!(
                "RECOGNIZE {METRIC_NAME} {} {} {}",
                WINDOW.start,
                WINDOW.end,
                means.join(" ")
            )
        })
        .collect()
}

fn main() {
    let keys = env_usize("EFD_NET_KEYS", 100_000);
    let secs = env_usize("EFD_NET_SECS", 2);

    eprintln!("building {keys}-key synthetic dictionary ...");
    let dict = synth_dictionary(keys);
    let engine = Engine::fixed(Arc::new(Snapshot::freeze(&dict)), dict.len(), "snapshot");
    let cfg = ServerConfig::new(small_catalog());
    let server = Server::start("127.0.0.1:0", cfg, engine).expect("daemon starts");
    let addr = server.local_addr().to_string();
    let payloads = synth_payloads(keys, 512);

    let mut table = TextTable::new(vec![
        "conns",
        "pipeline",
        "verdicts/s",
        "p50 µs",
        "p99 µs",
        "errors",
    ])
    .with_title(format!("Daemon throughput over loopback ({keys} keys)"));
    for (conns, pipeline) in [(1, 1), (1, 32), (4, 32), (8, 32)] {
        let mut lg = LoadgenConfig::new(addr.clone());
        lg.connections = conns;
        lg.pipeline = pipeline;
        lg.duration = std::time::Duration::from_secs(secs as u64);
        lg.payloads = payloads.clone();
        let report = run(&lg).expect("loadgen run");
        table.add_row(vec![
            conns.to_string(),
            pipeline.to_string(),
            format!("{:.0}", report.qps),
            format!("{:.0}", report.latency.p50 * 1e6),
            format!("{:.0}", report.latency.p99 * 1e6),
            report.errors.to_string(),
        ]);
    }
    server.shutdown();
    server.join();
    println!("{}", table.render());
}
