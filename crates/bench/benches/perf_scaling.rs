//! Criterion: recognition latency vs dictionary size — the MODA
//! requirement that responses stay low-latency as the fingerprint store
//! grows over months of operation.
//!
//! `recognize_vs_entries` times the oracle on one repeated query, which
//! stays in cache. `answer_into_distinct_queries` times the served store
//! (`Snapshot::answer_into`, the daemon's verdict path) over a stream of
//! 65536 distinct 8-point queries, half their points stored keys and
//! half misses, so at 1M keys (a 48 MiB store) nearly every probe misses
//! the CPU caches.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use efd_core::engine::{Answer, Recognize, VoteScratch};
use efd_core::observation::{ObsPoint, Query};
use efd_core::{EfdDictionary, RoundingDepth};
use efd_serve::Snapshot;
use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
use efd_util::SplitMix64;

/// Queries in the distinct-query stream.
const STREAM: usize = 1 << 16;
/// Points per streamed query.
const POINTS: usize = 8;

fn dict_with(entries: usize) -> EfdDictionary {
    let mut d = EfdDictionary::new(RoundingDepth::new(4));
    let mut rng = SplitMix64::new(11);
    let apps = ["ft", "mg", "sp", "lu", "bt", "cg"];
    let mut n = 0usize;
    while d.len() < entries {
        let app = apps[n % apps.len()];
        d.insert_raw(
            MetricId((n % 562) as u32),
            NodeId((n % 4) as u16),
            Interval::PAPER_DEFAULT,
            1000.0 + rng.next_f64() * 1e7,
            &AppLabel::new(app, "X"),
        );
        n += 1;
    }
    d
}

/// `STREAM` queries of `POINTS` points each: even points carry a stored
/// key's mean, odd points the same key's mean shifted off its rounding
/// bucket (a miss unless another key sits there).
fn query_stream(d: &EfdDictionary) -> Vec<Query> {
    let keys: Vec<_> = d.entries().map(|(fp, _)| *fp).collect();
    let mut rng = SplitMix64::new(29);
    (0..STREAM)
        .map(|_| Query {
            points: (0..POINTS)
                .map(|i| {
                    let fp = keys[rng.next_below(keys.len() as u64) as usize];
                    let shift = if i % 2 == 0 { 1.0 } else { 1.5 };
                    ObsPoint {
                        metric: fp.metric,
                        node: fp.node,
                        interval: fp.interval,
                        mean: fp.mean() * shift,
                    }
                })
                .collect(),
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling");
    for entries in [100usize, 10_000, 1_000_000] {
        let d = dict_with(entries);
        let q = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[5e6, 6e6, 7e6, 8e6]);
        group.bench_with_input(
            BenchmarkId::new("recognize_vs_entries", entries),
            &entries,
            |b, _| b.iter(|| black_box(d.recognize(black_box(&q)).matched_points)),
        );
        if entries < 10_000 {
            continue;
        }
        let snap = Snapshot::freeze(&d);
        let queries = query_stream(&d);
        let (mut scratch, mut answer) = (VoteScratch::default(), Answer::default());
        let mut next = 0usize;
        group.bench_with_input(
            BenchmarkId::new("answer_into_distinct_queries", entries),
            &entries,
            |b, _| {
                b.iter(|| {
                    let q = &queries[next % STREAM];
                    next += 1;
                    snap.answer_into(black_box(q), &mut scratch, &mut answer);
                    answer.matched_points
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
