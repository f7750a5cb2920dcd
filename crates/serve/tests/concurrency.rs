//! Concurrency tests: N writer threads learning disjoint label sets while
//! M reader threads recognize, then oracle equivalence — the sharded
//! structures must answer exactly like a single-threaded
//! [`EfdDictionary`] that learned the same observations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use efd_core::{EfdDictionary, LabeledObservation, Query, Recognition, RoundingDepth};
use efd_serve::{BatchRecognizer, Recognize, ShardedDictionary};
use efd_telemetry::{AppLabel, Interval, MetricId};
use efd_util::SplitMix64;

const M: MetricId = MetricId(0);
const W: Interval = Interval::PAPER_DEFAULT;
const NODES: usize = 4;

/// Synthetic corpus: `apps` applications × `reps` repeated executions,
/// app base levels spread far enough apart that most apps are exclusive
/// while neighbors occasionally collide (like SP/BT in the paper).
fn corpus(apps: usize, reps: usize, seed: u64) -> Vec<LabeledObservation> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    for a in 0..apps {
        let base = 3000.0 + 700.0 * a as f64;
        for r in 0..reps {
            let input = ["X", "Y", "Z"][r % 3];
            let means: Vec<f64> = (0..NODES)
                .map(|_| base + (rng.next_f64() - 0.5) * 60.0)
                .collect();
            out.push(LabeledObservation {
                label: AppLabel::new(format!("app{a:02}"), input),
                query: Query::from_node_means(M, W, &means),
            });
        }
    }
    out
}

/// Queries drawn near the corpus levels (mix of matches, collisions, and
/// never-seen levels).
fn queries(apps: usize, count: usize, seed: u64) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let a = (rng.next_u64() % (apps as u64 + 2)) as f64; // +2: unknown levels
            let base = 3000.0 + 700.0 * a;
            let means: Vec<f64> = (0..NODES)
                .map(|_| base + (rng.next_f64() - 0.5) * 80.0)
                .collect();
            Query::from_node_means(M, W, &means)
        })
        .collect()
}

fn oracle(observations: &[LabeledObservation]) -> EfdDictionary {
    let mut d = EfdDictionary::new(RoundingDepth::new(2));
    d.learn_all(observations);
    d
}

#[test]
fn concurrent_writers_and_readers_match_single_threaded_oracle() {
    const WRITERS: usize = 4;
    const READERS: usize = 2;

    let observations = corpus(12, 6, 0xC0FFEE);
    let probe_queries = queries(12, 64, 0xBEEF);
    let sharded = ShardedDictionary::new(RoundingDepth::new(2), 8);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        // N writers over DISJOINT label sets (apps partitioned round-robin
        // by index), interleaving at observation granularity.
        for w in 0..WRITERS {
            let sharded = &sharded;
            let observations = &observations;
            s.spawn(move || {
                for obs in observations.iter().filter(|o| {
                    let app_idx: usize = o.label.app[3..].parse().expect("appNN name");
                    app_idx % WRITERS == w
                }) {
                    sharded.learn(obs);
                }
            });
        }
        // M readers recognize the whole time. Verdicts on a moving
        // dictionary are transient; the invariant is that every answer is
        // well-formed and every voted app is one somebody is learning.
        for _ in 0..READERS {
            let sharded = &sharded;
            let done = &done;
            let probe_queries = &probe_queries;
            s.spawn(move || {
                let mut rounds = 0usize;
                while !done.load(Ordering::Relaxed) || rounds == 0 {
                    for q in probe_queries {
                        let r = sharded.recognize(q);
                        assert!(r.matched_points <= r.total_points);
                        for (app, votes) in &r.app_votes {
                            assert!(app.starts_with("app"), "foreign app {app:?}");
                            assert!(*votes as usize <= r.total_points);
                        }
                    }
                    rounds += 1;
                }
            });
        }
        // Writers finish (first WRITERS handles), then release readers.
        // Scope join order doesn't matter: flip `done` from a watcher.
        s.spawn(|| {
            // Busy-wait until all keys are in (writers insert, never
            // remove; the final key count equals the oracle's).
            let target = oracle(&observations).len();
            while sharded.len() < target {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
        });
    });

    // Final state: answer-identical to the single-threaded oracle on the
    // very observations that were learned, and on fresh probe queries.
    let oracle = oracle(&observations);
    assert_eq!(sharded.len(), oracle.len());
    for obs in &observations {
        assert_eq!(
            sharded.recognize(&obs.query),
            oracle.recognize(&obs.query).normalized(),
            "learned observation {:?}",
            obs.label
        );
    }
    for q in &probe_queries {
        assert_eq!(sharded.recognize(q), oracle.recognize(q).normalized());
    }
}

#[test]
fn snapshot_batch_matches_oracle_at_every_shard_count() {
    let observations = corpus(10, 5, 0x5EED);
    let oracle = oracle(&observations);
    let probe_queries = queries(10, 256, 0xFACE);

    let expected: Vec<Recognition> = probe_queries
        .iter()
        .map(|q| oracle.recognize(q).normalized())
        .collect();

    // Published by a live dictionary of each shard count.
    for shards in [1usize, 2, 8, 32] {
        let live = ShardedDictionary::from_parts(oracle.to_parts(), shards);
        let snap = Arc::new(live.snapshot());
        assert_eq!(snap.len(), oracle.len(), "shards={shards}");
        let server = BatchRecognizer::new(Arc::clone(&snap));
        let answers = server.recognize_batch(&probe_queries);
        assert_eq!(answers, expected, "shards={shards}");
        // The verdict-only fast path agrees with the full path.
        let bests = server.best_batch(&probe_queries);
        for (b, e) in bests.iter().zip(&expected) {
            assert_eq!(b.as_deref(), e.best(), "shards={shards}");
        }
    }
}

#[test]
fn snapshots_taken_mid_write_never_shrink() {
    let observations = corpus(8, 6, 0xABCD);
    let sharded = ShardedDictionary::new(RoundingDepth::new(2), 8);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        s.spawn(|| {
            sharded.learn_all(&observations);
            done.store(true, Ordering::Relaxed);
        });
        s.spawn(|| {
            // Entries are only ever added; successive snapshots must be
            // monotonically non-shrinking even while writes race.
            let mut last = 0usize;
            while !done.load(Ordering::Relaxed) {
                let snap = sharded.snapshot();
                let n = snap.len();
                assert!(n >= last, "snapshot shrank: {n} < {last}");
                last = n;
            }
        });
    });

    // The final snapshot is the complete dictionary.
    let oracle = oracle(&observations);
    assert_eq!(sharded.snapshot().len(), oracle.len());
}

#[test]
fn concurrent_learning_from_frozen_parts_round_trips() {
    // Freeze a learned dictionary into shards without re-learning, keep
    // learning new apps concurrently, and thaw back.
    let observations = corpus(6, 4, 0x1234);
    let base = oracle(&observations);
    let sharded = ShardedDictionary::from_parts(base.to_parts(), 8);

    let extra = corpus(4, 4, 0x9999)
        .into_iter()
        .map(|mut o| {
            o.label = AppLabel::new(format!("new_{}", o.label.app), o.label.input);
            // Shift levels away from the base corpus.
            for p in &mut o.query.points {
                p.mean += 40_000.0;
            }
            o
        })
        .collect::<Vec<_>>();

    std::thread::scope(|s| {
        for chunk in extra.chunks(extra.len().div_ceil(3)) {
            let sharded = &sharded;
            s.spawn(move || sharded.learn_all(chunk));
        }
    });

    // Equivalent single-threaded history: base then extra.
    let mut all = observations.clone();
    all.extend(extra.iter().cloned());
    let oracle_all = oracle(&all);

    let merged = sharded.into_dictionary();
    assert_eq!(merged.len(), oracle_all.len());
    for q in queries(10, 128, 0x7777) {
        assert_eq!(
            merged.recognize(&q).normalized(),
            oracle_all.recognize(&q).normalized()
        );
    }
    for obs in &extra {
        assert_eq!(
            merged.recognize(&obs.query).best(),
            oracle_all.recognize(&obs.query).best()
        );
    }
}
