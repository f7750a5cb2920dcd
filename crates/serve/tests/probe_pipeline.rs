//! Property test of the read-only store's probe pipeline.
//!
//! `Snapshot` probes a query's points in chunks of 16 and votes them in
//! point order afterwards. Random dictionaries (keys of one app and of
//! several apps, adjacent means on one metric and node so the hash index
//! forms probe chains) answer random queries of 0–40 points that mix
//! hits, misses, NaN and infinite means and metrics the store lacks, so
//! the chunk edges at 15/16/17 and 32/33 points are crossed. The
//! `freeze` and `load` forms must agree with the [`EfdDictionary`]
//! oracle through `recognize_into` and `answer_into`.

use efd_core::engine::Answer;
use efd_core::observation::ObsPoint;
use efd_core::{binfmt, EfdDictionary, Fingerprint, Query, RoundingDepth};
use efd_serve::{Recognize, Snapshot, VoteScratch};
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
use proptest::prelude::*;

/// Metrics the dictionaries learn; `MetricId(2)` and beyond they lack.
const LEARNED: u32 = 2;
const NODES: u64 = 3;
const APPS: [&str; 4] = ["bt", "cg", "ft", "lu"];

/// Query lengths at and around the 16-point chunk edges.
const EDGES: [usize; 8] = [0, 1, 15, 16, 17, 32, 33, 40];

/// 16..=300 keys at consecutive means (so neighbouring keys differ in a
/// few mean bits and collide in the index), each with one to three
/// labels: all of one app, or of several.
fn random_dict(rng: &mut TestRng) -> EfdDictionary {
    let mut dict = EfdDictionary::new(RoundingDepth::new(6));
    let keys = 16 + rng.next_below(285);
    for k in 0..keys {
        let metric = MetricId(rng.next_below(u64::from(LEARNED)) as u32);
        let node = NodeId(rng.next_below(NODES) as u16);
        let mean = 100_000.0 + k as f64;
        let one_app = rng.next_below(2) == 0;
        let first = rng.next_below(APPS.len() as u64) as usize;
        for l in 0..1 + rng.next_below(3) as usize {
            let app = if one_app {
                APPS[first]
            } else {
                APPS[(first + l) % APPS.len()]
            };
            let label = AppLabel::new(app, ["X", "Y", "Z"][l]);
            dict.insert_raw(metric, node, Interval::PAPER_DEFAULT, mean, &label);
        }
    }
    dict
}

/// One query point: a stored key, a miss on a learned metric, a NaN or
/// infinite mean, or a metric the store lacks.
fn random_point(rng: &mut TestRng, keys: &[Fingerprint]) -> ObsPoint {
    let stored = keys[rng.next_below(keys.len() as u64) as usize];
    let mut p = ObsPoint {
        metric: stored.metric,
        node: stored.node,
        interval: stored.interval,
        mean: stored.mean(),
    };
    match rng.next_below(8) {
        0..=3 => {}
        4 => p.mean = 50_000.0 + rng.next_below(1000) as f64,
        5 => p.mean = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.next_below(3) as usize],
        6 => p.metric = MetricId(LEARNED + rng.next_below(2) as u32 * 500),
        _ => p.node = NodeId(NODES as u16),
    }
    p
}

proptest! {
    /// Both store forms answer every query like the oracle, through
    /// every recognition call.
    #[test]
    fn chunked_probes_answer_like_the_oracle(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let dict = random_dict(&mut rng);
        let keys: Vec<Fingerprint> = dict.entries().map(|(fp, _)| *fp).collect();
        let catalog = small_catalog();
        let bytes = binfmt::write(&dict.to_parts(), &catalog);
        let forms = [
            ("freeze", Snapshot::freeze(&dict)),
            ("load", Snapshot::load(bytes, &catalog).expect("canonical EFDB bytes")),
        ];
        let mut scratch = VoteScratch::default();
        let mut answer = Answer::default();
        for _ in 0..24 {
            let len = if rng.next_below(2) == 0 {
                EDGES[rng.next_below(EDGES.len() as u64) as usize]
            } else {
                rng.next_below(41) as usize
            };
            let q = Query {
                points: (0..len).map(|_| random_point(&mut rng, &keys)).collect(),
            };
            let oracle = dict.recognize(&q).normalized();
            for (form, snap) in &forms {
                prop_assert_eq!(
                    &snap.recognize_into(&q, &mut scratch),
                    &oracle,
                    "{} recognize_into, {} points",
                    form,
                    len
                );
                snap.answer_into(&q, &mut scratch, &mut answer);
                prop_assert_eq!(&answer, &Answer::from(&oracle), "{} answer_into", form);
                prop_assert_eq!(answer.apps().next(), oracle.best(), "{} scored verdict", form);
            }
        }
    }
}
