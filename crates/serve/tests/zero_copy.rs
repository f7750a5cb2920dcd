//! Differential fuzz: every way of serving the same bytes.
//!
//! A randomly generated dictionary is written to canonical EFDB bytes,
//! then served four ways — thawed into an owned [`Snapshot`] from the
//! checked view ([`Snapshot::from_view`], the daemon's cold start) and
//! from the decoded file ([`Snapshot::from_efdb`]), and mapped in place
//! by [`EfdbSnapshot`] — and every one must answer every random query
//! exactly like the single-threaded [`EfdDictionary`] oracle (modulo
//! [`Recognition::normalized`] ordering, the engine API's answer
//! contract). Any divergence is a bug in one of the [`KeyStore`]
//! implementations, in the owned snapshot's postings arena, or in the
//! binary format's ordering guarantees that the zero-copy binary search
//! relies on.

use efd_core::{binfmt, EfdDictionary, LabeledObservation, Query, Recognition, RoundingDepth};
use efd_serve::{EfdbSnapshot, Recognize, Snapshot, VoteScratch};
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::{AppLabel, Interval, MetricId};
use efd_util::SplitMix64;

const NODES: usize = 4;
fn intervals() -> [Interval; 2] {
    [Interval::PAPER_DEFAULT, Interval::new(60, 120)]
}

/// A random corpus spread over every metric in the small catalog, two
/// intervals, and app levels close enough that collisions happen.
fn corpus(apps: usize, reps: usize, metrics: usize, seed: u64) -> Vec<LabeledObservation> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    for a in 0..apps {
        let base = 3000.0 + 400.0 * a as f64;
        for r in 0..reps {
            let metric = MetricId((rng.next_u64() % metrics as u64) as u32);
            let interval = intervals()[(rng.next_u64() % 2) as usize];
            let input = ["X", "Y", "Z"][r % 3];
            let means: Vec<f64> = (0..NODES)
                .map(|_| base + (rng.next_f64() - 0.5) * 300.0)
                .collect();
            out.push(LabeledObservation {
                label: AppLabel::new(format!("app{a:02}"), input),
                query: Query::from_node_means(metric, interval, &means),
            });
        }
    }
    out
}

/// Random queries: near-corpus levels, unknown levels, unknown metrics,
/// and unknown intervals, all mixed.
fn random_queries(apps: usize, metrics: usize, count: usize, seed: u64) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            // +2 on each axis: levels/metrics the corpus never learned.
            let a = (rng.next_u64() % (apps as u64 + 2)) as f64;
            let metric = MetricId((rng.next_u64() % (metrics as u64 + 2)) as u32);
            let interval = if rng.next_u64().is_multiple_of(8) {
                Interval::new(0, 30)
            } else {
                intervals()[(rng.next_u64() % 2) as usize]
            };
            let base = 3000.0 + 400.0 * a;
            let means: Vec<f64> = (0..NODES)
                .map(|_| base + (rng.next_f64() - 0.5) * 400.0)
                .collect();
            Query::from_node_means(metric, interval, &means)
        })
        .collect()
}

/// Whether some key of `oracle` carries two or more labels of one app —
/// the case the owned snapshot's per-key app dedup must get right.
fn has_key_with_repeated_app(oracle: &EfdDictionary) -> bool {
    let parts = oracle.to_parts();
    parts.entries.iter().any(|(_, ids)| {
        let mut apps: Vec<_> = ids.iter().map(|id| parts.label_app[id.index()]).collect();
        let n = apps.len();
        apps.sort_unstable_by_key(|a| a.index());
        apps.dedup();
        apps.len() < n
    })
}

#[test]
fn owned_and_zero_copy_agree_with_the_oracle_on_random_queries() {
    let catalog = small_catalog();
    let metrics = catalog.len();
    for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
        let observations = corpus(24, 5, metrics, seed);
        let mut oracle = EfdDictionary::new(RoundingDepth::new(2));
        oracle.learn_all(&observations);
        assert!(
            has_key_with_repeated_app(&oracle),
            "seed {seed:#x}: no key holds several labels of one app"
        );

        let bytes = binfmt::write(&oracle.to_parts(), &catalog);
        let view = binfmt::check(&bytes).unwrap();
        let thawed = Snapshot::from_view(&view, &catalog, 8).unwrap();
        let owned = Snapshot::from_efdb(&binfmt::read(&bytes).unwrap(), &catalog, 8).unwrap();
        let zero_copy = EfdbSnapshot::load(bytes.clone(), &catalog).unwrap();
        assert_eq!(zero_copy.len(), oracle.len(), "seed {seed:#x}: key count");
        assert_eq!(
            thawed.len(),
            oracle.len(),
            "seed {seed:#x}: key count (view)"
        );
        assert_eq!(
            thawed.shard_sizes(),
            owned.shard_sizes(),
            "seed {seed:#x}: shards"
        );

        let mut scratch = VoteScratch::default();
        let mut matched = 0usize;
        for (i, q) in random_queries(24, metrics, 1000, !seed).iter().enumerate() {
            let expected: Recognition = oracle.recognize(q).normalized();
            let via_view = thawed.recognize_into(q, &mut scratch);
            let via_owned = owned.recognize_into(q, &mut scratch);
            let via_bytes = zero_copy.recognize_into(q, &mut scratch);
            assert_eq!(via_view, expected, "seed {seed:#x}, query #{i}: from_view");
            assert_eq!(via_owned, expected, "seed {seed:#x}, query #{i}: from_efdb");
            assert_eq!(via_bytes, expected, "seed {seed:#x}, query #{i}: zero-copy");
            for (name, best) in [
                ("from_view", thawed.best_with(q, &mut scratch)),
                ("from_efdb", owned.best_with(q, &mut scratch)),
                ("zero-copy", zero_copy.best_with(q, &mut scratch)),
            ] {
                assert_eq!(
                    best,
                    expected.best(),
                    "seed {seed:#x}, query #{i}: {name} verdict fast path"
                );
            }
            matched += usize::from(expected.matched_points > 0);
        }
        assert!(
            matched > 100,
            "seed {seed:#x}: degenerate query mix ({matched} hits)"
        );

        // Thawing the view back into a dictionary round-trips the bytes.
        let back = binfmt::write(&thawed.to_dictionary().to_parts(), &catalog);
        assert_eq!(back, bytes, "seed {seed:#x}: from_view round trip");
    }
}

#[test]
fn every_form_of_an_empty_dictionary_answers_unknown() {
    let catalog = small_catalog();
    let oracle = EfdDictionary::new(RoundingDepth::new(2));
    let bytes = binfmt::write(&oracle.to_parts(), &catalog);
    let view = binfmt::check(&bytes).unwrap();
    let thawed = Snapshot::from_view(&view, &catalog, 8).unwrap();
    let owned = Snapshot::from_efdb(&binfmt::read(&bytes).unwrap(), &catalog, 8).unwrap();
    let zero_copy = EfdbSnapshot::load(bytes.clone(), &catalog).unwrap();
    assert!(thawed.is_empty() && owned.is_empty() && zero_copy.is_empty());
    let mut scratch = VoteScratch::default();
    for q in random_queries(4, catalog.len(), 50, 7) {
        let expected = oracle.recognize(&q).normalized();
        assert_eq!(thawed.recognize_into(&q, &mut scratch), expected);
        assert_eq!(owned.recognize_into(&q, &mut scratch), expected);
        assert_eq!(zero_copy.recognize_into(&q, &mut scratch), expected);
        assert_eq!(thawed.best_with(&q, &mut scratch), None);
    }
}
