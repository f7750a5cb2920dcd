//! Property-based tests for the dictionary's core invariants.

use proptest::prelude::*;

use efd_core::dictionary::{EfdDictionary, Verdict};
use efd_core::fingerprint::Fingerprint;
use efd_core::maintenance;
use efd_core::observation::{LabeledObservation, ObsPoint, Query};
use efd_core::rounding::{round_to_depth, RoundingDepth};
use efd_core::serialize;
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};

const W: Interval = Interval::PAPER_DEFAULT;

/// Strategy: a batch of labeled observations over a few apps/nodes.
fn arb_observations() -> impl Strategy<Value = Vec<LabeledObservation>> {
    let apps = prop::sample::select(vec!["ft", "sp", "bt", "miniAMR", "kripke"]);
    let obs = (apps, 1u16..4, -1e6f64..1e6).prop_map(|(app, nodes, base)| {
        let points = (0..nodes)
            .map(|n| ObsPoint {
                metric: MetricId(0),
                node: NodeId(n),
                interval: W,
                mean: base + n as f64,
            })
            .collect();
        LabeledObservation {
            label: AppLabel::new(app, "X"),
            query: Query { points },
        }
    });
    prop::collection::vec(obs, 1..40)
}

proptest! {
    /// Anything learned is recognized when queried with its exact means
    /// (app-level: the verdict's array contains the app).
    #[test]
    fn learned_observations_are_recognized(
        observations in arb_observations(),
        depth in 1u8..6,
    ) {
        let mut dict = EfdDictionary::new(RoundingDepth::new(depth));
        dict.learn_all(&observations);
        for obs in &observations {
            let r = dict.recognize(&obs.query);
            let hit = match &r.verdict {
                Verdict::Recognized(a) => a == &obs.label.app,
                Verdict::Ambiguous(apps) => apps.iter().any(|a| a == &obs.label.app),
                Verdict::Unknown => false,
                // Verdict is #[non_exhaustive].
                _ => false,
            };
            prop_assert!(hit, "lost {} at depth {depth}: {:?}", obs.label, r.verdict);
        }
    }

    /// Learning is idempotent: re-learning the same batch changes nothing.
    #[test]
    fn learning_is_idempotent(observations in arb_observations()) {
        let mut once = EfdDictionary::new(RoundingDepth::new(3));
        once.learn_all(&observations);
        let mut twice = EfdDictionary::new(RoundingDepth::new(3));
        twice.learn_all(&observations);
        twice.learn_all(&observations);
        prop_assert_eq!(once.len(), twice.len());
        prop_assert_eq!(once.stats(), twice.stats());
    }

    /// Dump → restore preserves every verdict.
    #[test]
    fn dump_restore_preserves_recognition(observations in arb_observations()) {
        let catalog = small_catalog();
        let mut dict = EfdDictionary::new(RoundingDepth::new(2));
        dict.learn_all(&observations);
        let json = serialize::to_json(&dict, &catalog);
        let back = serialize::from_json(&json, &catalog).unwrap();
        prop_assert_eq!(back.len(), dict.len());
        for obs in &observations {
            prop_assert_eq!(
                dict.recognize(&obs.query).verdict,
                back.recognize(&obs.query).verdict
            );
        }
    }

    /// After forget_app, the app never appears in any verdict.
    #[test]
    fn forget_app_is_complete(observations in arb_observations()) {
        let mut dict = EfdDictionary::new(RoundingDepth::new(3));
        dict.learn_all(&observations);
        maintenance::forget_app(&mut dict, "sp");
        for obs in &observations {
            let r = dict.recognize(&obs.query);
            let mentions_sp = match &r.verdict {
                Verdict::Recognized(a) => a == "sp",
                Verdict::Ambiguous(apps) => apps.iter().any(|a| a == "sp"),
                Verdict::Unknown => false,
                // Verdict is #[non_exhaustive].
                _ => false,
            };
            prop_assert!(!mentions_sp);
            prop_assert!(r.app_votes.iter().all(|(a, _)| a != "sp"));
        }
    }

    /// Fingerprint byte packing round-trips.
    #[test]
    fn fingerprint_pack_roundtrip(
        metric in 0u32..1000,
        node in 0u16..64,
        start in 0u32..10_000,
        len in 1u32..10_000,
        mean in -1e12f64..1e12,
    ) {
        let fp = Fingerprint::from_rounded(
            MetricId(metric),
            NodeId(node),
            Interval::new(start, start + len),
            mean,
        );
        prop_assert_eq!(Fingerprint::unpack(&fp.pack()), fp);
    }

    /// Rounding at the dictionary's depth is transparent: inserting a raw
    /// mean and querying any value in the same decimal bucket matches.
    #[test]
    fn bucket_neighbors_collide(
        mean in 1.0f64..1e9,
        depth in 1u8..6,
        wiggle in -0.49f64..0.49,
    ) {
        let rounded = round_to_depth(mean, depth);
        prop_assume!(rounded > 0.0);
        // Grain of the bucket the ROUNDED value lives in.
        let magnitude = rounded.abs().log10().floor() as i32;
        let grain = 10f64.powi(magnitude - depth as i32 + 1);
        let neighbor = rounded + wiggle * grain;
        prop_assume!(neighbor > 0.0);
        // Guard against magnitude-boundary flips (e.g. 999.6 vs 1000).
        prop_assume!(round_to_depth(neighbor, depth) == rounded);

        let mut dict = EfdDictionary::new(RoundingDepth::new(depth));
        dict.insert_raw(MetricId(0), NodeId(0), W, mean, &AppLabel::new("ft", "X"));
        let found = dict.lookup_raw(MetricId(0), NodeId(0), W, neighbor);
        prop_assert!(found.is_some(), "{neighbor} missed bucket of {mean} (depth {depth})");
    }

    /// A dictionary diffed against itself is always semantically empty,
    /// with zero verdict divergence, at any depth and under any sample
    /// seed — the `efd diff A A` exit-0 contract.
    #[test]
    fn self_diff_is_empty(
        observations in arb_observations(),
        depth in 1u8..6,
        seed in 0u64..u64::MAX,
    ) {
        let mut dict = EfdDictionary::new(RoundingDepth::new(depth));
        dict.learn_all(&observations);
        let opts = efd_core::diff::DiffOptions { seed, ..Default::default() };
        let r = efd_core::diff::diff(&dict, &dict, &small_catalog(), &opts);
        prop_assert!(r.semantically_equal(), "{r:?}");
        prop_assert_eq!(r.added + r.removed + r.relabelled, 0);
        prop_assert_eq!(r.divergence.diverged, 0, "self-diff verdicts must agree");
        prop_assert_eq!(r.keys_a, r.keys_b);
        for c in &r.coverage {
            prop_assert_eq!(c.keys_a, c.keys_b, "coverage of {} must match", c.app);
        }
    }

    /// Vote counts never exceed matched points, and matched points never
    /// exceed the query size.
    #[test]
    fn vote_accounting(observations in arb_observations()) {
        let mut dict = EfdDictionary::new(RoundingDepth::new(3));
        dict.learn_all(&observations);
        for obs in &observations {
            let r = dict.recognize(&obs.query);
            prop_assert!(r.matched_points <= r.total_points);
            for (_, votes) in &r.app_votes {
                prop_assert!(*votes as usize <= r.matched_points);
            }
        }
    }
}
