//! Persistence integration: JSON ↔ EFDB round trips through the facade.
//!
//! The acceptance property of the EFDB format, end to end: a dictionary
//! dumped to either format and restored — through any chain of
//! conversions — answers a large query batch identically to the
//! original, and the EFDB encoding is canonical (one byte stream per
//! dictionary content).

use efd::core::{binfmt, serialize};
use efd::prelude::*;

const QUERY_BATCH: usize = 1_000;

/// A moderately sized deterministic dictionary: many apps × inputs ×
/// nodes on one metric, learned at depth 3.
fn build_dict(catalog: &MetricCatalog) -> (EfdDictionary, MetricId) {
    let metric = catalog.id("nr_mapped_vmstat").unwrap();
    let mut dict = EfdDictionary::new(RoundingDepth::new(3));
    let mut rng = efd::util::SplitMix64::new(0xEFDB);
    for app in 0..24 {
        for input in ["X", "Y", "Z"] {
            let label = AppLabel::new(format!("app{app:02}"), input);
            let base = 4000.0 + 250.0 * app as f64 + 3000.0 * (input.len() as f64);
            let means: Vec<f64> = (0..8)
                .map(|_| base * (1.0 + (rng.next_f64() - 0.5) * 0.02))
                .collect();
            dict.learn(&LabeledObservation {
                label,
                query: Query::from_node_means(metric, Interval::PAPER_DEFAULT, &means),
            });
        }
    }
    (dict, metric)
}

/// A 1k-query batch cycling over learned levels with jitter, plus some
/// never-seen levels (Unknown verdicts must round-trip too).
fn query_batch(metric: MetricId) -> Vec<Query> {
    let mut rng = efd::util::SplitMix64::new(0x5EED);
    (0..QUERY_BATCH)
        .map(|i| {
            let base = if i % 7 == 6 {
                500.0 // below every learned level: Unknown
            } else {
                4000.0 + 250.0 * ((i % 24) as f64) + 3000.0 * (1 + i % 3) as f64
            };
            let means: Vec<f64> = (0..8)
                .map(|_| base * (1.0 + (rng.next_f64() - 0.5) * 0.02))
                .collect();
            Query::from_node_means(metric, Interval::PAPER_DEFAULT, &means)
        })
        .collect()
}

#[test]
fn json_and_efdb_round_trips_answer_identically_on_1k_queries() {
    let catalog = efd::telemetry::catalog::small_catalog();
    let (dict, metric) = build_dict(&catalog);

    // JSON → dictionary.
    let via_json = serialize::from_json(&serialize::to_json(&dict, &catalog), &catalog).unwrap();
    // EFDB → dictionary.
    let bytes = binfmt::write_dictionary(&dict, &catalog);
    let via_efdb = binfmt::read_dictionary(&bytes, &catalog).unwrap();
    // JSON → EFDB → JSON → dictionary (the full conversion chain).
    let chained = {
        let j1 = serialize::to_json(&dict, &catalog);
        let d1 = serialize::from_json(&j1, &catalog).unwrap();
        let b = binfmt::write_dictionary(&d1, &catalog);
        let d2 = binfmt::read_dictionary(&b, &catalog).unwrap();
        serialize::from_json(&serialize::to_json(&d2, &catalog), &catalog).unwrap()
    };

    assert_eq!(via_json.len(), dict.len());
    assert_eq!(via_efdb.len(), dict.len());
    let mut unknowns = 0usize;
    for q in query_batch(metric) {
        let expect = dict.recognize(&q);
        if expect.verdict == Verdict::Unknown {
            unknowns += 1;
        }
        assert_eq!(via_json.recognize(&q), expect);
        assert_eq!(via_efdb.recognize(&q), expect);
        assert_eq!(chained.recognize(&q), expect);
    }
    assert!(unknowns > 0, "batch must exercise the Unknown path");
}

#[test]
fn efdb_encoding_is_canonical_across_round_trips() {
    let catalog = efd::telemetry::catalog::small_catalog();
    let (dict, _) = build_dict(&catalog);
    let bytes = binfmt::write_dictionary(&dict, &catalog);
    // EFDB → JSON → EFDB reproduces identical bytes.
    let json = serialize::to_json(
        &binfmt::read_dictionary(&bytes, &catalog).unwrap(),
        &catalog,
    );
    let again = binfmt::write_dictionary(&serialize::from_json(&json, &catalog).unwrap(), &catalog);
    assert_eq!(bytes, again);
    // And EFDB is the compact form.
    assert!(
        bytes.len() * 2 < json.len(),
        "efdb {} bytes vs json {} bytes",
        bytes.len(),
        json.len()
    );
}

#[test]
fn efdb_snapshot_fast_path_serves_identically() {
    let catalog = efd::telemetry::catalog::small_catalog();
    let (dict, metric) = build_dict(&catalog);
    let efdb = binfmt::read(&binfmt::write_dictionary(&dict, &catalog)).unwrap();
    let snap = Snapshot::from_efdb(&efdb, &catalog, 8).unwrap();
    assert_eq!(snap.len(), dict.len());
    for q in query_batch(metric).into_iter().take(200) {
        assert_eq!(snap.recognize(&q), dict.recognize(&q).normalized());
    }
}

#[test]
fn depth_expectations_are_enforced_through_the_facade() {
    let catalog = efd::telemetry::catalog::small_catalog();
    let (dict, _) = build_dict(&catalog); // depth 3
    let json = serialize::to_json(&dict, &catalog);
    assert!(serialize::from_json_expecting(&json, &catalog, RoundingDepth::new(3)).is_ok());
    assert!(matches!(
        serialize::from_json_expecting(&json, &catalog, RoundingDepth::new(2)),
        Err(serialize::RestoreError::DepthMismatch {
            expected: 2,
            found: 3
        })
    ));
}
