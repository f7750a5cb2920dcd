//! Engine conformance: every `Recognize` backend in the workspace is
//! answer-equivalent to the single-threaded [`EfdDictionary`] oracle on
//! one shared learned dataset.
//!
//! The suite is macro-instantiated, one test per backend, in two tiers:
//!
//! * `exact:` — the full [`Recognition`] equals
//!   `oracle.recognize(q).normalized()` on every query (dictionary-family
//!   backends: core, combo, snapshot, sharded, online session, batch
//!   front end, boxed trait objects, and every registry `Backend` built
//!   from EFDB and from JSON bytes);
//! * `verdict:` — the scored answer ([`Recognition::best`]) matches on
//!   cleanly-separable queries (the eval crate's ml-classifier backends,
//!   whose vote *counts* legitimately differ from dictionary votes).
//!
//! Each instantiation also cross-checks the trait's entry points against
//! each other: `recognize`, `recognize_into` (scratch reuse),
//! `recognize_batch`, and `recognize_batch_parallel` must agree, and the
//! verdict-only `answer_into` must equal the [`Answer`] of
//! `recognize_into(..).normalized()` — whether the backend overrides it
//! or runs the provided default.

use std::sync::Arc;

use efd_core::engine::{Answer, Learn, ParallelRecognize, Recognize, VoteScratch};
use efd_core::multi::ComboDictionary;
use efd_core::{binfmt, serialize, EfdDictionary, LabeledObservation, Query, RoundingDepth};
use efd_eval::engine::MlBackend;
use efd_ml::taxonomist::TaxonomistConfig;
use efd_serve::{Backend, EfdbSnapshot, ShardedDictionary, Snapshot};
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::{AppLabel, Interval, MetricId};

const M: MetricId = MetricId(0);
const W: Interval = Interval::PAPER_DEFAULT;
const DEPTH: u8 = 2;

fn depth() -> RoundingDepth {
    RoundingDepth::new(DEPTH)
}

fn obs(app: &str, input: &str, means: [f64; 4]) -> LabeledObservation {
    LabeledObservation {
        label: AppLabel::new(app, input),
        query: Query::from_node_means(M, W, &means),
    }
}

/// The shared learned dataset: three cleanly-separated applications, one
/// input-dependent app, and the paper's SP/BT-style collision pair.
fn observations() -> Vec<LabeledObservation> {
    vec![
        obs("ft", "X", [6020.0, 6020.0, 6020.0, 6020.0]),
        obs("ft", "Y", [6023.0, 6019.0, 6021.0, 6018.0]),
        obs("cg", "X", [8110.0, 8105.0, 8120.0, 8093.0]),
        obs("lu", "X", [4320.0, 4310.0, 4305.0, 4330.0]),
        obs("sp", "X", [7617.0, 7520.0, 7520.0, 7121.0]),
        obs("bt", "X", [7638.0, 7540.0, 7540.0, 7140.0]),
        // Spread within the 11000 rounding bucket: identical keys for the
        // dictionary family, non-degenerate variance for the ml family.
        obs("miniAMR", "Z", [10980.0, 10964.0, 11012.0, 10991.0]),
    ]
}

/// The single-threaded oracle every backend is checked against.
fn oracle(observations: &[LabeledObservation]) -> EfdDictionary {
    let mut d = EfdDictionary::new(depth());
    d.learn_all(observations);
    d
}

/// All-finite queries for exact-equality backends: clean matches, the
/// SP/BT tie, an input-size prediction, a partial match, and a never-seen
/// level (the Unknown safeguard).
fn exact_queries() -> Vec<Query> {
    vec![
        Query::from_node_means(M, W, &[6031.0, 5988.0, 6007.0, 6044.0]),
        Query::from_node_means(M, W, &[8101.0, 8140.0, 8066.0, 8090.0]),
        Query::from_node_means(M, W, &[4311.0, 4299.0, 4302.0, 4344.0]),
        Query::from_node_means(M, W, &[7601.0, 7512.0, 7533.0, 7098.0]),
        Query::from_node_means(M, W, &[10951.0, 11020.0, 10990.0, 11043.0]),
        Query::from_node_means(M, W, &[6000.0, 6000.0, 6000.0, 11000.0]),
        Query::from_node_means(M, W, &[1.0, 2.0, 3.0, 4.0]),
    ]
}

/// Queries near well-separated learned levels only — what classifier
/// backends (no exact-match keys, no tie semantics) can be scored on.
fn verdict_queries() -> Vec<(Query, &'static str)> {
    vec![
        (Query::from_node_means(M, W, &[6015.0; 4]), "ft"),
        (Query::from_node_means(M, W, &[8104.0; 4]), "cg"),
        (Query::from_node_means(M, W, &[4317.0; 4]), "lu"),
        (Query::from_node_means(M, W, &[10990.0; 4]), "miniAMR"),
    ]
}

/// `answer_into` on every query equals the [`Answer`] built from the
/// same backend's normalized `recognize_into`. One scratch and one
/// answer are reused throughout, as a server connection reuses them.
fn assert_answers<R: Recognize>(backend: &R, queries: &[Query], label: &str) {
    let mut scratch = VoteScratch::default();
    let mut answer = Answer::default();
    for (i, q) in queries.iter().enumerate() {
        let want = Answer::from(&backend.recognize_into(q, &mut scratch).normalized());
        backend.answer_into(q, &mut scratch, &mut answer);
        assert_eq!(answer, want, "{label}: answer_into on query {i}");
    }
}

/// One backend, five trait entry points, every query: all equal to the
/// normalized oracle.
fn assert_exact<R: Recognize + Sync>(backend: &R, label: &str) {
    let oracle = oracle(&observations());
    let queries = exact_queries();
    let mut scratch = VoteScratch::default();
    for q in &queries {
        let expected = oracle.recognize(q).normalized();
        assert_eq!(
            Recognize::recognize(backend, q),
            expected,
            "{label}: recognize"
        );
        assert_eq!(
            backend.recognize_into(q, &mut scratch),
            expected,
            "{label}: recognize_into (scratch reuse)"
        );
    }
    assert_answers(backend, &queries, label);
    let batch = Recognize::recognize_batch(backend, &queries);
    let parallel = backend.recognize_batch_parallel(&queries);
    for (i, q) in queries.iter().enumerate() {
        let expected = oracle.recognize(q).normalized();
        assert_eq!(batch[i], expected, "{label}: recognize_batch[{i}]");
        assert_eq!(
            parallel[i], expected,
            "{label}: recognize_batch_parallel[{i}]"
        );
    }
}

/// Scored-verdict agreement with the oracle on separable queries.
fn assert_verdicts<R: Recognize + Sync>(backend: &R, label: &str) {
    let oracle = oracle(&observations());
    for (q, want) in verdict_queries() {
        let expected = oracle.recognize(&q).normalized();
        assert_eq!(expected.best(), Some(want), "oracle sanity for {want}");
        let got = Recognize::recognize(backend, &q);
        assert_eq!(got.best(), Some(want), "{label}: best() on {want}");
        assert_eq!(got.verdict, expected.verdict, "{label}: verdict on {want}");
        assert_eq!(got.total_points, expected.total_points, "{label}: totals");
    }
    let queries: Vec<Query> = verdict_queries().into_iter().map(|(q, _)| q).collect();
    assert_answers(backend, &queries, label);
}

/// Instantiate one conformance test per backend. The builder expression
/// receives the shared observations and returns the ready backend.
macro_rules! conformance {
    (exact: $name:ident, $build:expr) => {
        #[test]
        fn $name() {
            let observations = observations();
            #[allow(clippy::redundant_closure_call)]
            let backend = ($build)(&observations);
            assert_exact(&backend, stringify!($name));
        }
    };
    (verdict: $name:ident, $build:expr) => {
        #[test]
        fn $name() {
            let observations = observations();
            #[allow(clippy::redundant_closure_call)]
            let backend = ($build)(&observations);
            assert_verdicts(&backend, stringify!($name));
        }
    };
}

// ---------------------------------------------------------------------
// The six backends (+ composition forms), all against the one oracle.
// ---------------------------------------------------------------------

conformance!(exact: efd_dictionary, |observations: &[LabeledObservation]| {
    let mut d = EfdDictionary::new(depth());
    Learn::learn_all(&mut d, observations);
    d
});

conformance!(exact: combo_dictionary, |observations: &[LabeledObservation]| {
    // Single-metric conjunctive keys degenerate to the base dictionary's
    // semantics, so the combo backend is exactly oracle-equivalent here.
    let mut c = ComboDictionary::new(vec![M], depth());
    Learn::learn_all(&mut c, observations);
    c
});

conformance!(exact: snapshot_frozen, |observations: &[LabeledObservation]| {
    Snapshot::freeze(&oracle(observations))
});

conformance!(exact: snapshot_single_shard, |observations: &[LabeledObservation]| {
    // Published by a one-shard live dictionary.
    ShardedDictionary::from_parts(oracle(observations).to_parts(), 1).snapshot()
});

conformance!(exact: snapshot_sharded, |observations: &[LabeledObservation]| {
    // Published by a 16-shard live dictionary.
    ShardedDictionary::from_parts(oracle(observations).to_parts(), 16).snapshot()
});

conformance!(exact: sharded_dictionary_learned, |observations: &[LabeledObservation]| {
    let mut s = ShardedDictionary::new(depth(), 8);
    Learn::learn_all(&mut s, observations);
    s
});

conformance!(exact: sharded_dictionary_from_parts, |observations: &[LabeledObservation]| {
    ShardedDictionary::from_parts(oracle(observations).to_parts(), 4)
});

conformance!(exact: efdb_snapshot_zero_copy, |observations: &[LabeledObservation]| {
    // Learned state -> canonical EFDB bytes -> served in place: the
    // daemon's cold-start path answers byte-for-byte like the oracle.
    let catalog = small_catalog();
    let bytes = binfmt::write(&oracle(observations).to_parts(), &catalog);
    EfdbSnapshot::load(bytes, &catalog).expect("canonical bytes always check")
});

conformance!(exact: boxed_dyn_recognize, |observations: &[LabeledObservation]| {
    let backend: Box<dyn Recognize + Send + Sync> =
        Box::new(Snapshot::freeze(&oracle(observations)));
    backend
});

conformance!(exact: arc_dyn_recognize, |observations: &[LabeledObservation]| {
    let backend: Arc<dyn Recognize + Send + Sync> =
        Arc::new(ShardedDictionary::from_parts(oracle(observations).to_parts(), 8));
    backend
});

// ---------------------------------------------------------------------
// The backend registry: every `Backend` built from file bytes, canonical
// EFDB and JSON dump alike, the way `efd serve` and the daemon build it.
// ---------------------------------------------------------------------

/// Learned state -> dictionary file bytes -> [`Backend::load`].
fn registry_load(
    backend: Backend,
    observations: &[LabeledObservation],
    json: bool,
) -> Arc<dyn Recognize + Send + Sync> {
    let catalog = small_catalog();
    let dict = oracle(observations);
    let bytes = if json {
        serialize::to_json(&dict, &catalog).into_bytes()
    } else {
        binfmt::write_dictionary(&dict, &catalog)
    };
    let (recognizer, _keys) = backend
        .load(bytes, &catalog, "conformance")
        .expect("the registry builds every backend from valid bytes");
    recognizer
}

conformance!(exact: registry_snapshot_from_efdb, |o: &[LabeledObservation]| {
    registry_load(Backend::Snapshot, o, false)
});

conformance!(exact: registry_snapshot_from_json, |o: &[LabeledObservation]| {
    registry_load(Backend::Snapshot, o, true)
});

conformance!(exact: registry_combo_from_efdb, |o: &[LabeledObservation]| {
    registry_load(Backend::Combo, o, false)
});

conformance!(exact: registry_combo_from_json, |o: &[LabeledObservation]| {
    registry_load(Backend::Combo, o, true)
});

#[test]
fn registry_rejects_unknown_backend_names() {
    let names = Backend::ALL.map(Backend::name).join("|");
    assert_eq!(names, "snapshot|combo");
    for name in ["bogus", "exact", "Snapshot", "", "sharded", "efdb"] {
        let err = Backend::parse(name).expect_err(name);
        assert!(err.contains(&format!("{name:?}")), "{err}");
        assert!(err.contains(&format!("({names})")), "{err}");
    }
    for backend in Backend::ALL {
        assert_eq!(Backend::parse(backend.name()), Ok(backend));
    }
}

#[test]
fn registry_errors_name_the_source() {
    let catalog = small_catalog();
    let mut bad_efdb = binfmt::MAGIC.to_vec();
    bad_efdb.extend_from_slice(&[0xEE; 64]);
    for backend in Backend::ALL {
        for bytes in [b"not a dictionary".to_vec(), bad_efdb.clone()] {
            let err = backend
                .load(bytes, &catalog, "garbage.bin")
                .err()
                .expect("garbage bytes never build");
            assert!(
                err.starts_with("garbage.bin: "),
                "{}: {err}",
                backend.name()
            );
        }
    }
}

// ---------------------------------------------------------------------
// The eval crate's classifier adapter: ml families under the same API.
// ---------------------------------------------------------------------

conformance!(verdict: ml_backend_knn, |observations: &[LabeledObservation]| {
    let mut b = MlBackend::knn(3, 0.5);
    b.learn_all(observations);
    b
});

conformance!(verdict: ml_backend_gaussian_nb, |observations: &[LabeledObservation]| {
    let mut b = MlBackend::gaussian_nb(0.5);
    b.learn_all(observations);
    b
});

conformance!(verdict: ml_backend_forest, |observations: &[LabeledObservation]| {
    let mut b = MlBackend::forest(TaxonomistConfig {
        n_trees: 15,
        ..Default::default()
    });
    b.learn_all(observations);
    b
});

// ---------------------------------------------------------------------
// Object safety: both traits must be usable as trait objects.
// ---------------------------------------------------------------------

#[test]
fn traits_are_object_safe() {
    // Learn through `&mut dyn Learn`…
    let mut dict = EfdDictionary::new(depth());
    {
        let learner: &mut dyn Learn = &mut dict;
        learner.learn_all(&observations());
    }
    // …then recognize through `Box<dyn Recognize>` (no auto-trait bounds
    // required for object safety itself).
    let plain: Box<dyn Recognize> = Box::new(dict.clone());
    let expected = oracle(&observations())
        .recognize(&exact_queries()[0])
        .normalized();
    assert_eq!(plain.recognize(&exact_queries()[0]), expected);

    // The Send + Sync flavor additionally gets the parallel batch path.
    let shared: Box<dyn Recognize + Send + Sync> = Box::new(dict);
    let queries = exact_queries();
    let parallel = shared.recognize_batch_parallel(&queries);
    assert_eq!(parallel[0], expected);

    // A heterogeneous backend list — the point of the object-safe design.
    let catalog = small_catalog();
    let backends: Vec<Box<dyn Recognize + Send + Sync>> = vec![
        Box::new(oracle(&observations())),
        Box::new(Snapshot::freeze(&oracle(&observations()))),
        Box::new(ShardedDictionary::from_parts(
            oracle(&observations()).to_parts(),
            2,
        )),
        Box::new(
            EfdbSnapshot::load(
                binfmt::write(&oracle(&observations()).to_parts(), &catalog),
                &catalog,
            )
            .expect("canonical bytes always check"),
        ),
    ];
    for (i, b) in backends.iter().enumerate() {
        for q in &queries {
            assert_eq!(
                b.recognize(q),
                oracle(&observations()).recognize(q).normalized(),
                "backend #{i}"
            );
        }
    }
}

/// `Recognition::normalized` really is the equivalence the suite is
/// "modulo": learn-order permutations normalize to the same answers.
#[test]
fn normalized_is_learn_order_independent() {
    let mut reversed: Vec<LabeledObservation> = observations();
    reversed.reverse();
    let a = oracle(&observations());
    let mut b = EfdDictionary::new(depth());
    b.learn_all(&reversed);
    for q in exact_queries() {
        assert_eq!(a.recognize(&q).normalized(), b.recognize(&q).normalized());
        assert_eq!(
            Recognize::recognize(&a, &q),
            Recognize::recognize(&b, &q),
            "trait path is normalized on both"
        );
    }
}
