//! Differential fuzz: every way of building the read-only store.
//!
//! A randomly generated dictionary is served five ways — loaded from its
//! canonical EFDB bytes ([`Snapshot::load`], the daemon's cold start,
//! which serves the file buffer in place), from the decoded file
//! ([`Snapshot::from_efdb`]), frozen from the live dictionary
//! ([`Snapshot::freeze`], [`Snapshot::from_parts`]), and published by a
//! [`ShardedDictionary`] — and every one must answer every random query
//! exactly like the single-threaded [`EfdDictionary`] oracle (modulo
//! [`Recognition::normalized`] ordering, the engine API's answer
//! contract), through the full vote, the verdict-only answer and the
//! best-app fast path. Two corpora aim at the store's two lookups: one
//! packs adjacent keys onto one metric and node so the hash index forms
//! probe chains, and one mixes keys of one app (voted from the index
//! slot) with keys whose labels span several apps (voted from the
//! postings). Hand-laid, checksum-valid postings layouts (reordered,
//! shared and nested lists) check that the load-time interning of the
//! postings answers like `binfmt::read_dictionary` of the same bytes.

use efd_core::engine::Answer;
use efd_core::{binfmt, EfdDictionary, LabeledObservation, Query, Recognition, RoundingDepth};
use efd_serve::{Recognize, ShardedDictionary, Snapshot, VoteScratch};
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
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

/// Whether some key of `oracle` carries two or more labels of one app,
/// and whether some key carries labels of two or more apps.
fn key_shapes(oracle: &EfdDictionary) -> (bool, bool) {
    let parts = oracle.to_parts();
    let (mut repeated, mut several) = (false, false);
    for (_, ids) in &parts.entries {
        let mut apps: Vec<_> = ids.iter().map(|id| parts.label_app[id.index()]).collect();
        let n = apps.len();
        apps.sort_unstable_by_key(|a| a.index());
        apps.dedup();
        repeated |= apps.len() < n;
        several |= apps.len() > 1;
    }
    (repeated, several)
}

/// The store built every way there is, each named for failure messages.
fn every_form(oracle: &EfdDictionary) -> Vec<(&'static str, Snapshot)> {
    let catalog = small_catalog();
    let bytes = binfmt::write(&oracle.to_parts(), &catalog);
    let efdb = binfmt::read(&bytes).unwrap();
    vec![
        ("load", Snapshot::load(bytes, &catalog).unwrap()),
        (
            "from_efdb",
            Snapshot::from_efdb(&efdb, &catalog, 8).unwrap(),
        ),
        ("freeze", Snapshot::freeze(oracle)),
        ("from_parts", Snapshot::from_parts(oracle.to_parts())),
        (
            "sharded",
            ShardedDictionary::from_parts(oracle.to_parts(), 1).snapshot(),
        ),
    ]
}

/// Require every form to answer every query like the oracle, through
/// the full vote, the verdict-only answer and the best-app fast path.
/// Returns how many queries matched at least one key.
fn assert_agree(what: &str, oracle: &EfdDictionary, queries: &[Query]) -> usize {
    let forms = every_form(oracle);
    let mut scratch = VoteScratch::default();
    let mut answer = Answer::default();
    let mut matched = 0usize;
    for (i, q) in queries.iter().enumerate() {
        let expected: Recognition = oracle.recognize(q).normalized();
        for (name, snap) in &forms {
            assert_eq!(snap.len(), oracle.len(), "{what}: {name} key count");
            let got = snap.recognize_into(q, &mut scratch);
            assert_eq!(got, expected, "{what}, query #{i}: {name}");
            snap.answer_into(q, &mut scratch, &mut answer);
            assert_eq!(
                answer,
                Answer::from(&expected),
                "{what}, query #{i}: {name} answer"
            );
            assert_eq!(
                answer.apps().next(),
                expected.best(),
                "{what}, query #{i}: {name} scored verdict"
            );
        }
        matched += usize::from(expected.matched_points > 0);
    }
    matched
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
            key_shapes(&oracle).0,
            "seed {seed:#x}: no key holds several labels of one app"
        );
        let queries = random_queries(24, metrics, 1000, !seed);
        let matched = assert_agree(&format!("seed {seed:#x}"), &oracle, &queries);
        assert!(
            matched > 100,
            "seed {seed:#x}: degenerate query mix ({matched} hits)"
        );
    }
}

#[test]
fn adjacent_keys_on_one_metric_and_node_resolve_through_probe_chains() {
    // 4096 keys that differ only in the last bits of their mean: one
    // metric, one node, one window, consecutive rounded means. At
    // depth 6 every integer mean in 100000..104096 is its own key.
    let mut oracle = EfdDictionary::new(RoundingDepth::new(6));
    for i in 0..4096 {
        let label = AppLabel::new(format!("app{}", i % 7), ["X", "Y"][i % 2]);
        oracle.insert_raw(
            MetricId(0),
            NodeId(0),
            Interval::PAPER_DEFAULT,
            100_000.0 + i as f64,
            &label,
        );
    }
    assert_eq!(oracle.len(), 4096);
    let mut rng = SplitMix64::new(0xC0111DE);
    let queries: Vec<Query> = (0..600)
        .map(|_| {
            // Runs of adjacent means, some past either end of the keys.
            let at = (rng.next_u64() % 4400) as f64 - 150.0;
            let means: Vec<f64> = (0..8).map(|j| 100_000.0 + at + j as f64 + 0.25).collect();
            Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &means)
        })
        .collect();
    let matched = assert_agree("adjacent keys", &oracle, &queries);
    assert!(matched > 500, "degenerate query mix ({matched} hits)");
}

/// `keys` keys on metric 1, 16 nodes and `keys / 16` levels ten apart,
/// each with a random label pattern over apps a0..a3: one label, one
/// app under several inputs (inline app), several apps, and several
/// apps with one of them repeated (postings walk with per-point dedup).
fn app_patterns(keys: usize, rng: &mut SplitMix64) -> EfdDictionary {
    let patterns: [&[(usize, &str)]; 5] = [
        &[(0, "X")],
        &[(1, "X"), (1, "Y"), (1, "Z")],
        &[(2, "X"), (3, "X")],
        &[(0, "Y"), (2, "Y"), (0, "Z")],
        &[(3, "Y"), (3, "Z"), (1, "Y"), (2, "Z")],
    ];
    let mut dict = EfdDictionary::new(RoundingDepth::new(3));
    for key in 0..keys {
        let (node, mean) = (NodeId((key % 16) as u16), 1000.0 + 10.0 * (key / 16) as f64);
        let pattern = patterns[(rng.next_u64() % patterns.len() as u64) as usize];
        for &(app, input) in pattern {
            let label = AppLabel::new(format!("a{app}"), input);
            dict.insert_raw(MetricId(1), node, Interval::PAPER_DEFAULT, mean, &label);
        }
    }
    dict
}

/// Random 16-point queries around the levels of [`app_patterns`].
fn pattern_queries(count: usize, rng: &mut SplitMix64) -> Vec<Query> {
    (0..count)
        .map(|_| {
            let level = (rng.next_u64() % 28) as f64;
            let means: Vec<f64> = (0..16)
                .map(|_| 1000.0 + 10.0 * level + (rng.next_f64() - 0.5) * 30.0)
                .collect();
            Query::from_node_means(MetricId(1), Interval::PAPER_DEFAULT, &means)
        })
        .collect()
}

#[test]
fn keys_of_one_app_and_of_several_apps_both_vote_like_the_oracle() {
    let mut rng = SplitMix64::new(0xA995);
    let oracle = app_patterns(400, &mut rng);
    assert_eq!(key_shapes(&oracle), (true, true));
    let queries = pattern_queries(800, &mut rng);
    let matched = assert_agree("app patterns", &oracle, &queries);
    assert!(matched > 600, "degenerate query mix ({matched} hits)");
}

/// `file` (canonical EFDB bytes) with its postings section replaced by
/// `blob`, key record `i` pointing at `offsets[i]`, and the checksum
/// trailer moved and re-hashed: bytes `binfmt::check` accepts, since it
/// checks every list's bounds and ids but not how the blob is laid out.
fn with_postings(file: &[u8], offsets: &[u32], blob: &[u8]) -> Vec<u8> {
    let view = binfmt::check(file).unwrap();
    let (keys, postings) = (view.key_records_range(), view.postings_blob_range());
    let mut out = file[..postings.start - 4].to_vec();
    let records = out[keys].chunks_exact_mut(binfmt::KEY_RECORD_LEN);
    assert_eq!(records.len(), offsets.len());
    for (r, off) in records.zip(offsets) {
        r[22..26].copy_from_slice(&off.to_le_bytes());
    }
    out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
    out.extend_from_slice(blob);
    // The header's checksum_off, then the trailer.
    let checksum_off = out.len() as u32;
    out[44..48].copy_from_slice(&checksum_off.to_le_bytes());
    let sum = efd_util::hash::hash_bytes(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

#[test]
fn a_non_canonical_postings_layout_answers_like_the_file() {
    let catalog = small_catalog();
    let mut rng = SplitMix64::new(0x1A70);
    let canonical = app_patterns(160, &mut rng);
    let file = binfmt::write(&canonical.to_parts(), &catalog);
    let view = binfmt::check(&file).unwrap();
    let lists: Vec<Vec<u32>> = view
        .keys()
        .iter()
        .map(|r| view.postings().label_ids(r.postings_off).collect())
        .collect();
    let words = |ids: &[u32]| -> Vec<u8> { ids.iter().flat_map(|id| id.to_le_bytes()).collect() };
    // The lists in reverse key order, and key 1 pointing at key 0's.
    let mut reversed = Vec::new();
    let mut offsets = vec![0; lists.len()];
    for (off, ids) in offsets.iter_mut().zip(&lists).rev() {
        *off = reversed.len() as u32;
        reversed.extend(words(&[ids.len() as u32]));
        reversed.extend(words(ids));
    }
    offsets[1] = offsets[0];
    // Lists inside one another: 3 2 1 0 holds [2, 1, 0] at byte 0,
    // [1, 0] at 4 and [0] at 8, which copied apart take 36 bytes, more
    // than the blob's 16.
    let nested = words(&[3, 2, 1, 0]);
    let inside: Vec<u32> = (0..lists.len()).map(|i| [8, 8, 4, 0][i % 4]).collect();
    let index_len = 4 * (2 * canonical.len()).next_power_of_two();
    let queries = pattern_queries(300, &mut rng);
    for (layout, bytes, interned) in [
        (
            "reversed, shared",
            with_postings(&file, &offsets, &reversed),
            true,
        ),
        ("nested", with_postings(&file, &inside, &nested), false),
    ] {
        let oracle = binfmt::read_dictionary(&bytes, &catalog).unwrap();
        assert_eq!(oracle.len(), canonical.len(), "{layout}");
        let file_len = bytes.len();
        let snap = Snapshot::load(bytes, &catalog).unwrap();
        // Interned, the buffer is shorter than the file; nested lists
        // are served as the file lays them out.
        let held = snap.byte_len() - index_len;
        assert_eq!(
            held < file_len,
            interned,
            "{layout}: {held} of {file_len} bytes held"
        );
        let mut scratch = VoteScratch::default();
        let mut answer = Answer::default();
        for (i, q) in queries.iter().enumerate() {
            let expected = oracle.recognize(q).normalized();
            assert_eq!(
                snap.recognize_into(q, &mut scratch),
                expected,
                "{layout}, query #{i}"
            );
            snap.answer_into(q, &mut scratch, &mut answer);
            assert_eq!(answer, Answer::from(&expected), "{layout}, query #{i}");
        }
        let thawed = binfmt::write(&snap.to_dictionary().to_parts(), &catalog);
        assert!(
            thawed == binfmt::write(&oracle.to_parts(), &catalog),
            "{layout}: thaws to another dictionary"
        );
    }
}

#[test]
fn every_form_thaws_back_to_the_same_10k_key_dictionary() {
    let catalog = small_catalog();
    let mut oracle = EfdDictionary::new(RoundingDepth::new(6));
    for i in 0..10_000usize {
        let label = AppLabel::new(format!("app{:02}", i % 40), ["X", "Y", "Z"][i % 3]);
        let metric = MetricId((i % catalog.len()) as u32);
        let node = NodeId((i % 64) as u16);
        oracle.insert_raw(
            metric,
            node,
            Interval::PAPER_DEFAULT,
            100_000.0 + i as f64,
            &label,
        );
    }
    assert_eq!(oracle.len(), 10_000);
    let bytes = binfmt::write(&oracle.to_parts(), &catalog);
    for (name, snap) in every_form(&oracle) {
        let back = binfmt::write(&snap.to_dictionary().to_parts(), &catalog);
        assert!(back == bytes, "{name}: round trip changed the bytes");
    }
}

#[test]
fn every_form_of_an_empty_dictionary_answers_unknown() {
    let catalog = small_catalog();
    let oracle = EfdDictionary::new(RoundingDepth::new(2));
    let forms = every_form(&oracle);
    assert!(forms.iter().all(|(_, snap)| snap.is_empty()));
    let mut scratch = VoteScratch::default();
    let mut answer = Answer::default();
    for q in random_queries(4, catalog.len(), 50, 7) {
        let expected = oracle.recognize(&q).normalized();
        for (name, snap) in &forms {
            assert_eq!(snap.recognize_into(&q, &mut scratch), expected, "{name}");
            snap.answer_into(&q, &mut scratch, &mut answer);
            assert_eq!(answer.apps().next(), None, "{name}");
        }
    }
}
