//! Persistence: JSON text parse vs EFDB binary load, across dictionary
//! sizes.
//!
//! The EFDB acceptance claim, quantified: build synthetic dictionaries
//! with 1k / 10k / 100k keys, dump each as pretty JSON
//! ([`efd_core::serialize`]) and as EFDB ([`efd_core::binfmt`]), and
//! time the *load* paths a serving cold-start would take:
//!
//! * `json_parse`   — [`efd_core::serialize::from_json`] (text parse +
//!   re-insert, today's path);
//! * `efdb_dict`    — [`efd_core::binfmt::read_dictionary`] (validated
//!   binary decode + thaw into an [`efd_core::EfdDictionary`]);
//! * `efdb_load`    — [`efd_serve::Snapshot::load`] (the daemon's cold
//!   start: check the buffer once, keep it, and build the hash index
//!   over its key records; nothing decoded);
//! * `efdb_check`   — [`efd_core::binfmt::check`] alone, the first step
//!   of `efdb_load`: the rest of `efdb_load` is the index build.
//!
//! Acceptance: EFDB load ≥ 5× faster than JSON parse on the 10k-key
//! dictionary, and every restored form answers a 1 000-query batch
//! identically to the original.
//!
//! A second table times the durability path ([`efd_core::wal`]): the
//! per-record cost of a write-ahead `append` under each [`SyncPolicy`]
//! (`always` pays an fsync per record, `batch` amortizes one per 32,
//! `none` leaves syncing to the OS), and the cost of `recover` — replaying
//! the whole log back into a dictionary, the restart path of
//! `efd serve --wal`.
//!
//! Knobs: `EFD_PERSIST_REPS` (default 5, best-of-N wall clock),
//! `EFD_PERSIST_MAX` (default 100000, trims the size sweep),
//! `EFD_PERSIST_WAL` (default 2000, WAL records per append run).

use std::time::Instant;

use criterion::black_box;
use efd_core::observation::{LabeledObservation, ObsPoint, Query};
use efd_core::wal::{self, LearnRecord, SyncPolicy, WalDir, WalOptions, WalRecord};
use efd_core::{binfmt, serialize, EfdDictionary, RoundingDepth};
use efd_serve::{Recognize, Snapshot};
use efd_telemetry::catalog::taxonomist_catalog;
use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
use efd_util::{SplitMix64, TextTable};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

fn time_best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Key `i`'s mean: unique at rounding depth 6, so a dictionary of `keys`
/// inserts holds exactly `keys` entries.
fn key_mean(i: usize) -> f64 {
    100_000.0 + i as f64
}

/// Synthetic dictionary with exactly `keys` entries spread over 32
/// metrics × 64 nodes, 50 apps × 4 input sizes.
fn build_dict(keys: usize, metrics: &[MetricId]) -> EfdDictionary {
    const INPUTS: [&str; 4] = ["X", "Y", "Z", "L"];
    let mut dict = EfdDictionary::new(RoundingDepth::new(6));
    for i in 0..keys {
        let label = AppLabel::new(format!("app{:03}", i % 50), INPUTS[(i / 50) % 4]);
        dict.insert_raw(
            metrics[i % metrics.len()],
            NodeId(((i / metrics.len()) % 64) as u16),
            Interval::PAPER_DEFAULT,
            key_mean(i),
            &label,
        );
    }
    dict
}

/// 8-point queries over random keys; ~10% of the indices fall past the
/// learned range and miss (the Unknown path must round-trip too).
fn query_batch(n: usize, keys: usize, metrics: &[MetricId]) -> Vec<Query> {
    let mut rng = SplitMix64::new(0xEFDB);
    (0..n)
        .map(|_| {
            let points = (0..8)
                .map(|_| {
                    let i = (rng.next_u64() as usize) % (keys + keys / 10);
                    ObsPoint {
                        metric: metrics[i % metrics.len()],
                        node: NodeId(((i / metrics.len()) % 64) as u16),
                        interval: Interval::PAPER_DEFAULT,
                        mean: key_mean(i),
                    }
                })
                .collect();
            Query { points }
        })
        .collect()
}

fn main() {
    let reps = env_usize("EFD_PERSIST_REPS", 5);
    let max_keys = env_usize("EFD_PERSIST_MAX", 100_000);

    let catalog = taxonomist_catalog();
    let metrics: Vec<MetricId> = catalog.ids().take(32).collect();

    let mut table = TextTable::new(vec![
        "keys",
        "json bytes",
        "efdb bytes",
        "json parse ms",
        "efdb dict ms",
        "efdb load ms",
        "efdb check ms",
        "load speedup",
    ])
    .with_title("Persistence: JSON parse vs EFDB load (best-of-N)".to_string());

    let mut speedup_at_10k = 0.0f64;
    let mut equivalence_ok = true;
    for keys in [1_000usize, 10_000, 100_000] {
        if keys > max_keys {
            continue;
        }
        let dict = build_dict(keys, &metrics);
        assert_eq!(dict.len(), keys, "synthetic keys must be distinct");

        let json = serialize::to_json(&dict, &catalog);
        let bytes = binfmt::write_dictionary(&dict, &catalog);

        let t_json = time_best_of(reps, || {
            black_box(serialize::from_json(&json, &catalog).unwrap().len());
        });
        let t_efdb = time_best_of(reps, || {
            black_box(binfmt::read_dictionary(&bytes, &catalog).unwrap().len());
        });
        // Each rep loads its own copy of the file, as a cold start reads
        // one; the copy is made outside the timed region.
        let mut copies: Vec<Vec<u8>> = (0..reps.max(1)).map(|_| bytes.clone()).collect();
        let t_load = time_best_of(reps, || {
            let copy = copies.pop().expect("one copy per rep");
            black_box(Snapshot::load(copy, &catalog).unwrap().len());
        });
        let t_check = time_best_of(reps, || {
            black_box(binfmt::check(&bytes).unwrap().len());
        });

        let speedup = t_json / t_efdb;
        if keys == 10_000 {
            speedup_at_10k = speedup;
        }

        // Round-trip equivalence on a 1k-query batch: JSON-restored,
        // EFDB-restored, and the served snapshot all answer like the
        // original.
        let via_json = serialize::from_json(&json, &catalog).unwrap();
        let via_efdb = binfmt::read_dictionary(&bytes, &catalog).unwrap();
        let snap = Snapshot::load(bytes.clone(), &catalog).unwrap();
        for q in query_batch(1_000, keys, &metrics) {
            let expect = dict.recognize(&q);
            equivalence_ok &= via_json.recognize(&q) == expect;
            equivalence_ok &= via_efdb.recognize(&q) == expect;
            equivalence_ok &= snap.recognize(&q) == expect.normalized();
        }

        table.add_row(vec![
            keys.to_string(),
            json.len().to_string(),
            bytes.len().to_string(),
            format!("{:.2}", t_json * 1e3),
            format!("{:.2}", t_efdb * 1e3),
            format!("{:.2}", t_load * 1e3),
            format!("{:.2}", t_check * 1e3),
            format!("{speedup:.1}x"),
        ]);
    }
    println!("{}", table.render());

    // ---- Durability: WAL append + recovery replay -------------------
    let wal_records = env_usize("EFD_PERSIST_WAL", 2_000);
    let stream: Vec<LabeledObservation> = (0..wal_records)
        .map(|i| LabeledObservation {
            label: AppLabel::new(format!("app{:03}", i % 50), "X"),
            query: Query {
                points: (0..4)
                    .map(|n| ObsPoint {
                        metric: metrics[0],
                        node: NodeId(n as u16),
                        interval: Interval::PAPER_DEFAULT,
                        mean: key_mean(i * 4 + n),
                    })
                    .collect(),
            },
        })
        .collect();
    let records: Vec<WalRecord> = stream
        .iter()
        .map(|o| WalRecord::Learn(LearnRecord::from_observation(o, &catalog)))
        .collect();

    let mut wal_table = TextTable::new(vec![
        "sync policy",
        "records",
        "append ms",
        "us/record",
        "recover ms",
        "replayed",
    ])
    .with_title("Durability: WAL append + recovery replay (best-of-N)".to_string());

    let mut replay_ok = true;
    for (name, sync) in [
        ("always", SyncPolicy::Always),
        ("batch", SyncPolicy::EveryN(32)),
        ("none", SyncPolicy::Never),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "efd-persist-wal-{name}-{}",
            std::process::id()
        ));
        let options = WalOptions {
            sync,
            // Keep the whole run in one log: this leg times append +
            // replay, not segment freezing.
            segment_bytes: u64::MAX,
        };
        let t_append = time_best_of(reps, || {
            let _ = std::fs::remove_dir_all(&dir);
            let (mut w, _) =
                WalDir::open(&dir, RoundingDepth::new(6), &catalog, options).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
            w.sync().unwrap();
        });
        let t_recover = time_best_of(reps, || {
            black_box(wal::recover(&dir, &catalog).unwrap().dictionary.len());
        });
        let recovery = wal::recover(&dir, &catalog).unwrap();
        replay_ok &= recovery.replayed == wal_records && recovery.tail_fault.is_none();
        wal_table.add_row(vec![
            name.to_string(),
            wal_records.to_string(),
            format!("{:.2}", t_append * 1e3),
            format!("{:.2}", t_append * 1e6 / wal_records as f64),
            format!("{:.2}", t_recover * 1e3),
            recovery.replayed.to_string(),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("{}", wal_table.render());

    println!("\nacceptance:");
    println!(
        "  EFDB load vs JSON parse, 10k keys : {speedup_at_10k:.1}x (threshold 5x) — {}",
        if speedup_at_10k >= 5.0 { "PASS" } else { "MISS" }
    );
    println!(
        "  1k-query round-trip equivalence   : {}",
        if equivalence_ok { "PASS" } else { "FAIL" }
    );
    println!(
        "  WAL full-stream recovery replay   : {}",
        if replay_ok { "PASS" } else { "FAIL" }
    );
}
