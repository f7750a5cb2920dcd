//! The fault-injection recovery matrix: the proof behind the WAL's
//! durability contract.
//!
//! The contract under test, for every injected fault: **recovery yields
//! exactly the prefix of operations that were durably acknowledged, and
//! post-recovery recognition is oracle-equivalent to a dictionary that
//! learned only that prefix.** Faults are injected three ways:
//!
//! * byte-level sweeps over a real log image (every truncation length,
//!   bit flips at every offset) — the disk's view;
//! * [`efd_core::wal::fault::FaultyWriter`] — the writer's view
//!   (silent truncation, short writes, in-flight corruption);
//! * filesystem-level scenarios against [`DurableDictionary`] — crash
//!   and reopen, eviction replay, stale segments from a crash between
//!   segment write and log reset.
//!
//! Oracle equivalence is conformance-suite style: compare against a
//! single-threaded [`EfdDictionary`] that applied the same operation
//! prefix, modulo [`Recognition::normalized`] ordering.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

use efd_core::engine::Recognize;
use efd_core::wal::fault::{Fault, FaultyWriter};
use efd_core::wal::{
    self, encode_log, frame_record, read_log, LearnRecord, SyncPolicy, WalDir, WalError,
    WalOptions, WalRecord, WAL_HEADER_LEN,
};
use efd_core::{binfmt, EfdDictionary, LabeledObservation, Query, Recognition, RoundingDepth};
use efd_serve::DurableDictionary;
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::{AppLabel, Interval, MetricId};

const DEPTH: u8 = 2;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("efd-durability-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn obs(app: &str, input: &str, means: &[f64]) -> LabeledObservation {
    LabeledObservation {
        label: AppLabel::new(app, input),
        query: Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, means),
    }
}

/// A deterministic operation stream: 8 learns across 5 applications,
/// then a forget, then 2 more learns — enough structure that any
/// off-by-one in prefix recovery flips an answer.
fn op_stream() -> Vec<LabeledObservation> {
    vec![
        obs("ft", "X", &[6020.0, 6020.0, 6020.0, 6020.0]),
        obs("ft", "Y", &[6023.0, 6019.0, 6021.0, 6018.0]),
        obs("sp", "X", &[7617.0, 7520.0, 7520.0, 7121.0]),
        obs("bt", "X", &[7638.0, 7540.0, 7540.0, 7140.0]),
        obs("miniAMR", "X", &[7820.0; 4]),
        obs("miniAMR", "Z", &[10980.0; 4]),
        obs("cg", "X", &[8110.0, 8105.0, 8120.0, 8099.0]),
        obs("cg", "Y", &[9320.0, 9310.0, 9305.0, 9331.0]),
        obs("lu", "X", &[5510.0, 5505.0, 5520.0, 5516.0]),
        obs("lu", "Y", &[4420.0, 4425.0, 4410.0, 4431.0]),
    ]
}

fn probe_queries() -> Vec<Query> {
    let w = Interval::PAPER_DEFAULT;
    vec![
        Query::from_node_means(MetricId(0), w, &[6031.0, 5988.0, 6007.0, 6044.0]),
        Query::from_node_means(MetricId(0), w, &[7601.0, 7512.0, 7533.0, 7098.0]),
        Query::from_node_means(MetricId(0), w, &[10951.0, 11020.0, 10990.0, 11043.0]),
        Query::from_node_means(MetricId(0), w, &[8101.0, 8099.0, 8123.0, 8100.0]),
        Query::from_node_means(MetricId(0), w, &[5503.0, 5512.0, 5521.0, 5508.0]),
        Query::from_node_means(MetricId(0), w, &[4417.0, 4430.0, 4402.0, 4433.0]),
        Query::from_node_means(MetricId(0), w, &[1.0, 2.0, 3.0, 4.0]),
    ]
}

/// The oracle for a given acknowledged prefix length.
fn oracle_for_prefix(stream: &[LabeledObservation], n: usize) -> EfdDictionary {
    let mut d = EfdDictionary::new(RoundingDepth::new(DEPTH));
    for o in &stream[..n] {
        d.learn(o);
    }
    d
}

fn assert_oracle_equivalent(got: &EfdDictionary, oracle: &EfdDictionary, ctx: &str) {
    assert_eq!(got.len(), oracle.len(), "{ctx}: key count diverged");
    for (i, q) in probe_queries().iter().enumerate() {
        assert_eq!(
            got.recognize(q).normalized(),
            oracle.recognize(q).normalized(),
            "{ctx}: probe #{i} diverged"
        );
    }
}

fn learn_records(stream: &[LabeledObservation], catalog: &MetricCatalog) -> Vec<WalRecord> {
    stream
        .iter()
        .map(|o| WalRecord::Learn(LearnRecord::from_observation(o, catalog)))
        .collect()
}

/// Replay a log image (as `read_log` sees it) into a dictionary,
/// returning the record count that survived.
fn replay_image(bytes: &[u8], catalog: &MetricCatalog) -> (EfdDictionary, usize, Option<WalError>) {
    let replay = read_log(bytes).expect("header intact");
    let mut dict = EfdDictionary::new(replay.depth);
    for (i, rec) in replay.records.iter().enumerate() {
        wal::apply_record(&mut dict, rec, catalog, i).unwrap();
    }
    let n = replay.records.len();
    (dict, n, replay.fault)
}

#[test]
fn truncation_sweep_recovers_exactly_the_durable_prefix() {
    // Sweep EVERY byte length of the log image. For each cut, the
    // records whose frames fully fit are the "durably acknowledged"
    // prefix; recovery must reproduce exactly that oracle.
    let catalog = small_catalog();
    let stream = op_stream();
    let records = learn_records(&stream, &catalog);
    let image = encode_log(RoundingDepth::new(DEPTH), 0, &records);

    // Frame boundaries: boundary[i] = offset where record i's frame starts.
    let mut bounds = vec![WAL_HEADER_LEN];
    for r in &records {
        bounds.push(bounds.last().unwrap() + frame_record(r).len());
    }
    assert_eq!(*bounds.last().unwrap(), image.len());

    for cut in WAL_HEADER_LEN..=image.len() {
        let (dict, n, fault) = replay_image(&image[..cut], &catalog);
        let expect_n = bounds
            .iter()
            .filter(|&&b| b > WAL_HEADER_LEN && b <= cut)
            .count();
        assert_eq!(n, expect_n, "cut at {cut}");
        assert_eq!(
            fault.is_none(),
            bounds.contains(&cut),
            "cut at {cut}: fault iff mid-frame"
        );
        assert_oracle_equivalent(
            &dict,
            &oracle_for_prefix(&stream, n),
            &format!("truncation at byte {cut}"),
        );
    }
}

#[test]
fn bit_flip_sweep_never_recovers_a_wrong_dictionary() {
    // Flip one bit at every byte offset in the record region. The
    // recovered dictionary must always equal the oracle of SOME prefix —
    // the one up to the first record whose bytes were damaged — never a
    // dictionary with a corrupted mean or label smuggled in.
    let catalog = small_catalog();
    let stream = op_stream();
    let records = learn_records(&stream, &catalog);
    let image = encode_log(RoundingDepth::new(DEPTH), 0, &records);
    let mut bounds = vec![WAL_HEADER_LEN];
    for r in &records {
        bounds.push(bounds.last().unwrap() + frame_record(r).len());
    }

    for at in WAL_HEADER_LEN..image.len() {
        let mut corrupt = image.clone();
        corrupt[at] ^= 0x10;
        // The damaged record is the one whose frame contains `at`.
        let damaged = bounds.iter().filter(|&&b| b <= at).count() - 1;
        let (dict, n, fault) = replay_image(&corrupt, &catalog);
        // A flip in a length word can masquerade as a longer/shorter
        // frame, so the scan may stop at `damaged` with any tail fault —
        // but it must never sail past it with the corruption undetected,
        // and everything before the damaged record must survive.
        assert!(
            n <= damaged,
            "flip at {at}: recovered {n} records past damaged #{damaged}"
        );
        assert!(
            fault.is_some(),
            "flip at {at}: corruption skipped without a reported fault"
        );
        assert_oracle_equivalent(
            &dict,
            &oracle_for_prefix(&stream, n),
            &format!("bit flip at byte {at}"),
        );
    }
}

#[test]
fn faulty_writer_truncation_and_short_writes_keep_the_acked_prefix() {
    let catalog = small_catalog();
    let stream = op_stream();
    let records = learn_records(&stream, &catalog);
    let image = encode_log(RoundingDepth::new(DEPTH), 0, &records);

    // Silent truncation (power loss with data in the page cache): the
    // writer believes everything landed; only a prefix did. Sweep the
    // surviving length across the whole image.
    for keep in WAL_HEADER_LEN..=image.len() {
        let mut w = FaultyWriter::new(Fault::TruncateAt(keep));
        w.write_all(&encode_log(RoundingDepth::new(DEPTH), 0, &[]))
            .unwrap();
        for r in &records {
            w.write_all(&frame_record(r)).unwrap(); // always "succeeds"
        }
        let survived = w.into_bytes();
        assert_eq!(survived.len(), keep);
        let (dict, n, _) = replay_image(&survived, &catalog);
        assert_oracle_equivalent(
            &dict,
            &oracle_for_prefix(&stream, n),
            &format!("silent truncation at {keep}"),
        );
    }

    // Short write (disk full): the writer SEES the error, so records
    // before the failure are acknowledged and must all survive; the
    // failed record was never acknowledged and may be torn away.
    for keep in WAL_HEADER_LEN..=image.len() {
        let mut w = FaultyWriter::new(Fault::ShortWriteAt(keep));
        w.write_all(&encode_log(RoundingDepth::new(DEPTH), 0, &[]))
            .unwrap();
        let mut acked = 0usize;
        for r in &records {
            match w.write_all(&frame_record(r)) {
                Ok(()) => acked += 1,
                Err(_) => break,
            }
        }
        let survived = w.into_bytes();
        let (dict, n, _) = replay_image(&survived, &catalog);
        assert!(
            n >= acked,
            "short write at {keep}: lost acknowledged record ({n} < {acked})"
        );
        assert_oracle_equivalent(
            &dict,
            &oracle_for_prefix(&stream, n),
            &format!("short write at {keep}"),
        );
    }

    // In-flight bit corruption: one byte flipped while passing through
    // the writer — detected by the record CRC on replay.
    let flip_at = WAL_HEADER_LEN + frame_record(&records[0]).len() + 15;
    let mut w = FaultyWriter::new(Fault::BitFlipAt {
        offset: flip_at,
        mask: 0x08,
    });
    w.write_all(&image).unwrap();
    let (dict, n, fault) = replay_image(&w.into_bytes(), &catalog);
    assert_eq!(n, 1, "corruption in record #1 leaves only record #0");
    assert!(fault.is_some());
    assert_oracle_equivalent(&dict, &oracle_for_prefix(&stream, 1), "in-flight bit flip");
}

#[test]
fn crash_reopen_cycles_preserve_every_acknowledged_operation() {
    // Learn through a DurableDictionary under SyncPolicy::Always,
    // dropping it cold (no shutdown path) at every step count, and prove
    // the reopened service answers as the prefix oracle.
    let catalog = small_catalog();
    let stream = op_stream();
    let depth = RoundingDepth::new(DEPTH);
    let options = WalOptions {
        sync: SyncPolicy::Always,
        ..Default::default()
    };

    for crash_after in 0..=stream.len() {
        let dir = tmp_dir(&format!("crash{crash_after}"));
        {
            let (served, _) = DurableDictionary::open(&dir, depth, &catalog, options).unwrap();
            for o in &stream[..crash_after] {
                served.learn(o).unwrap();
            }
            // `served` dropped here without sync/freeze: the "crash".
        }
        let (served, recovery) = DurableDictionary::open(&dir, depth, &catalog, options).unwrap();
        assert_eq!(recovery.replayed, crash_after);
        assert!(recovery.tail_fault.is_none());
        let oracle = oracle_for_prefix(&stream, crash_after);
        let got = served.dictionary();
        assert_eq!(got.len(), oracle.len());
        for (i, q) in probe_queries().iter().enumerate() {
            assert_eq!(
                got.recognize(q),
                oracle.recognize(q).normalized(),
                "crash after {crash_after}: probe #{i}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn eviction_composes_with_replay_and_does_not_resurrect() {
    // The maintenance satellite: aging/eviction through the durable path
    // must survive recovery — an evicted application stays evicted, and
    // later learns still land.
    let catalog = small_catalog();
    let stream = op_stream();
    let depth = RoundingDepth::new(DEPTH);
    let options = WalOptions {
        sync: SyncPolicy::Always,
        ..Default::default()
    };
    let dir = tmp_dir("evict");

    {
        let (served, _) = DurableDictionary::open(&dir, depth, &catalog, options).unwrap();
        for o in &stream[..6] {
            served.learn(o).unwrap();
        }
        assert!(served.forget_app("miniAMR").unwrap() > 0);
        // ft/Y's keys are all shared with ft/X at this depth, so the
        // label strip empties no key — the return counts dropped keys.
        assert_eq!(served.forget_label("ft", "Y").unwrap(), 0);
        // Freeze mid-life so part of the history lives in a segment and
        // part in the log tail — eviction must survive BOTH replay paths.
        served.freeze().unwrap();
        for o in &stream[6..] {
            served.learn(o).unwrap();
        }
        served.forget_app("cg").unwrap();
    }

    let (served, recovery) = DurableDictionary::open(&dir, depth, &catalog, options).unwrap();
    assert_eq!(recovery.segments, 1);

    // Oracle: same operations on the single-threaded maintenance path.
    let mut oracle = oracle_for_prefix(&stream, 6);
    efd_core::maintenance::forget_app(&mut oracle, "miniAMR");
    efd_core::maintenance::forget_label(&mut oracle, "ft", "Y");
    for o in &stream[6..] {
        oracle.learn(o);
    }
    efd_core::maintenance::forget_app(&mut oracle, "cg");

    let got = served.dictionary();
    assert_eq!(got.len(), oracle.len());
    let w = Interval::PAPER_DEFAULT;
    for (means, expect) in [
        ([7821.0, 7819.0, 7820.0, 7822.0], None), // miniAMR evicted
        ([8110.0, 8105.0, 8120.0, 8099.0], None), // cg evicted post-freeze
        ([5503.0, 5512.0, 5521.0, 5508.0], Some("lu")), // learned post-freeze
        ([6020.0, 6020.0, 6020.0, 6020.0], Some("ft")), // ft X survives ft/Y eviction
    ] {
        let q = Query::from_node_means(MetricId(0), w, &means);
        assert_eq!(got.recognize(&q).best(), expect, "query {means:?}");
        assert_eq!(
            oracle.recognize(&q).best(),
            expect,
            "oracle disagrees for {means:?} — test premise broken"
        );
    }
    for (i, q) in probe_queries().iter().enumerate() {
        let got_r: Recognition = got.recognize(q);
        assert_eq!(got_r, oracle.recognize(q).normalized(), "probe #{i}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_segment_from_crash_between_freeze_and_log_reset_is_safe() {
    // Simulate the freeze crash window: the segment file was renamed
    // into place, but the process died before the log was reset — the
    // log still holds every operation the segment captured.
    let catalog = small_catalog();
    let stream = op_stream();
    let depth = RoundingDepth::new(DEPTH);
    let dir = tmp_dir("stale");
    let records = learn_records(&stream, &catalog);

    let (mut wal, _) = WalDir::open(&dir, depth, &catalog, WalOptions::default()).unwrap();
    for r in &records {
        wal.append(r).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);

    // Hand-write the stale segment exactly as freeze would, WITHOUT
    // touching the log (header still says base_segments = 0).
    let oracle = oracle_for_prefix(&stream, stream.len());
    fs::write(
        dir.join("segment-000001.efdb"),
        binfmt::write_dictionary(&oracle, &catalog),
    )
    .unwrap();

    let recovery = wal::recover(&dir, &catalog).unwrap();
    assert_eq!(recovery.segments, 1, "stale segment is seen");
    assert_eq!(recovery.replayed, records.len(), "log still replays");
    assert_oracle_equivalent(&recovery.dictionary, &oracle, "stale segment");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn on_disk_corruption_is_truncated_once_and_heals_on_append() {
    // Flip a byte of the log on disk; reopening truncates to the valid
    // prefix (reporting the fault), and the NEXT session appends cleanly
    // from the truncation point.
    let catalog = small_catalog();
    let stream = op_stream();
    let depth = RoundingDepth::new(DEPTH);
    let options = WalOptions {
        sync: SyncPolicy::Always,
        ..Default::default()
    };
    let dir = tmp_dir("heal");

    {
        let (served, _) = DurableDictionary::open(&dir, depth, &catalog, options).unwrap();
        for o in &stream[..6] {
            served.learn(o).unwrap();
        }
    }
    // Corrupt a byte inside record #4's region.
    let log_path = dir.join(wal::LOG_FILE);
    let mut bytes = fs::read(&log_path).unwrap();
    let replay = read_log(&bytes).unwrap();
    assert_eq!(replay.records.len(), 6);
    let mut bound = WAL_HEADER_LEN;
    for r in &replay.records[..4] {
        bound += frame_record(r).len();
    }
    bytes[bound + 20] ^= 0x04;
    fs::write(&log_path, &bytes).unwrap();

    {
        let (served, recovery) = DurableDictionary::open(&dir, depth, &catalog, options).unwrap();
        assert_eq!(recovery.replayed, 4, "stop at last valid record");
        assert!(
            matches!(recovery.tail_fault, Some(WalError::CorruptRecord { offset, .. })
                if offset == bound as u64),
            "fault reports the corrupt record's byte position"
        );
        assert!(recovery.truncated_bytes > 0);
        // Keep learning: appends land after the truncated prefix.
        for o in &stream[6..8] {
            served.learn(o).unwrap();
        }
    }
    let (served, recovery) = DurableDictionary::open(&dir, depth, &catalog, options).unwrap();
    assert!(recovery.tail_fault.is_none(), "log healed by truncation");
    assert_eq!(recovery.replayed, 6, "4 surviving + 2 new records");
    let mut oracle = oracle_for_prefix(&stream, 4);
    for o in &stream[6..8] {
        oracle.learn(o);
    }
    let got = served.dictionary();
    assert_eq!(got.len(), oracle.len());
    for (i, q) in probe_queries().iter().enumerate() {
        assert_eq!(
            got.recognize(q),
            oracle.recognize(q).normalized(),
            "probe #{i}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compaction_output_is_canonical_bytes_equal_to_a_from_scratch_dump() {
    // The compaction correctness oracle from the issue: for a learn-only
    // history, `compact` must produce byte-identical EFDB to dumping a
    // dictionary that learned the same stream from scratch.
    let catalog = small_catalog();
    let stream = op_stream();
    let depth = RoundingDepth::new(DEPTH);
    let dir = tmp_dir("compact");
    let options = WalOptions {
        sync: SyncPolicy::Always,
        // Tiny threshold: force several freeze cycles along the way.
        segment_bytes: 256,
    };

    {
        let (served, _) = DurableDictionary::open(&dir, depth, &catalog, options).unwrap();
        for o in &stream {
            served.learn(o).unwrap();
        }
    }
    let report = wal::compact_in_place(&dir, &catalog).unwrap();
    let compacted = fs::read(&report.segment).unwrap();
    let oracle = oracle_for_prefix(&stream, stream.len());
    assert_eq!(
        compacted,
        binfmt::write_dictionary(&oracle, &catalog),
        "compacted segment must be canonical-bytes-equal to a from-scratch dump"
    );

    // And the directory still recovers to the same dictionary.
    let recovery = wal::recover(&dir, &catalog).unwrap();
    assert_oracle_equivalent(&recovery.dictionary, &oracle, "post-compaction recovery");
    fs::remove_dir_all(&dir).unwrap();
}
