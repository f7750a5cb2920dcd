//! Durability end to end, the brutal way: learn a synthetic stream into
//! a WAL-backed `efd serve --wal`, SIGKILL it mid-stream, then require
//! that the directory audits clean (`wal-verify`), compacts, and that
//! recovered serving prints the same verdict histogram as serving the
//! compacted canonical EFDB — recovery lost nothing it acknowledged and
//! invented nothing it did not.
//!
//! `compact` recovers through the same `wal::recover` as `serve --wal`,
//! so the two agree on any fault they share. The second test therefore
//! checks recovery against a reference that never recovers: a fresh
//! learner fed the same stream prefix, as many records as `wal-verify`
//! counts in the crashed log. The third does the same for a learner
//! killed after it froze its first segment, so recovery must load that
//! segment and replay the log on top of it.
//!
//! Every file lives in a scratch directory, and every child is killed if
//! it outlives its deadline (or the test panics).

use std::fs::File;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest any one `efd` run may take before it is killed.
const DEADLINE: Duration = Duration::from_secs(120);

/// How long the learner runs after its first logged record before it is
/// killed.
const LEARN_FOR: Duration = Duration::from_secs(2);

/// Bytes of the log header; a longer log holds a record.
const WAL_HEADER_LEN: u64 = 16;

/// Log size at which the reference tests' learners are killed: a few
/// hundred records, well below the 1 MiB at which the log is frozen
/// into a segment.
const KILL_AT_LOG_BYTES: u64 = 64 << 10;

/// Learns of the probe run that finds how many learns the first
/// segment freezes: past the first freeze, short of a second one.
const PROBE_LEARNS: u64 = 8000;

/// Rounding depth of the reference tests' learners: deep enough that
/// every jittered learn adds keys of its own, so losing any one record
/// changes the dictionary. At the default depth 2 the stream saturates
/// after a few hundred learns, and a lost trailing record is invisible.
const DEEP: &str = "17";

/// A child process, killed and reaped on drop.
struct Guard(Child);

impl Drop for Guard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("efd-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0
            .join(name)
            .to_str()
            .expect("utf-8 temp path")
            .to_string()
    }

    /// Start `efd args`, its output captured in files so a full pipe
    /// cannot stall it.
    fn spawn(&self, args: &[&str]) -> Guard {
        Guard(
            Command::new(env!("CARGO_BIN_EXE_efd"))
                .args(args)
                .stdin(Stdio::null())
                .stdout(File::create(self.0.join("last.out")).unwrap())
                .stderr(File::create(self.0.join("last.err")).unwrap())
                .spawn()
                .expect("spawn efd"),
        )
    }

    /// Run `efd args` to completion (killed after [`DEADLINE`]); it must
    /// exit 0. Returns its stdout.
    fn efd_ok(&self, args: &[&str]) -> String {
        let mut child = self.spawn(args);
        let deadline = Instant::now() + DEADLINE;
        let status = loop {
            if let Some(status) = child.0.try_wait().expect("poll efd") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "efd {args:?} was still running after {DEADLINE:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        let stderr = std::fs::read_to_string(self.0.join("last.err")).unwrap();
        assert!(status.success(), "efd {args:?} failed: {stderr}");
        std::fs::read_to_string(self.0.join("last.out")).unwrap()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The line of a run's stdout that starts with `prefix`.
fn line<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix} line in {stdout}"))
}

/// The number that follows `prefix` in `text`.
fn number_after(text: &str, prefix: &str) -> u64 {
    let at = text
        .find(prefix)
        .unwrap_or_else(|| panic!("no {prefix:?} in {text}"));
    let digits: String = text[at + prefix.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no number after {prefix:?} in {text}"))
}

/// The segments the log's header requires (its last 4 bytes,
/// little-endian) and the log's length, once the header is whole.
fn log_state(log: &std::path::Path) -> Option<(u32, u64)> {
    let mut file = File::open(log).ok()?;
    let mut header = [0u8; WAL_HEADER_LEN as usize];
    file.read_exact(&mut header).ok()?;
    let segments = u32::from_le_bytes(header[12..16].try_into().unwrap());
    Some((segments, file.metadata().ok()?.len()))
}

/// Wait until the learner's log requires `segments` segments and holds
/// more than `bytes`, checking that the learner is still running.
fn await_log(learner: &mut Guard, log: &std::path::Path, segments: u32, bytes: u64) {
    let deadline = Instant::now() + DEADLINE;
    while !log_state(log).is_some_and(|(s, len)| s == segments && len > bytes) {
        assert!(
            learner.0.try_wait().unwrap().is_none(),
            "the learner exited before segment {segments}'s log held {bytes} bytes"
        );
        assert!(
            Instant::now() < deadline,
            "segment {segments}'s log did not reach {bytes} bytes in {DEADLINE:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Start a synced depth-17 learner of a long stream in `wal`, and
/// SIGKILL it once its log requires `segments` segments and holds more
/// than [`KILL_AT_LOG_BYTES`].
fn kill_deep_learner(scratch: &Scratch, wal: &str, segments: u32) {
    let log = std::path::Path::new(wal).join("wal.log");
    let mut learner = scratch.spawn(&[
        "serve",
        "--wal",
        wal,
        "--depth",
        DEEP,
        "--learn",
        "200000",
        "--wal-sync",
        "always",
        "--synth",
        "100",
    ]);
    await_log(&mut learner, &log, segments, KILL_AT_LOG_BYTES);
    learner.0.kill().expect("SIGKILL the learner");
    learner.0.wait().unwrap();
}

/// `wal-verify`'s audit of `wal`, which must require `segments`
/// segments; returns the number of valid log records.
fn audit_records(scratch: &Scratch, wal: &str, segments: u64) -> u64 {
    let audit = scratch.efd_ok(&["wal-verify", "--wal", wal]);
    assert_eq!(
        number_after(&audit, "requires segment "),
        segments,
        "{wal}: {audit}"
    );
    number_after(&audit, "records:    ")
}

/// Require that recovered serving of `wal` prints the `dictionary:` and
/// `verdicts:` lines of a fresh depth-17 learner of the stream's first
/// `learns` items.
fn assert_recovers_a_fresh_learner(scratch: &Scratch, wal: &str, learns: u64) {
    let reference = scratch.path("reference");
    let learns = learns.to_string();
    let learned = scratch.efd_ok(&[
        "serve", "--wal", &reference, "--depth", DEEP, "--learn", &learns, "--synth", "2000",
    ]);
    let recovered = scratch.efd_ok(&["serve", "--wal", wal, "--synth", "2000"]);
    for prefix in ["dictionary:", "verdicts:"] {
        assert_eq!(
            line(&recovered, prefix),
            line(&learned, prefix),
            "recovered {learns} learns"
        );
    }
}

#[test]
fn a_killed_learner_recovers_exactly_what_its_compaction_serves() {
    let scratch = Scratch::new("crash");
    let wal = scratch.path("wal");
    let log = scratch.0.join("wal").join("wal.log");

    // Every learn is synced before the next one starts; the kill, not
    // the stream's length, ends the run.
    let mut learner = scratch.spawn(&[
        "serve",
        "--wal",
        &wal,
        "--learn",
        "200000",
        "--wal-sync",
        "always",
        "--synth",
        "100",
    ]);
    await_log(&mut learner, &log, 0, WAL_HEADER_LEN);
    std::thread::sleep(LEARN_FOR);
    assert!(
        learner.0.try_wait().unwrap().is_none(),
        "the learner finished its stream before the kill"
    );
    learner.0.kill().expect("SIGKILL the learner");
    learner.0.wait().unwrap();
    drop(learner);

    scratch.efd_ok(&["wal-verify", "--wal", &wal]);
    let compacted = scratch.path("wal-smoke.efdb");
    scratch.efd_ok(&["compact", "--wal", &wal, "--out", &compacted]);
    let recovered = scratch.efd_ok(&["serve", "--wal", &wal, "--synth", "2000"]);
    let served = scratch.efd_ok(&["serve", "--load", &compacted, "--synth", "2000"]);
    assert_eq!(line(&recovered, "verdicts:"), line(&served, "verdicts:"));
}

#[test]
fn a_killed_learner_recovers_what_a_fresh_learner_of_its_log_serves() {
    let scratch = Scratch::new("reference");
    let wal = scratch.path("wal");
    kill_deep_learner(&scratch, &wal, 0);

    // `wal-verify` counts the log's valid records with the plain log
    // scanner. With no segment, they are the whole acknowledged prefix
    // of the learner's stream.
    let records = audit_records(&scratch, &wal, 0);
    assert_recovers_a_fresh_learner(&scratch, &wal, records);
}

#[test]
fn a_learner_killed_past_its_first_segment_recovers_what_a_fresh_learner_serves() {
    let scratch = Scratch::new("segment");
    let wal = scratch.path("wal");
    kill_deep_learner(&scratch, &wal, 1);
    let records = audit_records(&scratch, &wal, 1);

    // The log holds only the learns after the freeze. A probe learner
    // of the same stream freezes at the same learn, so its log tells
    // how many learns the first segment holds.
    let probe = scratch.path("probe");
    let learns = PROBE_LEARNS.to_string();
    scratch.efd_ok(&[
        "serve", "--wal", &probe, "--depth", DEEP, "--learn", &learns, "--synth", "100",
    ]);
    let frozen = PROBE_LEARNS - audit_records(&scratch, &probe, 1);
    assert_recovers_a_fresh_learner(&scratch, &wal, frozen + records);
}
