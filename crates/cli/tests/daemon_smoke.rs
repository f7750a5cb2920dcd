//! The daemon end to end: bring `efd serve --listen` up over a synthetic
//! 100k-key EFDB, check that idle clients cannot delay `STATUS` or a
//! scrape, drive it with the pipelined `efd loadgen`, then require that
//! every request the daemon counted reached the client (and nothing
//! more), and that a graceful `ctl shutdown` prints its summary.
//!
//! Every file lives in a scratch directory, and every child is killed if
//! it outlives its deadline (or the test panics).

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest any one `efd` run may take before it is killed.
const DEADLINE: Duration = Duration::from_secs(120);

/// How long `STATUS` and a scrape may take with idle clients connected.
const CONTROL_DEADLINE: Duration = Duration::from_secs(2);

/// Idle connections held open while the control plane is probed.
const IDLE_CONNECTIONS: usize = 8;

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
    fn new() -> Scratch {
        let dir = std::env::temp_dir().join(format!("efd-daemon-smoke-{}", std::process::id()));
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

    /// Run `efd args` to completion, killed after `deadline`; it must
    /// exit 0. Returns its stdout, captured in a file so a full pipe
    /// cannot stall it.
    fn efd_within(&self, deadline: Duration, args: &[&str]) -> String {
        let mut child = Guard(
            Command::new(env!("CARGO_BIN_EXE_efd"))
                .args(args)
                .stdin(Stdio::null())
                .stdout(File::create(self.0.join("last.out")).unwrap())
                .stderr(File::create(self.0.join("last.err")).unwrap())
                .spawn()
                .expect("spawn efd"),
        );
        let until = Instant::now() + deadline;
        let status = loop {
            if let Some(status) = child.0.try_wait().expect("poll efd") {
                break status;
            }
            assert!(
                Instant::now() < until,
                "efd {args:?} was still running after {deadline:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        let stderr = std::fs::read_to_string(self.0.join("last.err")).unwrap();
        assert!(status.success(), "efd {args:?} failed: {stderr}");
        std::fs::read_to_string(self.0.join("last.out")).unwrap()
    }

    fn efd_ok(&self, args: &[&str]) -> String {
        self.efd_within(DEADLINE, args)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `efd serve --listen 127.0.0.1:0` child, killed if the test
/// panics; its stdout is read up to the `listening:` line.
struct Daemon {
    child: Guard,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn spawn(dict: &str) -> Daemon {
        let mut child = Guard(
            Command::new(env!("CARGO_BIN_EXE_efd"))
                .args(["serve", "--listen", "127.0.0.1:0", "--load", dict])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn daemon"),
        );
        let mut stdout = BufReader::new(child.0.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).expect("daemon stdout") == 0 {
                panic!("daemon exited before listening");
            }
            if let Some(rest) = line.strip_prefix("listening:") {
                break rest.split_whitespace().next().expect("address").to_string();
            }
        };
        Daemon {
            child,
            stdout,
            addr,
        }
    }
}

/// The integer value of `"key": <n>` in loadgen's JSON report.
fn json_u64(json: &str, key: &str) -> u64 {
    json_number(json, key)
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not an integer in {json}"))
}

fn json_number<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    let rest = &json[at + key.len() + 4..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    &rest[..end]
}

/// The values of the exposition's sample lines whose series (name and
/// labels) `matches` accepts.
fn samples(prom: &str, matches: impl Fn(&str) -> bool) -> Vec<u64> {
    prom.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| matches(series))
        .map(|(series, v)| v.parse().unwrap_or_else(|_| panic!("{series} {v}")))
        .collect()
}

#[test]
fn the_daemon_counts_every_reply_and_shuts_down_gracefully() {
    let scratch = Scratch::new();
    let dict = scratch.path("synth.efdb");
    scratch.efd_ok(&["dump", "--out", &dict, "--synth-keys", "100000"]);
    let mut daemon = Daemon::spawn(&dict);
    let addr = daemon.addr.clone();
    scratch.efd_ok(&["ctl", "ping", "--addr", &addr]);

    // Idle connections each hold a thread of their own (the idle timeout
    // is 30 s): they must not hold up control or metrics.
    let idle: Vec<TcpStream> = (0..IDLE_CONNECTIONS)
        .map(|_| TcpStream::connect(&addr).expect("idle connection"))
        .collect();
    let status = scratch.efd_within(CONTROL_DEADLINE, &["ctl", "status", "--addr", &addr]);
    assert!(status.starts_with("STATUS "), "{status}");
    scratch.efd_within(CONTROL_DEADLINE, &["ctl", "metrics", "--addr", &addr]);
    drop(idle);

    let report = scratch.path("loadgen.json");
    scratch.efd_ok(&[
        "loadgen",
        "--addr",
        &addr,
        "--conns",
        "4",
        "--duration",
        "2",
        "--keyspace",
        "100000",
        "--out",
        &report,
    ]);
    let report = std::fs::read_to_string(&report).unwrap();
    let (sent, received) = (json_u64(&report, "sent"), json_u64(&report, "received"));
    let rate: f64 = json_number(&report, "verdicts_per_s").parse().unwrap();
    assert!(rate > 0.0, "{report}");
    assert_eq!(json_u64(&report, "errors"), 0, "{report}");
    assert_eq!(received, sent, "{report}");

    // Replies are flushed once per burst, and each connection's tally is
    // merged just before: every request the daemon counted must have
    // reached loadgen, and nothing more. Each recognize has one verdict,
    // and each received reply one duration sample.
    let prom = scratch.efd_ok(&["ctl", "metrics", "--addr", &addr]);
    let recognized = samples(&prom, |s| s == "efd_requests_total{command=\"recognize\"}");
    assert_eq!(recognized, [received], "recognize counter vs loadgen");
    let verdicts = samples(&prom, |s| s.starts_with("efd_verdicts_total{verdict=\""));
    assert_eq!(verdicts.len(), 3, "{prom}");
    assert_eq!(verdicts.iter().sum::<u64>(), received, "{verdicts:?}");
    let durations = samples(&prom, |s| s == "efd_request_duration_seconds_count");
    assert!(
        durations.len() == 1 && durations[0] >= received,
        "{durations:?} duration samples for {received} replies"
    );
    assert!(
        prom.contains("efd_request_duration_seconds_bucket"),
        "{prom}"
    );

    scratch.efd_ok(&["ctl", "shutdown", "--addr", &addr]);
    let until = Instant::now() + DEADLINE;
    let exit = loop {
        if let Some(exit) = daemon.child.0.try_wait().expect("poll daemon") {
            break exit;
        }
        assert!(
            Instant::now() < until,
            "daemon still up {DEADLINE:?} after shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut rest = String::new();
    for line in (&mut daemon.stdout).lines() {
        rest.push_str(&line.expect("daemon stdout"));
        rest.push('\n');
    }
    assert!(exit.success(), "daemon exited with {exit}: {rest}");
    assert!(
        rest.lines().any(|l| l.starts_with("served:")),
        "no served: line in {rest}"
    );
}
