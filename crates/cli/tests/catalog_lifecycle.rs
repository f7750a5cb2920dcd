//! The versioned catalog end to end: publish two versions of the paper
//! dictionary (with auto-measured abstention baselines), check one,
//! serve a catalog ref like the file it came from, refuse a tampered
//! artifact, structurally diff the versions (exit 3 = different, 0 =
//! identical), serve a manifest-stacked recognizer over the pinned
//! version, drive it with an out-of-dictionary keyspace burst so the
//! live unknown rate blows past the published baseline, find the drift
//! alarm in STATUS and `/metrics`, then roll the version back.
//!
//! Every file lives in a scratch directory, every child is killed if it
//! outlives its deadline (or the test panics), and the daemon binds an
//! ephemeral port read from its `listening:` line.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest any one `efd` run may take before it is killed.
const DEADLINE: Duration = Duration::from_secs(120);

/// The outcome of one finished `efd` run.
struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// A scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("efd-catalog-lifecycle-{}", std::process::id()));
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

    /// Run `efd args` to completion (killed after [`DEADLINE`]), its
    /// output captured through files so a full pipe cannot stall it.
    fn efd(&self, args: &[&str]) -> Run {
        let (out, err) = (self.0.join("last.out"), self.0.join("last.err"));
        let mut child = Command::new(env!("CARGO_BIN_EXE_efd"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(File::create(&out).unwrap())
            .stderr(File::create(&err).unwrap())
            .spawn()
            .expect("spawn efd");
        let deadline = Instant::now() + DEADLINE;
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll efd") {
                break status;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("efd {args:?} was still running after {DEADLINE:?}");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        Run {
            code: status.code(),
            stdout: std::fs::read_to_string(out).unwrap(),
            stderr: std::fs::read_to_string(err).unwrap(),
        }
    }

    /// [`Scratch::efd`], which must exit 0; returns its stdout.
    fn efd_ok(&self, args: &[&str]) -> String {
        let run = self.efd(args);
        assert_eq!(run.code, Some(0), "efd {args:?} failed: {}", run.stderr);
        run.stdout
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `verdicts:` line of a run's stdout.
fn verdicts(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("verdicts:"))
        .unwrap_or_else(|| panic!("no verdicts line in {stdout}"))
}

/// A running `efd serve --listen 127.0.0.1:0` child, killed on drop.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_efd"))
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn daemon");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).expect("daemon stdout");
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                panic!("daemon exited before listening");
            }
            if let Some(rest) = line.strip_prefix("listening:") {
                break rest.split_whitespace().next().expect("address").to_string();
            }
        };
        Daemon {
            child,
            _stdout: stdout,
            addr,
        }
    }

    /// Wait for the daemon to exit (killed after [`DEADLINE`]); true
    /// when it exited 0.
    fn wait_success(&mut self) -> bool {
        let deadline = Instant::now() + DEADLINE;
        loop {
            if let Some(status) = self.child.try_wait().expect("poll daemon") {
                return status.success();
            }
            if Instant::now() > deadline {
                panic!("the daemon was still running after {DEADLINE:?}");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Flip the middle byte of `path`.
fn flip_middle_byte(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn publish_serve_diff_alarm_and_roll_back() {
    let s = Scratch::new();
    let cat = s.path("catalog");
    let (v1, v2) = (s.path("hpc-v1.efdb"), s.path("hpc-v2.efdb"));
    s.efd_ok(&["dump", "--out", &v1]);
    s.efd_ok(&["dump", "--out", &v2, "--seed", "7"]);
    for from in [&v1, &v2] {
        s.efd_ok(&[
            "catalog", "publish", "--dir", &cat, "--name", "hpc-apps", "--from", from,
        ]);
    }
    s.efd_ok(&["catalog", "list", "--dir", &cat]);
    let show = s.efd_ok(&["catalog", "show", "hpc-apps@latest", "--dir", &cat]);
    assert!(show.contains("integrity:  ok"), "{show}");

    // A catalog ref serves exactly the bytes its digest was checked
    // over: the same verdicts as the file it was published from, and a
    // flipped artifact byte is refused before anything is served.
    let from_ref = s.efd_ok(&[
        "serve",
        "--load",
        "hpc-apps@v2",
        "--catalog",
        &cat,
        "--synth",
        "2000",
    ]);
    let from_file = s.efd_ok(&["serve", "--load", &v2, "--synth", "2000"]);
    assert_eq!(verdicts(&from_ref), verdicts(&from_file));
    let tampered = s.path("catalog-tampered");
    std::fs::create_dir_all(&tampered).unwrap();
    for entry in std::fs::read_dir(&cat).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), Path::new(&tampered).join(entry.file_name())).unwrap();
    }
    flip_middle_byte(&Path::new(&tampered).join("hpc-apps.v2.efdb"));
    let refused = s.efd(&[
        "serve",
        "--load",
        "hpc-apps@v2",
        "--catalog",
        &tampered,
        "--synth",
        "2000",
    ]);
    assert_ne!(refused.code, Some(0), "a tampered artifact was served");
    assert!(refused.stderr.contains("digest"), "{}", refused.stderr);

    let diff = |a: &str, b: &str| s.efd(&["diff", a, b, "--catalog", &cat]).code;
    assert_eq!(diff("hpc-apps@v1", "hpc-apps@v2"), Some(3));
    assert_eq!(diff("hpc-apps@v1", "hpc-apps@v1"), Some(0));

    // Exact + combo only: both abstain on out-of-dictionary keys, so the
    // keyspace burst below drives the unknown rate to ~1.0 and trips the
    // alarm. (A knn fallback stage would recognize everything and mask
    // the drift — the stacked-conformance suite covers that behaviour.)
    let manifest = s.path("stack.json");
    std::fs::write(
        &manifest,
        format!(
            r#"{{
                "schema": "recognizer.v1",
                "name": "hpc-stack",
                "catalog": "{cat}",
                "stack": [
                    {{"backend": "exact", "artifact": "hpc-apps@v2", "min_confidence": 0.6}},
                    {{"backend": "combo", "artifact": "hpc-apps@v2", "min_confidence": 0.5}}
                ]
            }}"#
        ),
    )
    .unwrap();
    let mut daemon = Daemon::spawn(&["--manifest", &manifest]);
    let ctl = |action: &str| s.efd_ok(&["ctl", action, "--addr", &daemon.addr]);
    assert_eq!(ctl("ping").trim(), "PONG");
    let status = ctl("status");
    assert!(
        status.contains("version=hpc-apps@v2 backend=stacked"),
        "{status}"
    );
    s.efd_ok(&[
        "loadgen",
        "--addr",
        &daemon.addr,
        "--conns",
        "2",
        "--duration",
        "3",
        "--keyspace",
        "4096",
    ]);
    let status = ctl("status");
    assert!(status.contains("drift=alarm"), "{status}");
    let metrics = ctl("metrics");
    assert!(
        metrics.lines().any(|l| l == "efd_drift_alarm 1"),
        "{metrics}"
    );
    for series in [
        "efd_drift_window_samples",
        "efd_drift_baseline_unknown_rate",
    ] {
        assert!(
            metrics.lines().any(|l| l.starts_with(series)),
            "{series}: {metrics}"
        );
    }
    assert!(
        metrics.contains("efd_catalog_info{version=\"hpc-apps@v2\"} 1"),
        "{metrics}"
    );
    ctl("shutdown");
    assert!(daemon.wait_success(), "the daemon's shutdown exit code");
    drop(daemon);

    let rollback = s.efd_ok(&["catalog", "rollback", "hpc-apps", "--dir", &cat]);
    assert!(rollback.contains("@latest is v1"), "{rollback}");
    let list = s.efd_ok(&["catalog", "list", "--dir", &cat]);
    assert!(list.contains("retired"), "{list}");
}
