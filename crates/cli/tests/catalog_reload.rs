//! A daemon serving a catalog reference follows the catalog on reload:
//! a bare `SWAP` re-resolves `name@latest`, and the republished engine
//! carries the new version and its published drift baseline — the same
//! re-tagging manifest serving does. A reload whose artifact fails its
//! digest check is refused, and the current generation keeps serving.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// Run `efd` to completion and return its stdout; any failure panics
/// with the stderr.
fn efd_ok(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_efd"))
        .args(args)
        .output()
        .expect("spawn efd");
    assert!(
        out.status.success(),
        "efd {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A running `efd serve --listen` child, killed if the test panics.
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

    fn ctl(&self, action: &str) -> String {
        efd_ok(&["ctl", action, "--addr", &self.addr])
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The numeric value of `key=<v>` in a STATUS line.
fn status_rate(status: &str, key: &str) -> f64 {
    let value = status
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key} in {status:?}"));
    value
        .parse()
        .unwrap_or_else(|_| panic!("{key}={value} is not a number in {status:?}"))
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

#[test]
fn swap_follows_latest_and_retags_version_and_baseline() {
    let dir = std::env::temp_dir().join(format!("efd-catalog-reload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let catalog = dir.join("catalog");
    let (v1, v2) = (dir.join("v1.efdb"), dir.join("v2.efdb"));
    efd_ok(&["dump", "--out", path_str(&v1)]);
    efd_ok(&["dump", "--out", path_str(&v2), "--seed", "7"]);
    let publish = |from: &Path| {
        efd_ok(&[
            "catalog",
            "publish",
            "--dir",
            path_str(&catalog),
            "--name",
            "hpc-apps",
            "--from",
            path_str(from),
        ])
    };
    publish(&v1);

    let mut daemon = Daemon::spawn(&["--load", "hpc-apps@latest", "--catalog", path_str(&catalog)]);
    let status = daemon.ctl("status");
    assert!(status.contains("version=hpc-apps@v1 "), "{status}");
    status_rate(&status, "baseline_ambiguous");

    publish(&v2);
    let swapped = daemon.ctl("swap");
    assert!(
        swapped.starts_with("SWAPPED 2 ") && swapped.trim_end().ends_with(" hpc-apps@v2"),
        "{swapped}"
    );
    let status = daemon.ctl("status");
    assert!(
        status.contains("STATUS gen=2 version=hpc-apps@v2 "),
        "{status}"
    );
    status_rate(&status, "baseline_unknown");
    status_rate(&status, "baseline_ambiguous");
    let metrics = daemon.ctl("metrics");
    assert!(
        metrics.contains("efd_catalog_info{version=\"hpc-apps@v2\"} 1"),
        "{metrics}"
    );

    assert_eq!(daemon.ctl("shutdown").trim(), "BYE");
    assert!(daemon.child.wait().expect("daemon exit").success());
    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn swap_refuses_a_tampered_artifact_and_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("efd-catalog-tamper-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let catalog = dir.join("catalog");
    let dict = dir.join("synth.efdb");
    efd_ok(&["dump", "--out", path_str(&dict), "--synth-keys", "64"]);
    efd_ok(&[
        "catalog",
        "publish",
        "--dir",
        path_str(&catalog),
        "--name",
        "tiny",
        "--from",
        path_str(&dict),
        "--baseline",
        "none",
    ]);

    let mut daemon = Daemon::spawn(&["--load", "tiny@latest", "--catalog", path_str(&catalog)]);
    let status = daemon.ctl("status");
    assert!(status.contains("STATUS gen=1 version=tiny@v1 "), "{status}");

    // Flip one byte of the served artifact after start-up.
    let published = efd_catalog::Catalog::open(&catalog).expect("catalog index");
    let file = catalog.join(&published.latest("tiny").expect("tiny@v1").file);
    let mut bytes = std::fs::read(&file).expect("published artifact");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&file, bytes).unwrap();

    let swap = Command::new(env!("CARGO_BIN_EXE_efd"))
        .args(["ctl", "swap", "--addr", &daemon.addr])
        .output()
        .expect("spawn efd ctl");
    let reply = String::from_utf8_lossy(&swap.stdout);
    assert!(!swap.status.success(), "{reply}");
    assert!(reply.starts_with("ERR swap-failed"), "{reply}");
    assert!(reply.contains("digest"), "{reply}");
    let status = daemon.ctl("status");
    assert!(status.contains("STATUS gen=1 version=tiny@v1 "), "{status}");

    assert_eq!(daemon.ctl("shutdown").trim(), "BYE");
    assert!(daemon.child.wait().expect("daemon exit").success());
    drop(daemon);
    std::fs::remove_dir_all(&dir).unwrap();
}
