//! Cold-start memory: the read-only store keeps the checked EFDB buffer
//! and adds only a hash index over its key records, so a daemon serving
//! a 1M-key file must peak (`VmHWM`) within the file's size plus 32 MiB.
//! Linux only: the peak is read from `/proc/<pid>/status`.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Output, Stdio};

/// Headroom over the file's size that the daemon's peak may use.
const HEADROOM_KIB: u64 = 32 * 1024;

fn efd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_efd"))
        .args(args)
        .output()
        .expect("spawn efd")
}

/// A running `efd serve --listen 127.0.0.1:0` child, killed if the test
/// panics.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn spawn(dict: &str) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_efd"))
            .args(["serve", "--listen", "127.0.0.1:0", "--load", dict])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn daemon");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).expect("daemon stdout") == 0 {
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
            stdout,
            addr,
        }
    }

    /// The daemon's peak resident set so far, in KiB.
    fn vm_hwm_kib(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read the daemon's /proc status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no VmHWM line in:\n{status}"))
    }

    /// `ctl shutdown`, then wait for the daemon to exit; true when both
    /// succeed.
    fn shutdown(mut self) -> bool {
        let ctl = efd(&["ctl", "shutdown", "--addr", &self.addr]);
        if !ctl.status.success() {
            return false;
        }
        // Drain stdout: the daemon prints a summary as it exits.
        (&mut self.stdout).lines().for_each(drop);
        self.child.wait().is_ok_and(|s| s.success())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn a_1m_key_daemon_peaks_within_the_file_size_plus_32_mib() {
    let dir = std::env::temp_dir().join(format!("efd-cold-start-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dict = dir.join("k1m.efdb");
    let dict = dict.to_str().unwrap();
    let dump = efd(&[
        "dump",
        "--synth-keys",
        "1000000",
        "--format",
        "efdb",
        "--out",
        dict,
    ]);
    assert!(
        dump.status.success(),
        "dump: {}",
        String::from_utf8_lossy(&dump.stderr)
    );
    let file_kib = std::fs::metadata(dict).unwrap().len() / 1024;

    let daemon = Daemon::spawn(dict);
    let ping = efd(&["ctl", "ping", "--addr", &daemon.addr]);
    assert!(ping.status.success(), "ping: {ping:?}");
    assert_eq!(String::from_utf8_lossy(&ping.stdout).trim(), "PONG");
    let hwm_kib = daemon.vm_hwm_kib();
    assert!(daemon.shutdown(), "the daemon did not shut down cleanly");
    std::fs::remove_dir_all(&dir).unwrap();

    assert!(
        hwm_kib <= file_kib + HEADROOM_KIB,
        "VmHWM {hwm_kib} KiB exceeds the {file_kib} KiB file plus {HEADROOM_KIB} KiB"
    );
}
