//! The daemon under test: spawned as `efd serve --listen` on an
//! ephemeral port, measured from `/proc` (its own threads only), scraped
//! over its `/metrics` endpoint, and stopped with `SHUTDOWN`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon process. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    /// Held open until exit so the daemon's last status lines never hit
    /// a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound address.
    pub addr: SocketAddr,
}

/// Write one request frame and read one reply frame (blocking).
pub fn roundtrip(stream: &mut TcpStream, line: &str) -> Result<String, String> {
    let mut frame = (line.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(line.as_bytes());
    stream
        .write_all(&frame)
        .map_err(|e| format!("send {line}: {e}"))?;
    let mut len = [0u8; 4];
    stream
        .read_exact(&mut len)
        .map_err(|e| format!("reply to {line}: {e}"))?;
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream
        .read_exact(&mut payload)
        .map_err(|e| format!("reply to {line}: {e}"))?;
    String::from_utf8(payload).map_err(|e| format!("reply to {line}: {e}"))
}

impl Daemon {
    /// Spawn `efd serve --listen 127.0.0.1:0 <args>` and wait for its
    /// first `PONG`. Returns the daemon and the spawn-to-`PONG` time.
    pub fn spawn(efd: &Path, args: &[String]) -> Result<(Daemon, Duration), String> {
        let t0 = Instant::now();
        let mut child = Command::new(efd)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", efd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            let n = stdout
                .read_line(&mut line)
                .map_err(|e| format!("daemon stdout: {e}"))?;
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".into());
            }
            if let Some(rest) = line.strip_prefix("listening:") {
                let text = rest.split_whitespace().next().unwrap_or("");
                addr = Some(
                    text.parse::<SocketAddr>()
                        .map_err(|e| format!("address {text:?}: {e}"))?,
                );
            }
        }
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr: addr.expect("loop exits with an address"),
        };
        let mut s = daemon.connect()?;
        let pong = roundtrip(&mut s, "PING")?;
        let setup = t0.elapsed();
        if pong != "PONG" {
            return Err(format!("PING answered {pong:?}"));
        }
        Ok((daemon, setup))
    }

    /// A new connection with Nagle off.
    pub fn connect(&self) -> Result<TcpStream, String> {
        let s = TcpStream::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        Ok(s)
    }

    /// Daemon process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU of every daemon thread so far, in seconds.
    pub fn cpu_s(&self) -> Result<f64, String> {
        proc_cpu_s(&format!("/proc/{}/stat", self.pid()))
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kib: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM"))?;
        Ok(kib / 1024.0)
    }

    /// The `/metrics` exposition.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let mut s = TcpStream::connect(self.addr).map_err(|e| format!("scrape: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
            .map_err(|e| format!("scrape: {e}"))?;
        let mut text = String::new();
        s.read_to_string(&mut text)
            .map_err(|e| format!("scrape: {e}"))?;
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b)
            .ok_or("scrape: no HTTP body")?;
        Ok(Scrape(body.to_string()))
    }

    /// `SHUTDOWN`, then wait for the process to exit (killed after 20 s).
    pub fn stop(mut self) -> Result<(), String> {
        if let Ok(mut s) = self.connect() {
            let _ = roundtrip(&mut s, "SHUTDOWN");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not exit after SHUTDOWN".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `utime + stime` of a `/proc/<pid>/stat` file, in seconds. Covers every
/// thread of the process, including exited ones.
pub fn proc_cpu_s(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: malformed"))?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: malformed"))
    };
    Ok((ticks(11)? + ticks(12)?) / clock_ticks())
}

fn clock_ticks() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf has no preconditions; it only reads a constant.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// A Prometheus text exposition.
pub struct Scrape(pub String);

impl Scrape {
    /// The value of the series whose name-and-labels text is `series`.
    pub fn value(&self, series: &str) -> Option<f64> {
        self.0.lines().find_map(|l| {
            let (name, v) = l.rsplit_once(' ')?;
            (name == series).then(|| v.parse().ok())?
        })
    }
}
