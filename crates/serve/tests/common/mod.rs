//! Shared harness for the daemon integration suites: tiny labeled
//! dictionaries, an [`Engine`] for every backend, a framed test client
//! speaking the wire protocol over a real socket, and polling helpers
//! for asserting on asynchronously updated daemon state.
#![allow(dead_code)] // each test crate uses a subset of the harness

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use efd_core::multi::ComboDictionary;
use efd_core::{binfmt, EfdDictionary, LabeledObservation, Query, RoundingDepth};
use efd_serve::net::protocol::{write_frame, FrameError, FrameReader};
use efd_serve::net::{Engine, Server, ServerConfig};
use efd_serve::{ComboSnapshot, EfdbSnapshot, ShardedDictionary, Snapshot};
use efd_telemetry::catalog::small_catalog;
use efd_telemetry::{AppLabel, Interval, MetricCatalog, MetricId};

/// The metric every harness dictionary fingerprints.
pub const M: MetricId = MetricId(0);
/// Its name in [`small_catalog`] — what requests put on the wire.
pub const METRIC: &str = "nr_mapped_vmstat";
/// The fingerprint window harness entries are learned at.
pub const W: Interval = Interval::PAPER_DEFAULT;

/// The catalog every harness daemon resolves metric names against.
pub fn catalog() -> MetricCatalog {
    small_catalog()
}

/// A two-node dictionary at rounding depth 2: each `(app, mean)` learns
/// the mean on both nodes over [`W`]. Two apps at the same mean make an
/// ambiguous key; an unlearned mean makes an unknown.
pub fn dict_with(apps: &[(&str, f64)]) -> EfdDictionary {
    let mut d = EfdDictionary::new(RoundingDepth::new(2));
    for &(app, mean) in apps {
        d.learn(&LabeledObservation {
            label: AppLabel::new(app, "X"),
            query: Query::from_node_means(M, W, &[mean, mean]),
        });
    }
    d
}

/// A query of `means` on nodes 0, 1, … over [`W`] on the harness
/// metric.
pub fn query(means: &[f64]) -> Query {
    Query::from_node_means(M, W, means)
}

/// The `RECOGNIZE` line asking about `means` on nodes 0, 1, … over
/// [`W`]: the line of [`query`] with the same means.
pub fn recognize_line(means: &[f64]) -> String {
    let mut line = format!("RECOGNIZE {METRIC} {} {}", W.start, W.end);
    for mean in means {
        line.push_str(&format!(" {mean}"));
    }
    line
}

/// One engine per backend kind, all built from the same dictionary, so
/// a test can assert the identical contract across every serving form.
pub fn engines_for(dict: &EfdDictionary) -> Vec<Engine> {
    let cat = catalog();
    let keys = dict.len();
    let efdb = binfmt::write_dictionary(dict, &cat);
    let combo = ComboDictionary::from_single_metric(dict).expect("non-empty single-metric dict");
    vec![
        Engine::fixed(Arc::new(Snapshot::freeze(dict)), keys, "snapshot"),
        Engine::fixed(
            Arc::new(ShardedDictionary::from_parts(dict.to_parts(), 4)),
            keys,
            "sharded",
        ),
        Engine::fixed(Arc::new(ComboSnapshot::freeze(combo)), keys, "combo"),
        Engine::fixed(
            Arc::new(EfdbSnapshot::load(efdb, &cat).expect("round-tripped EFDB bytes")),
            keys,
            "efdb",
        ),
    ]
}

/// Snapshot engine shorthand for tests that only need one backend.
pub fn snapshot_engine(dict: &EfdDictionary) -> Engine {
    Engine::fixed(Arc::new(Snapshot::freeze(dict)), dict.len(), "snapshot")
}

/// Start a daemon on an ephemeral port with harness defaults; `tweak`
/// adjusts the config (idle timeout, reload path, ...).
pub fn start_server(engine: Engine, tweak: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut cfg = ServerConfig::new(catalog());
    tweak(&mut cfg);
    Server::start("127.0.0.1:0", cfg, engine).expect("daemon binds an ephemeral port")
}

/// A blocking framed client with a request/response helper.
pub struct Client {
    pub stream: TcpStream,
    reader: FrameReader,
}

impl Client {
    /// Connect to the daemon under test.
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("read timeout");
        Client {
            stream,
            reader: FrameReader::new(),
        }
    }

    /// Send one request frame.
    pub fn send(&mut self, line: &str) {
        write_frame(&mut self.stream, line.as_bytes()).expect("write frame");
        self.stream.flush().expect("flush frame");
    }

    /// Read one response frame (panics after 10 s — a hung connection
    /// is exactly what these tests exist to catch).
    pub fn recv(&mut self) -> String {
        self.recv_or_close()
            .unwrap_or_else(|| panic!("daemon closed the connection instead of answering"))
    }

    /// Read one response, or `None` if the daemon closed the connection
    /// first. Panics on a 10 s stall.
    pub fn recv_or_close(&mut self) -> Option<String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.reader.read_frame(&mut self.stream) {
                Ok(Some(payload)) => {
                    return Some(String::from_utf8(payload.to_vec()).expect("UTF-8 response"))
                }
                Ok(None) => return None,
                Err(FrameError::Timeout) => {
                    assert!(Instant::now() < deadline, "no response within 10 s");
                }
                Err(FrameError::Io(_)) => return None, // reset counts as a close
                Err(e) => panic!("client-side frame error: {e}"),
            }
        }
    }

    /// Round-trip one request.
    pub fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

/// Poll until `cond` holds (10 s cap) — for daemon state that updates
/// asynchronously to the client-visible protocol, like error counters.
pub fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A fresh per-test scratch directory under the target-local tmp root.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("efd-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Write a dictionary as EFDB bytes to `dir/name`.
pub fn write_efdb(dir: &std::path::Path, name: &str, dict: &EfdDictionary) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, binfmt::write_dictionary(dict, &catalog())).expect("write efdb file");
    path
}

/// One raw HTTP/1.0-style request against the daemon port; returns
/// (status line, body).
pub fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect for http");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: efd\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("write http request");
    let mut raw = Vec::new();
    use std::io::Read;
    stream.read_to_end(&mut raw).expect("read http response");
    let text = String::from_utf8(raw).expect("UTF-8 http response");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("http response has a blank line");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}
