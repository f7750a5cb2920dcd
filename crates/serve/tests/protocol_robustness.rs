//! Adversarial wire-protocol tests: torn and truncated frames,
//! oversized length prefixes, malformed payloads, bad command
//! sequences, abrupt mid-stream disconnects, and slow-loris idle
//! clients (stalled, or dribbling a frame a byte at a time). The
//! daemon's contract under all of them: a structured
//! `ERR <kind> <message>` response or a clean connection drop, the
//! matching `efd_protocol_errors_total{kind=...}` increment — and
//! never a panic, a wedged connection, or a hung test.
//!
//! Daemon health is proven after each bad peer by a well-formed request
//! on a fresh connection, under the harness's 10 s receive deadline,
//! and by the bad peer's connection thread having returned: the open
//! connection count must fall to zero once the probe closes.
//! Idle and slow-loris peers must not delay anyone else: health,
//! metrics, `STATUS` and `RECOGNIZE` on fresh connections are answered
//! within a second while they hold their connections open, and a
//! shutdown closes all of them within a second.
//!
//! The buffered reader is checked on both sides: a property test feeds
//! random frame sequences through a source that returns random chunk
//! sizes and injects `WouldBlock`, against a one-frame-at-a-time
//! reference decoder; and pipelined bursts against a live daemon prove
//! it flushes every reply before it blocks in a read.
//!
//! The request grammar is checked the same way: a property test runs
//! random and mutated lines through the borrowed parse, the owned
//! `Request::parse`, and a reference copy of the original owned parser,
//! and requires one outcome and one error text from all three.

mod common;

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::*;
use efd_serve::net::protocol::{write_frame, Request, RequestRef, READ_CHUNK};
use efd_serve::net::{FrameError, FrameReader, Server, MAX_FRAME};
use proptest::prelude::*;

/// A harness daemon over a one-app corpus (`ft` at 6000).
fn ft_server(tweak: impl FnOnce(&mut efd_serve::net::ServerConfig)) -> Server {
    let dict = dict_with(&[("ft", 6000.0)]);
    start_server(snapshot_engine(&dict), tweak)
}

/// Count of one error kind as currently exported by the daemon.
fn error_count(server: &Server, kind: &str) -> u64 {
    let needle = format!("efd_protocol_errors_total{{kind=\"{kind}\"}} ");
    server
        .metrics_text()
        .lines()
        .find_map(|l| l.strip_prefix(&needle).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Prove the daemon is free and sane: a well-formed request on a fresh
/// connection is answered, and once that probe closes no connection
/// thread is left running, so every earlier peer's thread has returned
/// (a wedged one would outlive the 10 s wait, being short of the 30 s
/// idle timeout). Callers drop their own connections first.
fn assert_daemon_healthy(server: &Server) {
    let mut probe = Client::connect(server.local_addr());
    assert_eq!(probe.request("PING"), "PONG");
    drop(probe);
    wait_until("every connection thread to return", || {
        server.metrics().active_connections.get() == 0
    });
}

#[test]
fn torn_length_prefix_is_counted_and_dropped_cleanly() {
    let server = ft_server(|_| {});
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&[42u8, 0]).expect("2 of 4 prefix bytes");
    drop(stream); // close mid-prefix
    wait_until("torn-prefix count", || error_count(&server, "torn") == 1);
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

#[test]
fn truncated_payload_is_counted_and_dropped_cleanly() {
    let server = ft_server(|_| {});
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // Promise 100 payload bytes, deliver 4, vanish.
    stream.write_all(&100u32.to_le_bytes()).expect("prefix");
    stream.write_all(b"PING").expect("partial payload");
    drop(stream);
    wait_until("torn-payload count", || error_count(&server, "torn") == 1);
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

#[test]
fn oversized_prefix_gets_a_structured_refusal_then_the_connection_drops() {
    let server = ft_server(|_| {});
    let mut client = Client::connect(server.local_addr());
    client
        .stream
        .write_all(&(MAX_FRAME + 1).to_le_bytes())
        .expect("oversized prefix");
    let resp = client
        .recv_or_close()
        .expect("structured refusal before the drop");
    assert!(
        resp.starts_with("ERR oversized"),
        "expected ERR oversized, got {resp:?}"
    );
    assert!(
        client.recv_or_close().is_none(),
        "connection must drop after refusal"
    );
    assert_eq!(error_count(&server, "oversized"), 1);
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

#[test]
fn zero_length_frame_gets_a_structured_refusal_then_the_connection_drops() {
    let server = ft_server(|_| {});
    let mut client = Client::connect(server.local_addr());
    client
        .stream
        .write_all(&0u32.to_le_bytes())
        .expect("empty prefix");
    let resp = client
        .recv_or_close()
        .expect("structured refusal before the drop");
    assert!(resp.starts_with("ERR empty"), "got {resp:?}");
    assert!(
        client.recv_or_close().is_none(),
        "connection must drop after refusal"
    );
    assert_eq!(error_count(&server, "empty"), 1);
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

#[test]
fn malformed_payloads_answer_err_and_keep_the_connection_alive() {
    let server = ft_server(|_| {});
    let mut client = Client::connect(server.local_addr());
    let cases: Vec<String> = vec![
        "NOPE".into(),
        "PING trailing-garbage".into(),
        "RECOGNIZE".into(),                       // missing everything
        format!("RECOGNIZE {METRIC} 120 60 1.0"), // inverted window
        format!("RECOGNIZE {METRIC} 60 120"),     // no means
        format!("RECOGNIZE {METRIC} 60 120 NaN"),
        "STREAM".into(),
        format!("STREAM {METRIC} 0 60 120"),    // zero nodes
        format!("STREAM {METRIC} 9999 60 120"), // above the node cap
        "PUSH 1 2".into(),
        "PUSH 1 2 inf".into(),
        "LEARN app X m 60 120".into(), // no means
    ];
    for bad in &cases {
        let resp = client.request(bad);
        assert!(
            resp.starts_with("ERR malformed"),
            "{bad:?} answered {resp:?}"
        );
        // Same connection keeps working after every rejection.
        assert_eq!(client.request("PING"), "PONG");
    }
    // A frame that is not UTF-8 at all.
    client
        .stream
        .write_all(&3u32.to_le_bytes())
        .expect("prefix");
    client
        .stream
        .write_all(&[0xFF, 0xFE, 0xFD])
        .expect("payload");
    let resp = client.recv();
    assert!(resp.starts_with("ERR malformed"), "got {resp:?}");
    assert_eq!(client.request("PING"), "PONG");
    assert_eq!(error_count(&server, "malformed"), cases.len() as u64 + 1);
    server.shutdown();
    server.join();
}

#[test]
fn malformed_recognize_replies_are_byte_exact_and_buffers_recover() {
    let server = ft_server(|_| {});
    let mut client = Client::connect(server.local_addr());
    let want_ok = "OK 1 2 2 recognized ft";
    let cases: Vec<(String, &str)> = vec![
        ("RECOGNIZE".into(), "ERR malformed missing metric"),
        (
            format!("RECOGNIZE {METRIC}"),
            "ERR malformed missing window start",
        ),
        (
            format!("RECOGNIZE {METRIC} x 120 1"),
            "ERR malformed bad window start \"x\"",
        ),
        (
            format!("RECOGNIZE {METRIC} -1 120 1"),
            "ERR malformed bad window start \"-1\"",
        ),
        (
            format!("RECOGNIZE {METRIC} 60"),
            "ERR malformed missing window end",
        ),
        (
            format!("RECOGNIZE {METRIC} 120 60 1.0"),
            "ERR malformed bad window [120:60] (end must exceed start)",
        ),
        (
            format!("RECOGNIZE {METRIC} 60 120"),
            "ERR malformed need at least one mean",
        ),
        (
            format!("RECOGNIZE {METRIC} 60 120 NaN"),
            "ERR malformed non-finite mean \"NaN\"",
        ),
        (
            format!("RECOGNIZE {METRIC} 60 120 1e999"),
            "ERR malformed non-finite mean \"1e999\"",
        ),
        (
            format!("RECOGNIZE {METRIC} 60 120 6000 abc"),
            "ERR malformed bad mean \"abc\"",
        ),
        (
            "RECOGNIZE\tx 1 2 \u{e9}".into(),
            "ERR malformed bad mean \"\u{e9}\"",
        ),
    ];
    for (bad, want) in &cases {
        assert_eq!(client.request(bad), *want, "{bad:?}");
        // The means buffer a failed parse left half-filled is refilled
        // cleanly by the next request on the same connection.
        assert_eq!(client.request(&recognized_ft()), want_ok);
    }
    assert_eq!(error_count(&server, "malformed"), cases.len() as u64);
    server.shutdown();
    server.join();
}

#[test]
fn an_error_echoing_a_huge_token_still_fits_in_a_frame() {
    // A 1 MiB token of quotes escapes to twice the frame limit in the
    // `bad mean` message; the reply is replaced, not sent oversized
    // (which would panic the connection thread), and the connection
    // keeps serving.
    let server = ft_server(|_| {});
    let mut client = Client::connect(server.local_addr());
    let head = format!("RECOGNIZE {METRIC} 60 120 ");
    let line = head.clone() + &"\"".repeat(MAX_FRAME as usize - head.len());
    assert_eq!(line.len(), MAX_FRAME as usize);
    assert_eq!(
        client.request(&line),
        "ERR malformed request token too long to echo"
    );
    assert_eq!(client.request(&recognized_ft()), "OK 1 2 2 recognized ft");
    drop(client);
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

#[test]
fn unknown_metric_and_bad_sequences_are_structured_errors() {
    let server = ft_server(|_| {});
    let mut client = Client::connect(server.local_addr());
    let resp = client.request("RECOGNIZE not_a_metric 60 120 1.0 2.0");
    assert!(resp.starts_with("ERR unknown-metric"), "got {resp:?}");
    // PUSH and FINISH before STREAM.
    assert!(client.request("PUSH 0 0 1.0").starts_with("ERR bad-state"));
    assert!(client.request("FINISH").starts_with("ERR bad-state"));
    // Double STREAM on one connection.
    assert!(client
        .request(&format!("STREAM {METRIC} 1 60 120"))
        .starts_with("OPENED 1 "));
    assert!(client
        .request(&format!("STREAM {METRIC} 1 60 120"))
        .starts_with("ERR bad-state"));
    // LEARN against an immutable snapshot daemon.
    let resp = client.request(&format!("LEARN ft X {METRIC} 60 120 1.0"));
    assert!(resp.starts_with("ERR read-only"), "got {resp:?}");
    assert_eq!(error_count(&server, "bad-state"), 3);
    assert_eq!(error_count(&server, "unknown-metric"), 1);
    assert_eq!(error_count(&server, "read-only"), 1);
    drop(client);
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

#[test]
fn mid_stream_disconnect_frees_the_worker_without_a_verdict() {
    let server = ft_server(|_| {});
    {
        let mut client = Client::connect(server.local_addr());
        assert!(client
            .request(&format!("STREAM {METRIC} 2 60 120"))
            .starts_with("OPENED "));
        for t in 60..70u32 {
            assert!(client
                .request(&format!("PUSH 0 {t} 6005"))
                .starts_with("ACK "));
        }
        // Vanish with the session open and samples buffered.
    }
    // The daemon must serve the next connection, and the abandoned
    // session must not have produced a verdict.
    assert_daemon_healthy(&server);
    assert!(server
        .metrics_text()
        .contains("efd_verdicts_total{verdict=\"recognized\"} 0"));
    server.shutdown();
    server.join();
}

#[test]
fn slow_loris_client_is_dropped_at_the_idle_timeout() {
    let server = ft_server(|cfg| cfg.idle_timeout = Duration::from_millis(300));
    let mut client = Client::connect(server.local_addr());
    // Dribble two prefix bytes, then go quiet mid-frame.
    client.stream.write_all(&[9u8, 0]).expect("dribble");
    wait_until("idle-timeout count", || {
        error_count(&server, "idle-timeout") == 1
    });
    assert!(
        client.recv_or_close().is_none(),
        "daemon must close the idle connection"
    );
    // Honest clients are served, and an honest client that keeps
    // talking is NOT idle-dropped.
    let mut honest = Client::connect(server.local_addr());
    for _ in 0..6 {
        assert_eq!(honest.request("PING"), "PONG");
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(error_count(&server, "idle-timeout"), 1);
    server.shutdown();
    server.join();
}

#[test]
fn a_frame_dribbled_a_byte_every_50_ms_still_idles_out() {
    // A byte every 50 ms never lets a 100 ms read tick pass quietly, so
    // only a per-frame deadline can drop this peer: the declared 1 KiB
    // frame must complete within the 1 s idle timeout, and it would take
    // 51 s at this rate.
    let server = ft_server(|cfg| cfg.idle_timeout = Duration::from_secs(1));
    let mut peer = TcpStream::connect(server.local_addr()).expect("connect");
    peer.write_all(&1024u32.to_le_bytes())
        .expect("1 KiB prefix");
    let declared = Instant::now();
    let dribbler = std::thread::spawn(move || {
        while declared.elapsed() < Duration::from_secs(4) && peer.write_all(b"x").is_ok() {
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    wait_until("the dribbling peer accepted", || {
        server.metrics().connections_total.get() == 1
    });
    while server.metrics().active_connections.get() != 0 {
        assert!(
            declared.elapsed() < Duration::from_secs(2),
            "a dribbling peer still holds its connection after 2 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(error_count(&server, "idle-timeout"), 1);
    dribbler.join().expect("dribbler");
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

#[test]
fn quiet_connection_with_no_bytes_is_also_idle_dropped() {
    // Idle accounting must cover the pre-sniff window too (a peer that
    // connects and never sends a byte).
    let server = ft_server(|cfg| cfg.idle_timeout = Duration::from_millis(300));
    let mut client = Client::connect(server.local_addr());
    wait_until("pre-sniff idle-timeout", || {
        error_count(&server, "idle-timeout") == 1
    });
    assert!(client.recv_or_close().is_none());
    assert_daemon_healthy(&server);
    server.shutdown();
    server.join();
}

/// Open `n` connections that never send a byte and `n` slow-loris
/// connections that send 2 of a frame's 4 prefix bytes and go quiet,
/// and wait until the daemon has accepted all of them.
fn idle_and_slow_loris(server: &Server, n: usize) -> Vec<TcpStream> {
    let addr = server.local_addr();
    let mut held = Vec::new();
    for _ in 0..n {
        held.push(TcpStream::connect(addr).expect("idle connect"));
        let mut loris = TcpStream::connect(addr).expect("slow-loris connect");
        loris.write_all(&[9u8, 0]).expect("2 prefix bytes");
        held.push(loris);
    }
    let want = held.len() as u64;
    wait_until("every held connection accepted", || {
        server.metrics().connections_total.get() >= want
    });
    held
}

/// Run `probe` and require it to finish in under a second.
fn within_a_second<T>(what: &str, probe: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = probe();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "{what} took {took:?}");
    out
}

#[test]
fn idle_and_slow_loris_clients_cannot_starve_health_metrics_or_status() {
    // Default 30 s idle timeout: the held connections stay open for the
    // whole test, so every probe competes with all 16 of them.
    let server = ft_server(|_| {});
    let addr = server.local_addr();
    let held = idle_and_slow_loris(&server, 8);

    let (status, body) = within_a_second("GET /healthz", || http_get(addr, "/healthz"));
    assert_eq!((status.as_str(), body.as_str()), ("HTTP/1.1 200 OK", "ok\n"));
    let (status, body) = within_a_second("GET /metrics", || http_get(addr, "/metrics"));
    assert_eq!(status, "HTTP/1.1 200 OK");
    let active: i64 = body
        .lines()
        .find_map(|l| l.strip_prefix("efd_active_connections "))
        .and_then(|v| v.parse().ok())
        .expect("efd_active_connections in the exposition");
    assert!(active > held.len() as i64, "{active} active: held ones plus the scrape");
    let reply = within_a_second("STATUS", || Client::connect(addr).request("STATUS"));
    assert!(reply.starts_with("STATUS gen=1 "), "got {reply:?}");
    let reply = within_a_second("RECOGNIZE", || {
        Client::connect(addr).request(&recognized_ft())
    });
    assert_eq!(reply, "OK 1 2 2 recognized ft");

    assert_eq!(error_count(&server, "idle-timeout"), 0);
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_closes_idle_slow_and_streaming_connections_within_a_second() {
    let server = ft_server(|_| {});
    let held = idle_and_slow_loris(&server, 4);
    let mut streams: Vec<Client> = (0..2)
        .map(|_| {
            let mut c = Client::connect(server.local_addr());
            assert!(c
                .request(&format!("STREAM {METRIC} 2 60 120"))
                .starts_with("OPENED 1 "));
            assert!(c.request("PUSH 0 60 6000").starts_with("ACK "));
            c
        })
        .collect();

    let summary = within_a_second("shutdown + join", || {
        server.shutdown();
        server.join()
    });
    assert_eq!(summary.connections, held.len() as u64 + 2);
    for c in &mut streams {
        assert!(c.recv_or_close().is_none(), "open stream must be closed");
    }
}

/// Request frames for `lines`, back to back, as one client write.
fn framed(lines: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    for line in lines {
        write_frame(&mut out, line.as_bytes()).expect("frame into a Vec");
    }
    out
}

fn recognized_ft() -> String {
    recognize_line(&[6000.0, 6000.0])
}

#[test]
fn replies_are_flushed_before_the_worker_blocks_on_a_partial_frame() {
    // Three whole frames plus 2 bytes of a fourth in one write: after the
    // third reply a partial frame is still buffered, and the connection
    // is about to block reading the rest. A "flush only when the buffer is
    // empty" policy would sit on all three replies and hang this test.
    let server = ft_server(|_| {});
    let mut client = Client::connect(server.local_addr());
    let fourth = framed(&["PING".into()]);
    let mut burst = framed(&["PING".into(), recognized_ft(), "STATS".into()]);
    burst.extend_from_slice(&fourth[..2]);
    client.stream.write_all(&burst).expect("burst");
    assert_eq!(client.recv(), "PONG");
    assert_eq!(client.recv(), "OK 1 2 2 recognized ft");
    assert!(client.recv().starts_with("STATS gen=1 "));
    client
        .stream
        .write_all(&fourth[2..])
        .expect("rest of the fourth frame");
    assert_eq!(client.recv(), "PONG");
    server.shutdown();
    server.join();
}

#[test]
fn a_pipelined_burst_of_200_is_answered_in_order() {
    let server = ft_server(|_| {});
    let mut client = Client::connect(server.local_addr());
    let unknown = recognize_line(&[9000.0, 9000.0]);
    let lines: Vec<String> = (0..200)
        .map(|i| {
            if i % 3 == 2 {
                unknown.clone()
            } else {
                recognized_ft()
            }
        })
        .collect();
    client.stream.write_all(&framed(&lines)).expect("burst");
    for i in 0..200 {
        let want = if i % 3 == 2 {
            "OK 1 0 2 unknown"
        } else {
            "OK 1 2 2 recognized ft"
        };
        assert_eq!(client.recv(), want, "reply {i}");
    }
    assert!(server
        .metrics_text()
        .contains("efd_requests_total{command=\"recognize\"} 200"));
    server.shutdown();
    server.join();
}

#[test]
fn replies_to_valid_frames_precede_the_oversized_refusal() {
    let server = ft_server(|_| {});
    let mut client = Client::connect(server.local_addr());
    let mut burst = framed(&["PING".into(), recognized_ft(), "PING".into()]);
    burst.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    client.stream.write_all(&burst).expect("burst");
    assert_eq!(client.recv(), "PONG");
    assert_eq!(client.recv(), "OK 1 2 2 recognized ft");
    assert_eq!(client.recv(), "PONG");
    let refusal = client
        .recv_or_close()
        .expect("structured refusal before the drop");
    assert!(refusal.starts_with("ERR oversized"), "got {refusal:?}");
    assert!(
        client.recv_or_close().is_none(),
        "connection must drop after refusal"
    );
    assert_eq!(error_count(&server, "oversized"), 1);
    server.shutdown();
    server.join();
}

/// How a decoded byte stream ended.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ending {
    Clean,
    Torn,
    Oversized(u32),
    Empty,
}

/// The unbuffered reference: decode a whole byte stream one frame at a
/// time, straight from the wire format.
fn reference_decode(mut bytes: &[u8]) -> (Vec<Vec<u8>>, Ending) {
    let mut frames = Vec::new();
    loop {
        if bytes.is_empty() {
            return (frames, Ending::Clean);
        }
        let Some(prefix) = bytes.get(..4) else {
            return (frames, Ending::Torn);
        };
        let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes"));
        if len == 0 {
            return (frames, Ending::Empty);
        }
        if len > MAX_FRAME {
            return (frames, Ending::Oversized(len));
        }
        let Some(payload) = bytes.get(4..4 + len as usize) else {
            return (frames, Ending::Torn);
        };
        frames.push(payload.to_vec());
        bytes = &bytes[4 + len as usize..];
    }
}

/// A socket stand-in: every read returns a random number of bytes (often
/// a handful, sometimes more than a chunk), and one read in four is a
/// `WouldBlock` instead.
struct Choppy {
    data: Vec<u8>,
    pos: usize,
    rng: TestRng,
    reads: usize,
}

impl Read for Choppy {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        assert!(!buf.is_empty(), "a zero-length read would look like EOF");
        self.reads += 1;
        if self.rng.next_below(4) == 0 {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "dry"));
        }
        let most = if self.rng.next_below(2) == 0 {
            16
        } else {
            3 * READ_CHUNK
        };
        let n = (1 + self.rng.next_below(most as u64) as usize)
            .min(buf.len())
            .min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Frame payload lengths: mostly request-sized, some longer than a read
/// chunk so they straddle several fills.
fn arb_lengths() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(
        prop_oneof![
            4 => 1usize..300,
            1 => (READ_CHUNK - 8)..(2 * READ_CHUNK + 100),
        ],
        0..12,
    )
}

proptest! {
    /// The buffered reader returns exactly the reference decoder's
    /// payloads and ending, whatever the read sizes and wherever the
    /// source runs dry; and a frame it calls ready never costs a read.
    #[test]
    fn buffered_reader_matches_the_reference_decoder(
        lengths in arb_lengths(),
        ending in 0u8..4,
        seed in any::<u64>(),
    ) {
        let mut rng = TestRng::new(seed);
        let mut bytes = Vec::new();
        for (i, &len) in lengths.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|k| (i * 31 + k) as u8).collect();
            write_frame(&mut bytes, &payload).expect("frame into a Vec");
        }
        match ending {
            0 => {}
            1 => {
                // Cut one more frame anywhere before its last byte.
                let mut extra = Vec::new();
                let len = 1 + rng.next_below(2 * READ_CHUNK as u64) as usize;
                write_frame(&mut extra, &vec![b'x'; len]).expect("frame into a Vec");
                let cut = 1 + rng.next_below(extra.len() as u64 - 1) as usize;
                bytes.extend_from_slice(&extra[..cut]);
            }
            2 => {
                let n = MAX_FRAME + 1 + rng.next_below(1 << 20) as u32;
                bytes.extend_from_slice(&n.to_le_bytes());
            }
            _ => bytes.extend_from_slice(&0u32.to_le_bytes()),
        }
        let (want, want_end) = reference_decode(&bytes);
        let mut src = Choppy { data: bytes, pos: 0, rng, reads: 0 };
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        let got_end = loop {
            let ready = reader.frame_ready();
            let reads = src.reads;
            match reader.read_frame(&mut src) {
                Ok(Some(payload)) => got.push(payload.to_vec()),
                Ok(None) => break Ending::Clean,
                Err(FrameError::Timeout) => {
                    prop_assert!(!ready, "a ready frame timed out");
                    continue;
                }
                Err(FrameError::Torn) => break Ending::Torn,
                Err(FrameError::Oversized(n)) => break Ending::Oversized(n),
                Err(FrameError::Empty) => break Ending::Empty,
                Err(FrameError::Io(e)) => panic!("unexpected I/O error {e}"),
            }
            if ready {
                prop_assert_eq!(src.reads, reads, "a ready frame read the source");
            }
        };
        prop_assert_eq!(got.len(), want.len());
        prop_assert!(got == want, "payloads differ from the reference decoder");
        prop_assert_eq!(got_end, want_end);
    }
}

/// The owned request parser as it was before the borrowed parse existed,
/// kept as the reference the current grammar must reproduce: same
/// accepted lines, same fields, same error text.
mod reference {
    use efd_serve::net::protocol::Request;

    pub fn parse(line: &str) -> Result<Request, String> {
        let mut it = line.split_ascii_whitespace();
        let verb = it.next().ok_or("blank request")?;
        match verb {
            "PING" => end(it, Request::Ping),
            "RECOGNIZE" => {
                let metric = word(&mut it, "metric")?;
                let (start, end) = window(&mut it)?;
                let means = means(it)?;
                Ok(Request::Recognize {
                    metric,
                    start,
                    end,
                    means,
                })
            }
            "STREAM" => {
                let metric = word(&mut it, "metric")?;
                let nodes: u16 = num(&mut it, "nodes")?;
                if nodes == 0 {
                    return Err("STREAM needs at least one node".into());
                }
                let (start, e) = window(&mut it)?;
                end(
                    it,
                    Request::Stream {
                        metric,
                        nodes,
                        start,
                        end: e,
                    },
                )
            }
            "PUSH" => {
                let node: u16 = num(&mut it, "node")?;
                let t: u32 = num(&mut it, "t")?;
                let value: f64 = num(&mut it, "value")?;
                if !value.is_finite() {
                    return Err("PUSH value must be finite".into());
                }
                end(it, Request::Push { node, t, value })
            }
            "FINISH" => end(it, Request::Finish),
            "LEARN" => {
                let app = word(&mut it, "app")?;
                let input = word(&mut it, "input")?;
                let metric = word(&mut it, "metric")?;
                let (start, end) = window(&mut it)?;
                let means = means(it)?;
                Ok(Request::Learn {
                    app,
                    input,
                    metric,
                    start,
                    end,
                    means,
                })
            }
            "SWAP" => {
                let path = it.next().unwrap_or("").to_string();
                end(it, Request::Swap { path })
            }
            "STATS" => end(it, Request::Stats),
            "STATUS" => end(it, Request::Status),
            "SHUTDOWN" => end(it, Request::Shutdown),
            other => Err(format!("unknown command {other:?}")),
        }
    }

    fn end<'a>(mut it: impl Iterator<Item = &'a str>, req: Request) -> Result<Request, String> {
        match it.next() {
            None => Ok(req),
            Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
        }
    }

    fn word<'a>(it: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<String, String> {
        it.next()
            .map(str::to_string)
            .ok_or_else(|| format!("missing {what}"))
    }

    fn num<'a, T: std::str::FromStr>(
        it: &mut impl Iterator<Item = &'a str>,
        what: &str,
    ) -> Result<T, String> {
        let tok = it.next().ok_or_else(|| format!("missing {what}"))?;
        tok.parse().map_err(|_| format!("bad {what} {tok:?}"))
    }

    fn window<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<(u32, u32), String> {
        let start: u32 = num(it, "window start")?;
        let end: u32 = num(it, "window end")?;
        if end <= start {
            return Err(format!(
                "bad window [{start}:{end}] (end must exceed start)"
            ));
        }
        Ok((start, end))
    }

    fn means<'a>(it: impl Iterator<Item = &'a str>) -> Result<Vec<f64>, String> {
        let mut out = Vec::new();
        for tok in it {
            let v: f64 = tok.parse().map_err(|_| format!("bad mean {tok:?}"))?;
            if !v.is_finite() {
                return Err(format!("non-finite mean {tok:?}"));
            }
            out.push(v);
        }
        if out.is_empty() {
            return Err("need at least one mean".into());
        }
        if out.len() > u16::MAX as usize {
            return Err("too many node means".into());
        }
        Ok(out)
    }
}

/// Tokens that exercise every branch of the grammar: each verb (and
/// near misses), names, in-range and out-of-range integers, finite and
/// non-finite floats, and junk.
const TOKENS: &[&str] = &[
    "PING",
    "RECOGNIZE",
    "STREAM",
    "PUSH",
    "FINISH",
    "LEARN",
    "SWAP",
    "STATS",
    "STATUS",
    "SHUTDOWN",
    "ping",
    "RECOGNISE",
    "",
    "ft",
    "X",
    "mem_free",
    "nr_mapped_vmstat",
    "/tmp/d.efdb",
    "0",
    "1",
    "60",
    "120",
    "-1",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "6000",
    "6000.5",
    "-7.25",
    "1e3",
    "1e999",
    "NaN",
    "nan",
    "inf",
    "-inf",
    "0x10",
    "+5",
    "1,2",
    "\u{e9}",
    "\"",
    "\u{0}",
];

/// Well-formed lines the mutations start from.
const VALID: &[&str] = &[
    "PING",
    "RECOGNIZE mem_free 60 120 6000.5 6010",
    "STREAM vmstat::nr_dirty 4 60 120",
    "PUSH 3 61 8110.25",
    "FINISH",
    "LEARN ft X mem_free 0 60 1 2 3",
    "SWAP /tmp/d.efdb",
    "SWAP",
    "STATS",
    "STATUS",
    "SHUTDOWN",
];

/// Separators between tokens, including the ASCII whitespace the
/// grammar splits on and a non-ASCII space it does not.
const SEPARATORS: &[&str] = &[" ", " ", " ", "  ", "\t", "\n", "\u{a0}"];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.next_below(from.len() as u64) as usize]
}

fn join(rng: &mut TestRng, tokens: &[&str]) -> String {
    let mut line = String::new();
    for (i, tok) in tokens.iter().enumerate() {
        if i > 0 {
            line.push_str(pick(rng, SEPARATORS));
        }
        line.push_str(tok);
    }
    line
}

/// A random line: a random verb followed by random tokens.
fn random_line(rng: &mut TestRng) -> String {
    let n = rng.next_below(9) as usize;
    let tokens: Vec<&str> = (0..=n).map(|_| pick(rng, TOKENS)).collect();
    join(rng, &tokens)
}

/// A valid line with one to three token mutations: drop, duplicate,
/// replace, swap, or append.
fn mutated_line(rng: &mut TestRng) -> String {
    let mut tokens: Vec<&str> = pick(rng, VALID).split(' ').collect();
    for _ in 0..1 + rng.next_below(3) {
        let at = rng.next_below(tokens.len() as u64) as usize;
        match rng.next_below(5) {
            0 if tokens.len() > 1 => {
                tokens.remove(at);
            }
            1 => tokens.insert(at, tokens[at]),
            2 => tokens[at] = pick(rng, TOKENS),
            3 => {
                let other = rng.next_below(tokens.len() as u64) as usize;
                tokens.swap(at, other);
            }
            _ => tokens.push(pick(rng, TOKENS)),
        }
    }
    join(rng, &tokens)
}

proptest! {
    /// Borrowed parse, owned parse and the reference parser agree on
    /// every line: the same request, or the same error text.
    #[test]
    fn borrowed_and_owned_parses_agree_with_the_reference(
        seed in any::<u64>(),
        mutate in any::<bool>(),
    ) {
        let mut rng = TestRng::new(seed);
        let mut means = vec![f64::NAN; 3]; // stale contents must not leak
        for _ in 0..64 {
            let line = if mutate { mutated_line(&mut rng) } else { random_line(&mut rng) };
            let want = reference::parse(&line);
            let owned = Request::parse(&line);
            let borrowed =
                RequestRef::parse(&line, &mut means).map(|r| r.into_owned(means.clone()));
            prop_assert_eq!(&owned, &want, "Request::parse on {:?}", line);
            prop_assert_eq!(&borrowed, &want, "RequestRef::parse on {:?}", line);
        }
    }
}
