//! Closed/paced-loop load generator for the recognition daemon.
//!
//! Each connection thread keeps up to `pipeline` requests in flight
//! (responses are matched FIFO — the protocol answers in order on a
//! connection), which removes the per-request RTT bound that would
//! otherwise cap a closed loop at `connections / RTT` regardless of
//! server capacity. With `target_qps` set, sends are paced on a fixed
//! schedule split evenly across connections and the measured latency
//! includes any queueing the daemon builds up at that rate.

use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use super::protocol::{write_frame, FrameError, FrameReader};

/// What to drive at the daemon.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address, e.g. `127.0.0.1:7070`.
    pub addr: String,
    /// Concurrent connections (threads).
    pub connections: usize,
    /// Wall-clock send window.
    pub duration: Duration,
    /// Total target request rate across all connections; `None` drives
    /// as fast as the pipeline allows.
    pub target_qps: Option<u64>,
    /// Max in-flight requests per connection.
    pub pipeline: usize,
    /// Request payloads, cycled round-robin (each thread starts at a
    /// different offset so the mix interleaves).
    pub payloads: Vec<String>,
}

impl LoadgenConfig {
    /// Defaults: 4 connections, 5 s, unpaced, pipeline 32, `PING`s.
    pub fn new(addr: impl Into<String>) -> Self {
        LoadgenConfig {
            addr: addr.into(),
            connections: 4,
            duration: Duration::from_secs(5),
            target_qps: None,
            pipeline: 32,
            payloads: vec!["PING".to_string()],
        }
    }
}

/// Latency percentiles in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Worst observed.
    pub max: f64,
}

/// Aggregate result of one loadgen run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests written.
    pub sent: u64,
    /// Responses read.
    pub received: u64,
    /// `ERR` responses plus requests left unanswered at drain end.
    pub errors: u64,
    /// Verdict mix among `OK`/`VERDICT` responses:
    /// `[recognized, ambiguous, unknown]`.
    pub verdicts: [u64; 3],
    /// The configured send window.
    pub duration: Duration,
    /// `received / duration` — sustained verdicts per second.
    pub qps: f64,
    /// Response latency percentiles (send → response read).
    pub latency: Percentiles,
}

#[derive(Default)]
struct ConnStats {
    sent: u64,
    received: u64,
    errors: u64,
    verdicts: [u64; 3],
    latency_s: Vec<f64>,
}

/// Run the load, blocking until every connection drains or times out.
/// Errors if no connection could be established or no response ever
/// arrived (the CI smoke treats that as daemon-down).
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if cfg.payloads.is_empty() {
        return Err("loadgen needs at least one payload".into());
    }
    let conns = cfg.connections.max(1);
    let interval = cfg
        .target_qps
        .map(|q| Duration::from_secs_f64(conns as f64 / (q.max(1)) as f64));
    let deadline = Instant::now() + cfg.duration;
    let stats: Vec<Result<ConnStats, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|i| {
                let cfg = &*cfg;
                scope.spawn(move || drive(cfg, i, interval, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen thread"))
            .collect()
    });

    let mut total = ConnStats::default();
    let mut first_err = None;
    for s in stats {
        match s {
            Ok(s) => {
                total.sent += s.sent;
                total.received += s.received;
                total.errors += s.errors;
                for k in 0..3 {
                    total.verdicts[k] += s.verdicts[k];
                }
                total.latency_s.extend(s.latency_s);
            }
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if total.received == 0 {
        return Err(first_err.unwrap_or_else(|| format!("no responses from {}", cfg.addr)));
    }
    total
        .latency_s
        .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |q: f64| -> f64 {
        let n = total.latency_s.len();
        let idx = ((q * (n - 1) as f64).round() as usize).min(n - 1);
        total.latency_s[idx]
    };
    Ok(LoadgenReport {
        sent: total.sent,
        received: total.received,
        errors: total.errors,
        verdicts: total.verdicts,
        duration: cfg.duration,
        qps: total.received as f64 / cfg.duration.as_secs_f64().max(1e-9),
        latency: Percentiles {
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            p999: pct(0.999),
            max: *total.latency_s.last().expect("nonempty"),
        },
    })
}

fn drive(
    cfg: &LoadgenConfig,
    index: usize,
    interval: Option<Duration>,
    deadline: Instant,
) -> Result<ConnStats, String> {
    let mut stream =
        TcpStream::connect(&cfg.addr).map_err(|e| format!("connect {}: {e}", cfg.addr))?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut reader = FrameReader::new();
    let mut st = ConnStats::default();
    let mut inflight: VecDeque<Instant> = VecDeque::new();
    let pipeline = cfg.pipeline.max(1);
    let mut next_send = Instant::now();
    let mut i = index; // offset so threads interleave the payload mix

    'run: loop {
        // Fill the send window (respecting pacing if configured).
        let mut wrote = false;
        while inflight.len() < pipeline {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if let Some(iv) = interval {
                if now < next_send {
                    break;
                }
                next_send += iv;
            }
            let payload = &cfg.payloads[i % cfg.payloads.len()];
            i += 1;
            if write_frame(&mut writer, payload.as_bytes()).is_err() {
                break 'run;
            }
            st.sent += 1;
            inflight.push_back(Instant::now());
            wrote = true;
        }
        if wrote && writer.flush().is_err() {
            break 'run;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if inflight.is_empty() {
            // Paced and not due yet: sleep out the gap.
            let until = interval
                .map(|_| next_send)
                .unwrap_or(deadline)
                .min(deadline);
            std::thread::sleep(
                until
                    .saturating_duration_since(now)
                    .min(Duration::from_millis(5)),
            );
            continue;
        }
        match reader.read_frame(&mut stream) {
            Ok(Some(payload)) => record(&mut st, &mut inflight, payload),
            Ok(None) => break,                    // daemon closed
            Err(FrameError::Timeout) => continue, // keep pacing/deadline checks
            Err(_) => break,
        }
    }

    // Drain what is still in flight (bounded grace).
    let grace = Instant::now() + Duration::from_secs(2);
    while !inflight.is_empty() && Instant::now() < grace {
        match reader.read_frame(&mut stream) {
            Ok(Some(payload)) => record(&mut st, &mut inflight, payload),
            Ok(None) => break,
            Err(FrameError::Timeout) => continue,
            Err(_) => break,
        }
    }
    st.errors += inflight.len() as u64; // unanswered = dropped
    Ok(st)
}

fn record(st: &mut ConnStats, inflight: &mut VecDeque<Instant>, payload: &[u8]) {
    let Some(sent_at) = inflight.pop_front() else {
        st.errors += 1; // response with no matching request
        return;
    };
    st.received += 1;
    st.latency_s.push(sent_at.elapsed().as_secs_f64());
    let text = String::from_utf8_lossy(payload);
    let mut toks = text.split_ascii_whitespace();
    match toks.next() {
        Some("OK") | Some("VERDICT") => match toks.nth(3) {
            Some("recognized") => st.verdicts[0] += 1,
            Some("ambiguous") => st.verdicts[1] += 1,
            _ => st.verdicts[2] += 1,
        },
        Some("ERR") => st.errors += 1,
        _ => {} // PONG/ACK/STATS/...: counted as received only
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_indexing_is_sane() {
        // Exercise the report math through a fake single-conn result by
        // driving the private helpers directly.
        let mut st = ConnStats::default();
        let mut inflight = VecDeque::new();
        for _ in 0..4 {
            inflight.push_back(Instant::now());
        }
        record(&mut st, &mut inflight, b"OK 1 2 2 recognized ft");
        record(&mut st, &mut inflight, b"OK 1 0 2 unknown");
        record(&mut st, &mut inflight, b"VERDICT 2 2 2 ambiguous bt,sp");
        record(&mut st, &mut inflight, b"ERR malformed nope");
        assert_eq!(st.received, 4);
        assert_eq!(st.verdicts, [1, 1, 1]);
        assert_eq!(st.errors, 1);
        assert_eq!(st.latency_s.len(), 4);
        // Unmatched response counts as an error, not a panic.
        record(&mut st, &mut inflight, b"PONG");
        assert_eq!(st.errors, 2);
    }
}
