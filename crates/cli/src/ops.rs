//! Daemon and WAL tools: loadgen, ctl, compact, wal-verify.

use crate::{dataset_from, headline, synth_stream, Args, QUERY_JITTER};

/// `efd loadgen --addr <a>`: drive a running daemon and report latency
/// percentiles (optionally into a JSON file, `--out`).
pub(crate) fn loadgen(args: &Args) -> Result<(), String> {
    use efd_serve::net::loadgen::{run, LoadgenConfig};
    use std::time::Duration;

    let addr = args.flag("addr").ok_or("need --addr <host:port>")?;
    let mut cfg = LoadgenConfig::new(addr);
    if let Some(n) = args.flag_parsed::<usize>("conns")? {
        cfg.connections = n.max(1);
    }
    let secs: f64 = args.flag_parsed("duration")?.unwrap_or(5.0);
    if secs <= 0.0 || !secs.is_finite() {
        return Err(format!("invalid --duration {secs} (seconds, > 0)"));
    }
    cfg.duration = Duration::from_secs_f64(secs);
    cfg.target_qps = args.flag_parsed::<u64>("qps")?;
    if let Some(p) = args.flag_parsed::<usize>("pipeline")? {
        cfg.pipeline = p.max(1);
    }
    let pool: usize = args.flag_parsed("requests")?.unwrap_or(512).max(1);

    // The request mix: PINGs (protocol floor), a synthetic keyspace mix
    // (matches `dump --synth-keys N`), or dataset-derived queries (the
    // same stream `serve --synth` answers).
    cfg.payloads = if matches!(args.flag("ping"), Some("true") | Some("1")) {
        vec!["PING".to_string()]
    } else {
        let keyspace = args.flag_parsed::<usize>("keyspace")?;
        let d = dataset_from(args)?;
        let name = d.catalog().name(headline(&d)).to_string();
        match keyspace {
            Some(keys) => synth_keyspace_payloads(&name, keys, pool),
            None => synth_stream(&d, pool, QUERY_JITTER)
                .iter()
                .map(|o| render_recognize_line(&name, &o.query))
                .collect(),
        }
    };

    println!(
        "loadgen:    {} — {} conns, {:.1} s, pipeline {}, {}",
        cfg.addr,
        cfg.connections,
        secs,
        cfg.pipeline,
        match cfg.target_qps {
            Some(q) => format!("paced at {q} req/s"),
            None => "unpaced (max rate)".to_string(),
        },
    );
    let report = run(&cfg)?;
    let us = |s: f64| s * 1e6;
    println!(
        "throughput: {} responses in {:.1} s → {:.0} verdicts/s ({} sent, {} errors)",
        report.received,
        report.duration.as_secs_f64(),
        report.qps,
        report.sent,
        report.errors,
    );
    println!(
        "verdicts:   {} recognized, {} ambiguous, {} unknown",
        report.verdicts[0], report.verdicts[1], report.verdicts[2],
    );
    println!(
        "latency:    p50 {:.0} µs, p90 {:.0} µs, p99 {:.0} µs, p99.9 {:.0} µs, max {:.0} µs",
        us(report.latency.p50),
        us(report.latency.p90),
        us(report.latency.p99),
        us(report.latency.p999),
        us(report.latency.max),
    );

    if let Some(out) = args.flag("out") {
        let body = format!(
            "{{\n  \"bench\": \"loadgen\",\n  \"config\": {{ \"addr\": \"{}\", \"connections\": {}, \
             \"duration_s\": {:.1}, \"qps_target\": {}, \"pipeline\": {}, \"payload_pool\": {} }},\n  \
             \"sent\": {},\n  \"received\": {},\n  \"errors\": {},\n  \
             \"verdicts\": {{ \"recognized\": {}, \"ambiguous\": {}, \"unknown\": {} }},\n  \
             \"verdicts_per_s\": {:.1},\n  \
             \"latency_us\": {{ \"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1}, \"max\": {:.1} }}\n}}\n",
            cfg.addr,
            cfg.connections,
            secs,
            cfg.target_qps.map_or("null".to_string(), |q| q.to_string()),
            cfg.pipeline,
            cfg.payloads.len(),
            report.sent,
            report.received,
            report.errors,
            report.verdicts[0],
            report.verdicts[1],
            report.verdicts[2],
            report.qps,
            us(report.latency.p50),
            us(report.latency.p90),
            us(report.latency.p99),
            us(report.latency.p999),
            us(report.latency.max),
        );
        std::fs::write(out, &body).map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote:      {out}");
    }
    Ok(())
}

/// Render one RECOGNIZE request line for a single-metric query.
fn render_recognize_line(metric_name: &str, q: &efd_core::Query) -> String {
    let iv = q
        .points
        .first()
        .map(|p| p.interval)
        .unwrap_or(efd_telemetry::Interval::PAPER_DEFAULT);
    let mut s = format!("RECOGNIZE {metric_name} {} {}", iv.start, iv.end);
    for p in &q.points {
        s.push_str(&format!(" {}", p.mean));
    }
    s
}

/// `efd ctl <action> --addr <a>`: one-shot daemon control — speaks one
/// protocol request (or one HTTP scrape for `metrics`) and prints the
/// response. Exits nonzero on an `ERR` response.
pub(crate) fn ctl(args: &Args) -> Result<(), String> {
    use efd_serve::net::protocol::{write_frame, FrameError, FrameReader};
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    let action = args
        .positional
        .first()
        .ok_or("ctl needs an action (ping|stats|status|swap|shutdown|metrics)")?;
    let addr = args.flag("addr").ok_or("need --addr <host:port>")?;
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| e.to_string())?;

    if action == "metrics" {
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: efd\r\nConnection: close\r\n\r\n")
            .map_err(|e| format!("{addr}: {e}"))?;
        let mut raw = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut buf = [0u8; 4096];
        while Instant::now() < deadline {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&buf[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(format!("{addr}: {e}")),
            }
        }
        let text = String::from_utf8_lossy(&raw);
        let (head, body) = text
            .split_once("\r\n\r\n")
            .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
        let status = head.lines().next().unwrap_or("");
        if !status.contains("200") {
            return Err(format!("{addr}: {status}"));
        }
        print!("{body}");
        return Ok(());
    }

    let line = match action.as_str() {
        "ping" => "PING".to_string(),
        "stats" => "STATS".to_string(),
        "status" => "STATUS".to_string(),
        "shutdown" => "SHUTDOWN".to_string(),
        "swap" => match args.flag("path") {
            Some(p) => format!("SWAP {p}"),
            None => "SWAP".to_string(),
        },
        other => {
            return Err(format!(
                "unknown ctl action {other:?} (ping|stats|status|swap|shutdown|metrics)"
            ))
        }
    };
    write_frame(&mut stream, line.as_bytes()).map_err(|e| format!("{addr}: {e}"))?;
    let mut reader = FrameReader::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match reader.read_frame(&mut stream) {
            Ok(Some(payload)) => {
                let text = String::from_utf8_lossy(payload).to_string();
                println!("{text}");
                if text.starts_with("ERR ") {
                    return Err(format!("{addr}: daemon refused: {text}"));
                }
                return Ok(());
            }
            Ok(None) => return Err(format!("{addr}: daemon closed without answering")),
            Err(FrameError::Timeout) => {
                if Instant::now() >= deadline {
                    return Err(format!("{addr}: timed out waiting for a response"));
                }
            }
            Err(e) => return Err(format!("{addr}: {e}")),
        }
    }
}

/// `efd compact --wal <dir> [--out <path>]`: merge a WAL directory's
/// newest segment + log tail into one canonical EFDB segment.
pub(crate) fn compact(args: &Args) -> Result<(), String> {
    let dir = args.flag("wal").ok_or("need --wal <dir>")?;
    let d = dataset_from(args)?;
    let report = efd_core::wal::compact_in_place(std::path::Path::new(dir), d.catalog())
        .map_err(|e| format!("{dir}: {e}"))?;
    println!(
        "compacted:  {dir} — {} log records folded in, {} superseded segment(s) removed",
        report.replayed, report.removed,
    );
    println!(
        "segment:    {} — {} keys (canonical EFDB)",
        report.segment.display(),
        report.keys,
    );
    if let Some(out) = args.flag("out") {
        std::fs::copy(&report.segment, out).map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote:      {out} (byte-identical to the compacted segment)");
    }
    Ok(())
}

/// `efd wal-verify --wal <dir> [--strict true]`: audit a WAL directory
/// offline — header, record scan, segment resolution — reporting the
/// valid prefix and any tail fault with its byte offset. Hard errors
/// (bad header, missing/corrupt segment) always exit nonzero; tail
/// faults are tolerated (truncate-and-warn is the recovery contract)
/// unless `--strict true`.
pub(crate) fn wal_verify(args: &Args) -> Result<(), String> {
    use efd_core::wal;

    let dir = args.flag("wal").ok_or("need --wal <dir>")?;
    let strict = matches!(args.flag("strict"), Some("true") | Some("1"));
    let d = dataset_from(args)?;

    let log_path = format!("{dir}/{}", wal::LOG_FILE);
    let bytes = std::fs::read(&log_path).map_err(|e| format!("{log_path}: {e}"))?;
    let replay = wal::read_log(&bytes).map_err(|e| format!("{log_path}: {e}"))?;
    let (mut learns, mut forgets) = (0usize, 0usize);
    for rec in &replay.records {
        match rec {
            wal::WalRecord::Learn(_) => learns += 1,
            _ => forgets += 1,
        }
    }
    println!(
        "wal:        {log_path} — {} bytes, depth {}, requires segment {}",
        bytes.len(),
        replay.depth.get(),
        replay.base_segments,
    );
    println!(
        "records:    {} valid ({learns} learns, {forgets} forgets), valid prefix {} bytes",
        replay.records.len(),
        replay.valid_len,
    );

    let recovery =
        wal::recover(std::path::Path::new(dir), d.catalog()).map_err(|e| format!("{dir}: {e}"))?;
    println!(
        "segments:   newest {} on disk (log requires {})",
        recovery.segments, replay.base_segments,
    );
    println!(
        "recovered:  {} keys, {} apps, depth {}",
        recovery.dictionary.len(),
        recovery.dictionary.app_names().len(),
        recovery.dictionary.depth(),
    );
    match &recovery.tail_fault {
        None => println!("tail:       clean"),
        Some(fault) => {
            println!(
                "tail:       {fault} ({} bytes past the valid prefix discarded on recovery)",
                recovery.truncated_bytes
            );
            if strict {
                return Err(format!("{log_path}: {fault}"));
            }
        }
    }
    Ok(())
}

/// RECOGNIZE request lines over the synthetic keyspace: 8-node queries
/// aligned to 64-key node blocks (so every point lands on its node's
/// keys), with ~9% of blocks drawn past the keyspace end as misses.
fn synth_keyspace_payloads(metric_name: &str, keys: usize, count: usize) -> Vec<String> {
    let blocks = (keys / 64).max(1);
    let mut rng = efd_util::SplitMix64::new(0x10AD);
    (0..count.max(1))
        .map(|_| {
            let r = (rng.next_u64() as usize) % (blocks + blocks / 10 + 1);
            let i0 = r * 64;
            let mut s = format!("RECOGNIZE {metric_name} 60 120");
            for j in 0..8 {
                s.push_str(&format!(" {}", 100_000.0 + (i0 + j) as f64));
            }
            s
        })
        .collect()
}
