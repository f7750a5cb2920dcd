//! End-to-end daemon tests over real sockets.
//!
//! Every test binds `127.0.0.1:0` (ephemeral port), speaks the framed
//! wire protocol through [`common::Client`], and asserts against the
//! single-threaded [`EfdDictionary`] oracle — the serving layer's
//! equivalence contract extended across the network boundary: framing,
//! per-connection threads, and hot swaps must not change answers.

mod common;

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::*;
use efd_core::wal::{SyncPolicy, WalOptions};
use efd_core::RoundingDepth;
use efd_serve::net::protocol::{render_answer, write_frame, READ_CHUNK};
use efd_serve::net::Engine;
use efd_serve::{Backend, DictSource, DurableDictionary, Snapshot};

/// The harness corpus: distinct apps, one deliberate ambiguous pair
/// (`aa`/`bb` at the same level).
fn corpus() -> Vec<(&'static str, f64)> {
    vec![
        ("ft", 6000.0),
        ("cg", 8110.0),
        ("mg", 3000.0),
        ("aa", 7500.0),
        ("bb", 7500.0),
    ]
}

/// A query mix hitting every verdict kind: exact levels, a level inside
/// the rounding bucket, the ambiguous pair, a miss, and a split vote.
fn query_mix() -> Vec<[f64; 2]> {
    vec![
        [6000.0, 6000.0],
        [6010.0, 6000.0],
        [8110.0, 8110.0],
        [3000.0, 3000.0],
        [7500.0, 7500.0],
        [1234.5, 999.0],
        [6000.0, 8110.0],
    ]
}

#[test]
fn concurrent_clients_match_the_single_threaded_oracle_on_every_backend() {
    let dict = dict_with(&corpus());
    // Expected responses come from the core oracle, normalized — the
    // exact bytes every backend must put on the wire at generation 1.
    let expected: Vec<(String, String)> = query_mix()
        .iter()
        .map(|means| {
            let rec = dict.recognize(&query(means)).normalized();
            (recognize_line(means), render_answer("OK", 1, &rec))
        })
        .collect();

    for engine in engines_for(&dict) {
        let kind = engine.kind;
        let server = start_server(engine, |_| {});
        let addr = server.local_addr();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    for i in 0..25 * expected.len() {
                        let (line, want) = &expected[(i + t) % expected.len()];
                        let got = client.request(line);
                        assert_eq!(&got, want, "backend {kind}, request {line:?}");
                    }
                });
            }
        });
        server.shutdown();
        let summary = server.join();
        assert_eq!(
            summary.requests,
            4 * 25 * expected.len() as u64,
            "backend {kind} must answer every request"
        );
    }
}

#[test]
fn streaming_session_emits_the_oracle_verdict_when_windows_close() {
    let dict = dict_with(&corpus());
    let server = start_server(snapshot_engine(&dict), |_| {});
    let mut client = Client::connect(server.local_addr());

    assert_eq!(
        client.request(&format!("STREAM {METRIC} 2 {} {}", W.start, W.end)),
        "OPENED 1 120"
    );
    // Constant 6005 on both nodes: the window mean rounds into ft's
    // fingerprint bucket. The verdict must arrive exactly once, on the
    // push that closes the last node's window.
    let mut verdicts = Vec::new();
    for t in 0..=120u32 {
        for node in 0..2u16 {
            let resp = client.request(&format!("PUSH {node} {t} 6005"));
            if let Some(v) = resp.strip_prefix("VERDICT ") {
                verdicts.push((t, node, v.to_string()));
            } else {
                assert!(resp.starts_with("ACK "), "unexpected response {resp:?}");
            }
        }
    }
    assert_eq!(verdicts.len(), 1, "verdict must be emitted exactly once");
    let (t, node, tail) = &verdicts[0];
    assert_eq!((*t, *node), (120, 1), "emitted when the last window closes");
    assert_eq!(tail, "1 2 2 recognized ft");
    // The session is consumed by its verdict.
    assert!(client
        .request("PUSH 0 121 6005")
        .starts_with("ERR bad-state"));

    // Early FINISH flushes open windows and forces the verdict.
    let mut early = Client::connect(server.local_addr());
    early.request(&format!("STREAM {METRIC} 2 {} {}", W.start, W.end));
    for t in 60..=80u32 {
        for node in 0..2u16 {
            assert!(early
                .request(&format!("PUSH {node} {t} 6005"))
                .starts_with("ACK "));
        }
    }
    assert_eq!(early.request("FINISH"), "VERDICT 1 2 2 recognized ft");

    server.shutdown();
    server.join();
}

#[test]
fn metrics_scrape_reports_exact_counters_for_a_known_mix() {
    let dict = dict_with(&corpus());
    let server = start_server(snapshot_engine(&dict), |_| {});
    let addr = server.local_addr();
    let mut client = Client::connect(addr);

    for _ in 0..3 {
        assert_eq!(client.request("PING"), "PONG");
    }
    for _ in 0..4 {
        assert!(client
            .request(&recognize_line(&[6000.0, 6000.0]))
            .contains("recognized"));
    }
    for _ in 0..2 {
        assert!(client
            .request(&recognize_line(&[111.0, 222.0]))
            .contains("unknown"));
    }
    assert!(client
        .request(&recognize_line(&[7500.0, 7500.0]))
        .contains("ambiguous"));
    assert!(client.request("STATS").starts_with("STATS "));
    assert!(client
        .request("BOGUS nonsense")
        .starts_with("ERR malformed"));

    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "bad scrape status {status:?}");
    // 12 dispatched frames (3 + 7 + 1 + 1): every one is counted in the
    // duration histogram; only parsed requests hit the command counters.
    for needle in [
        "efd_requests_total{command=\"ping\"} 3",
        "efd_requests_total{command=\"recognize\"} 7",
        "efd_requests_total{command=\"stats\"} 1",
        "efd_requests_total{command=\"shutdown\"} 0",
        "efd_verdicts_total{verdict=\"recognized\"} 4",
        "efd_verdicts_total{verdict=\"unknown\"} 2",
        "efd_verdicts_total{verdict=\"ambiguous\"} 1",
        "efd_protocol_errors_total{kind=\"malformed\"} 1",
        "efd_protocol_errors_total{kind=\"torn\"} 0",
        "efd_request_duration_seconds_count 12",
        "efd_request_duration_seconds_bucket{le=\"+Inf\"} 12",
        "efd_snapshot_generation 1",
        "efd_snapshot_swaps_total 0",
        "efd_connections_total 2",
        "efd_scrapes_total 1",
    ] {
        assert!(
            body.contains(needle),
            "missing {needle:?} in scrape:\n{body}"
        );
    }

    // A second scrape sees itself counted.
    let (_, body) = http_get(addr, "/metrics");
    assert!(body.contains("efd_scrapes_total 2"));
    let (status, body) = http_get(addr, "/healthz");
    assert!(status.contains("200"));
    assert_eq!(body, "ok\n");
    let (status, _) = http_get(addr, "/nope");
    assert!(status.contains("404"));

    server.shutdown();
    server.join();
}

#[test]
fn hot_swap_under_sustained_load_drops_nothing_and_never_tears() {
    // Generation 1 does not know `new`; generation 2 does. Every
    // response under concurrent load must be exactly one of the two
    // oracle answers, tagged with the generation it came from, and a
    // connection must never step back to an older generation.
    let dict_a = dict_with(&[("old", 5000.0)]);
    let dict_b = dict_with(&[("old", 5000.0), ("new", 7000.0)]);
    let line = recognize_line(&[7000.0, 7000.0]);
    let want1 = render_answer(
        "OK",
        1,
        &dict_a.recognize(&query(&[7000.0, 7000.0])).normalized(),
    );
    let want2 = render_answer(
        "OK",
        2,
        &dict_b.recognize(&query(&[7000.0, 7000.0])).normalized(),
    );
    assert!(want1.ends_with("unknown"));
    assert!(want2.ends_with("recognized new"));

    let server = start_server(snapshot_engine(&dict_a), |_| {});
    let addr = server.local_addr();
    // Pin down generation 1 before any load.
    assert_eq!(Client::connect(addr).request(&line), want1);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let (line, want1, want2) = (&line, &want1, &want2);
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut seen_gen2 = false;
                    let mut answered = 0u64;
                    for _ in 0..5_000 {
                        let got = client.request(line);
                        answered += 1;
                        if &got == want2 {
                            seen_gen2 = true;
                        } else {
                            assert_eq!(&got, want1, "answer from neither publication");
                            assert!(!seen_gen2, "generation went backwards on one connection");
                        }
                        if seen_gen2 && answered > 100 {
                            break;
                        }
                    }
                    assert!(seen_gen2, "never observed the new publication");
                    answered
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(server.publish(snapshot_engine(&dict_b)), 2);
        let total: u64 = workers
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .sum();
        assert!(total > 0);
    });

    assert_eq!(server.generation(), 2);
    assert!(server.metrics_text().contains("efd_snapshot_swaps_total 1"));
    server.shutdown();
    server.join();
}

#[test]
fn pipelined_bursts_keep_every_counter_exact() {
    let dict = dict_with(&corpus());
    let server = start_server(snapshot_engine(&dict), |_| {});
    let addr = server.local_addr();

    // 64 mixed-verdict frames with one longer than a read chunk in the
    // middle (its buffers are dropped mid-burst), closed by STATS.
    let mix = query_mix();
    let mut queries: Vec<Vec<f64>> = (0..64).map(|i| mix[i % mix.len()].to_vec()).collect();
    queries.insert(32, vec![6000.25; 2500]);
    let lines: Vec<String> = queries.iter().map(|q| recognize_line(q)).collect();
    assert!(lines[32].len() > READ_CHUNK);
    let expected: Vec<String> = queries
        .iter()
        .map(|q| render_answer("OK", 1, &dict.recognize(&query(q)).normalized()))
        .collect();
    let mut verdicts = [("recognized", 0u64), ("ambiguous", 0), ("unknown", 0)];
    for want in &expected {
        let kind = want.split(' ').nth(4).expect("verdict word");
        verdicts
            .iter_mut()
            .find(|(k, _)| *k == kind)
            .expect("known verdict")
            .1 += 1;
    }
    assert!(
        verdicts.iter().all(|&(_, n)| n > 0),
        "the mix hits every verdict"
    );
    let mut burst = Vec::new();
    for line in lines.iter().map(String::as_str).chain(["STATS"]) {
        write_frame(&mut burst, line.as_bytes()).expect("frame into a Vec");
    }
    let n = lines.len() as u64;

    // Each connection writes its whole burst at once and reads back
    // every reply; the STATS pipelined behind the burst counts all of
    // it, and itself.
    let read_burst = |client: &mut Client| -> u64 {
        for want in &expected {
            assert_eq!(&client.recv(), want);
        }
        let stats = client.recv();
        let requests = stats.rsplit("requests=").next().expect("requests field");
        requests
            .parse()
            .unwrap_or_else(|_| panic!("bad STATS line {stats:?}"))
    };
    let mut clients = [Client::connect(addr), Client::connect(addr)];
    // One after the other: each STATS is exact.
    for (i, client) in clients.iter_mut().enumerate() {
        client.stream.write_all(&burst).expect("write burst");
        assert_eq!(read_burst(client), (i as u64 + 1) * (n + 1));
    }
    // Both at once: each STATS sees at least its own burst.
    for client in &mut clients {
        client.stream.write_all(&burst).expect("write burst");
    }
    for client in &mut clients {
        let requests = read_burst(client);
        assert!(
            (3 * (n + 1)..=4 * (n + 1)).contains(&requests),
            "{requests}"
        );
    }

    let (_, body) = http_get(addr, "/metrics");
    let mut needles = vec![
        format!("efd_requests_total{{command=\"recognize\"}} {}", 4 * n),
        "efd_requests_total{command=\"stats\"} 4".to_string(),
        format!("efd_request_duration_seconds_count {}", 4 * (n + 1)),
        format!(
            "efd_request_duration_seconds_bucket{{le=\"+Inf\"}} {}",
            4 * (n + 1)
        ),
    ];
    for (kind, count) in verdicts {
        needles.push(format!(
            "efd_verdicts_total{{verdict=\"{kind}\"}} {}",
            4 * count
        ));
    }
    for needle in needles {
        assert!(
            body.contains(&needle),
            "missing {needle:?} in scrape:\n{body}"
        );
    }
    server.shutdown();
    server.join();
}

/// `efd_request_duration_seconds`' `_count` and `_sum` in a scrape.
fn duration_totals(scrape: &str) -> (u64, f64) {
    let sample = |name: &str| -> &str {
        scrape
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {name} in scrape:\n{scrape}"))
    };
    let count = sample("efd_request_duration_seconds_count");
    let sum = sample("efd_request_duration_seconds_sum");
    (
        count.parse().expect("integer count"),
        sum.parse().expect("float sum"),
    )
}

#[test]
fn a_pipelined_burst_observes_one_duration_per_request_without_overlap() {
    let dict = dict_with(&corpus());
    let server = start_server(snapshot_engine(&dict), |_| {});
    let mut client = Client::connect(server.local_addr());
    assert_eq!(
        client.request(&recognize_line(&[6000.0, 6000.0])),
        "OK 1 2 2 recognized ft"
    );
    let (count0, sum0) = duration_totals(&server.metrics_text());

    // One burst, written at once: after its first request, each request
    // starts where the reply before it was buffered.
    let mix = query_mix();
    let n = 300usize;
    let mut burst = Vec::new();
    for i in 0..n {
        write_frame(&mut burst, recognize_line(&mix[i % mix.len()]).as_bytes())
            .expect("frame into a Vec");
    }
    let sent = Instant::now();
    client.stream.write_all(&burst).expect("write burst");
    for _ in 0..n {
        assert!(client.recv().starts_with("OK 1 "));
    }
    let wall = sent.elapsed().as_secs_f64();

    let (count, sum) = duration_totals(&server.metrics_text());
    assert_eq!(count - count0, n as u64, "one observation per request");
    assert!(
        sum - sum0 <= wall,
        "the burst's durations sum to {}s, more than the {wall}s from first send to last \
         reply: the spans overlap",
        sum - sum0
    );
    server.shutdown();
    server.join();
}

#[test]
fn an_idle_connection_releases_a_swapped_out_engine() {
    let dict = dict_with(&corpus());
    let old = Arc::new(Snapshot::freeze(&dict));
    let weak = Arc::downgrade(&old);
    let server = start_server(Engine::fixed(old, dict.len(), "snapshot"), |_| {});
    let mut client = Client::connect(server.local_addr());
    let line = recognize_line(&[6000.0, 6000.0]);
    assert_eq!(client.request(&line), "OK 1 2 2 recognized ft");

    // The connection answered against generation 1 and now idles.
    assert_eq!(server.publish(snapshot_engine(&dict)), 2);
    let deadline = Instant::now() + Duration::from_secs(1);
    while weak.upgrade().is_some() {
        assert!(
            Instant::now() < deadline,
            "an idle connection kept the swapped-out engine alive for 1 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(client.request(&line), "OK 2 2 2 recognized ft");
    server.shutdown();
    server.join();
}

#[test]
fn swap_command_and_hup_flag_republish_from_dictionary_files() {
    let dir = scratch_dir("swap");
    let dict_a = dict_with(&[("old", 5000.0)]);
    let dict_b = dict_with(&[("old", 5000.0), ("new", 7000.0)]);
    let path_a = write_efdb(&dir, "a.efdb", &dict_a);
    let path_b = write_efdb(&dir, "b.efdb", &dict_b);

    let src = DictSource::open(path_a.to_str().unwrap(), None).expect("read initial dictionary");
    let engine = Engine::load(src, Backend::Snapshot, &catalog()).expect("load initial engine");
    let path_a_cfg = path_a.clone();
    let server = start_server(engine, move |cfg| cfg.reload_path = Some(path_a_cfg));
    let mut client = Client::connect(server.local_addr());
    let line = recognize_line(&[7000.0, 7000.0]);

    assert_eq!(client.request(&line), "OK 1 0 2 unknown");
    // Explicit-path SWAP republishes b.efdb as generation 2.
    assert_eq!(
        client.request(&format!("SWAP {}", path_b.display())),
        format!("SWAPPED 2 {} -", dict_b.len())
    );
    assert_eq!(client.request(&line), "OK 2 2 2 recognized new");
    // A failed swap is a structured error and keeps the generation.
    let resp = client.request(&format!("SWAP {}", dir.join("missing.efdb").display()));
    assert!(resp.starts_with("ERR swap-failed"), "got {resp:?}");
    assert_eq!(server.generation(), 2);
    // The SIGHUP flag reloads the configured path (back to dict A).
    server
        .hup_flag()
        .store(true, std::sync::atomic::Ordering::SeqCst);
    wait_until("SIGHUP reload", || server.generation() == 3);
    assert_eq!(client.request(&line), "OK 3 0 2 unknown");

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_daemon_learns_over_the_wire_and_refuses_swaps() {
    let dir = scratch_dir("wal");
    let (durable, recovery) = DurableDictionary::open(
        &dir,
        RoundingDepth::new(2),
        &catalog(),
        WalOptions::default(),
    )
    .expect("open WAL dir");
    assert_eq!(recovery.replayed, 0, "fresh WAL dir has nothing to replay");
    let server = start_server(efd_serve::net::Engine::durable(Arc::new(durable)), |_| {});
    let mut client = Client::connect(server.local_addr());
    let line = recognize_line(&[6000.0, 6000.0]);

    assert_eq!(client.request(&line), "OK 1 0 2 unknown");
    assert_eq!(
        client.request(&format!(
            "LEARN ft X {METRIC} {} {} 6000 6000",
            W.start, W.end
        )),
        "LEARNED 2"
    );
    // Learns are visible immediately, in place: same generation.
    assert_eq!(client.request(&line), "OK 1 2 2 recognized ft");
    assert!(client.request("SWAP").starts_with("ERR bad-state"));
    assert!(client
        .request("STATS")
        .starts_with("STATS gen=1 keys=2 backend=durable version=-"));

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_daemon_refuses_an_over_long_learn_and_keeps_serving() {
    let dir = scratch_dir("wal-long");
    let open = || {
        DurableDictionary::open(
            &dir,
            RoundingDepth::new(2),
            &catalog(),
            WalOptions {
                sync: SyncPolicy::Always,
                ..WalOptions::default()
            },
        )
        .expect("open WAL dir")
    };
    let server = start_server(efd_serve::net::Engine::durable(Arc::new(open().0)), |_| {});
    let mut client = Client::connect(server.local_addr());
    let (start, end) = (W.start, W.end);

    // A 70 000-byte app name fits a frame but not the WAL's u16 length.
    let long = "a".repeat(70_000);
    let resp = client.request(&format!("LEARN {long} X {METRIC} {start} {end} 6000 6000"));
    assert!(resp.starts_with("ERR malformed"), "got {resp:?}");
    assert_eq!(
        client.request(&format!("LEARN ft X {METRIC} {start} {end} 6000 6000")),
        "LEARNED 2"
    );
    assert_eq!(
        client.request(&recognize_line(&[6000.0, 6000.0])),
        "OK 1 2 2 recognized ft"
    );
    server.shutdown();
    server.join();

    // The refused learn left no record behind: recovery replays one.
    let (_, recovery) = open();
    assert_eq!(recovery.tail_fault, None);
    assert_eq!(recovery.replayed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_command_stops_the_daemon_and_frees_the_port() {
    let dict = dict_with(&corpus());
    let server = start_server(snapshot_engine(&dict), |_| {});
    let addr = server.local_addr();
    let mut client = Client::connect(addr);
    assert!(client.request("STATS").starts_with(&format!(
        "STATS gen=1 keys={} backend=snapshot version=-",
        dict.len()
    )));
    assert_eq!(client.request("SHUTDOWN"), "BYE");
    let summary = server.join();
    assert!(summary.requests >= 2);
    assert!(summary.connections >= 1);
    // The listener is gone: a fresh connect must be refused.
    assert!(std::net::TcpStream::connect(addr).is_err());
}
