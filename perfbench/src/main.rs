//! `efd-perfbench`: the layered benchmark of the `efd serve --listen`
//! recognition daemon.
//!
//! One run serves one workload from one seed:
//!
//! 1. Inputs are generated from the seed (or read from the cache under
//!    `--work`), with the oracle reply of every distinct read.
//! 2. Untraced runs spawn daemon instances one after another, each timed
//!    to its first `PONG` and driven by a closed-loop capacity phase. The
//!    traced run (`--trace 1`) spawns one, driven by a closed loop and
//!    then an open-loop latency phase. Every reply is checked against the
//!    oracle, and each daemon's own `/metrics` counters against the
//!    client's.
//! 3. With `--trace 1`, the same request stream is then replayed in
//!    process through each layer's public functions, with spans around
//!    every call, and the per-layer metrics are reported instead.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod alloc;
mod client;
mod daemon;
mod inputs;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use efd_util::derive_seed;

use client::Tally;
use daemon::{proc_cpu_s, Daemon};
use inputs::{Inputs, Stream, Workload, VERDICTS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Width of the bins whose median the loops report.
const BIN_S: f64 = 0.25;
/// Closed-loop warm-up before the measured phase.
const CLOSED_WARMUP: Duration = Duration::from_millis(300);
/// Open-loop warm-up: sent and checked, not timed.
const OPEN_WARMUP: Duration = Duration::from_millis(300);
/// Requests of the closed-loop stream replayed by the traced run. On
/// learn-mix one in five is a learn, and this many learns log more than
/// one WAL segment's worth, so the served learns include a freeze.
const REPLAY_REQUESTS: usize = 50_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    efd: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut efd = None;
    let mut work = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = value()? == "1",
            "--efd" => efd = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("need --workload")?,
        seed: seed.ok_or("need --seed")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("need --seconds > 0")?,
        trace,
        efd: efd.ok_or("need --efd <path to the efd binary>")?,
        work: work.ok_or("need --work <dir>")?,
    })
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    percentile(&mut s, 0.5)
}

/// Nearest-rank percentile `q` of `v` (sorts in place; 0 when empty).
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Latency samples `(due, latency)` grouped into bins of due time.
fn bin_latencies(samples: &[(f64, f64)], span_s: f64) -> Vec<Vec<f64>> {
    let n = (span_s / BIN_S).floor().max(1.0) as usize;
    let mut bins = vec![Vec::new(); n];
    for &(due, lat) in samples {
        if let Some(b) = bins.get_mut((due / BIN_S) as usize) {
            b.push(lat);
        }
    }
    bins
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn daemon_args(inputs: &Inputs, workers: usize, wal: &std::path::Path) -> Vec<String> {
    let mut a = match inputs.workload {
        Workload::Paper10k | Workload::Keyspace1m => {
            vec!["--load".to_string(), inputs.dict_path.display().to_string()]
        }
        Workload::LearnMix => vec![
            "--wal".to_string(),
            wal.display().to_string(),
            "--depth".to_string(),
            inputs.depth.to_string(),
        ],
    };
    a.extend(["--workers".to_string(), workers.to_string()]);
    a
}

/// Compare the daemon's own counters with what the client saw.
fn cross_check(scrape: &daemon::Scrape, tally: &Tally) -> Vec<String> {
    let mut bad = Vec::new();
    let mut expect = |series: String, want: u64| match scrape.value(&series) {
        Some(v) if v == want as f64 => {}
        got => bad.push(format!("{series} = {got:?}, client counted {want}")),
    };
    expect(
        "efd_requests_total{command=\"recognize\"}".into(),
        tally.reads,
    );
    expect("efd_requests_total{command=\"learn\"}".into(), tally.learns);
    // The one PING is the set-up probe.
    expect("efd_requests_total{command=\"ping\"}".into(), 1);
    for (k, v) in VERDICTS.iter().enumerate() {
        expect(
            format!("efd_verdicts_total{{verdict=\"{v}\"}}"),
            tally.verdicts[k],
        );
    }
    let errors: f64 = scrape
        .0
        .lines()
        .filter(|l| l.starts_with("efd_protocol_errors_total{"))
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()))
        .sum();
    if errors != 0.0 {
        bad.push(format!("daemon counted {errors} protocol errors"));
    }
    bad
}

/// What one daemon instance measured.
struct Served {
    setup_s: f64,
    tally: Tally,
    closed: client::Closed,
    open: Option<client::Open>,
    peak_rss_mib: f64,
    duration_sum: f64,
    duration_count: f64,
    /// Learns sent; past the learn list's length it wraps around.
    learns_sent: usize,
    captured: Option<Vec<Option<Vec<u8>>>>,
}

/// Spawn one daemon (timing its set-up), fill it on learn-mix, run the
/// closed loop for `closed` and then, when given, the open loop for
/// `open`; cross-check its counters and stop it. Each instance starts
/// from a fresh WAL and from the head of the learn list, so every learn
/// it is sent is new to it.
fn serve(
    args: &Args,
    inputs: &Inputs,
    workers: usize,
    seed: u64,
    k: usize,
    closed: Duration,
    open: Option<Duration>,
) -> Result<Served, String> {
    let wal = args.work.join(format!("wal-daemon-{k}"));
    let _ = std::fs::remove_dir_all(&wal);
    let learns: client::LearnCursor = Arc::new(AtomicUsize::new(0));
    let (daemon, setup) = Daemon::spawn(&args.efd, &daemon_args(inputs, workers, &wal))?;
    let mut tally = Tally::default();
    if !inputs.fill.is_empty() {
        tally.add(&client::fill(&daemon, inputs)?);
    }
    let warm = client::closed_loop(
        &daemon,
        inputs,
        derive_seed(seed, &[0x3A2]),
        workers,
        CLOSED_WARMUP,
        BIN_S,
        &learns,
        &mut None,
    )?;
    tally.add(&warm.tally);
    let mut captured = args.trace.then(|| vec![None; inputs.reads.len()]);
    let closed = client::closed_loop(
        &daemon,
        inputs,
        seed,
        workers,
        closed,
        BIN_S,
        &learns,
        &mut captured,
    )?;
    tally.add(&closed.tally);
    let open = match open {
        Some(phase) => {
            let o = client::open_loop(
                &daemon,
                inputs,
                seed,
                workers,
                inputs.workload.open_rate(),
                OPEN_WARMUP,
                phase,
                &learns,
            )?;
            tally.add(&o.tally);
            Some(o)
        }
        None => None,
    };
    let scrape = daemon.scrape()?;
    let peak_rss_mib = daemon.peak_rss_mib()?;
    for m in cross_check(&scrape, &tally) {
        tally.fail(format!("counter mismatch: {m}"));
    }
    daemon.stop()?;
    let _ = std::fs::remove_dir_all(&wal);
    tally.sent += 1; // the set-up PING
    Ok(Served {
        setup_s: setup.as_secs_f64(),
        tally,
        closed,
        open,
        peak_rss_mib,
        duration_sum: scrape
            .value("efd_request_duration_seconds_sum")
            .unwrap_or(0.0),
        duration_count: scrape
            .value("efd_request_duration_seconds_count")
            .unwrap_or(0.0),
        learns_sent: learns.load(Ordering::Relaxed),
        captured,
    })
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let started = Instant::now();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let inputs = inputs::prepare(w, args.seed, &args.work.join("cache"))?;
    let efdb_bytes = std::fs::metadata(&inputs.dict_path)
        .map_err(|e| e.to_string())?
        .len();
    let descriptor = inputs::descriptor(&inputs, args.seed, efdb_bytes);
    std::fs::write(
        args.work.join(format!("descriptor-{}.json", w.name())),
        &descriptor,
    )
    .map_err(|e| e.to_string())?;
    eprintln!("perfbench: workload {descriptor}");
    eprintln!(
        "perfbench: inputs ready after {:.2} s; nproc {workers}",
        started.elapsed().as_secs_f64()
    );

    // Untraced runs set up several daemon instances one after another and
    // split the closed loop between them: the run's figures pool their
    // bins, so one instance's luck (memory placement, a stalled moment on
    // the host) cannot move a whole run. The traced run serves one
    // instance, half of the time in the closed loop and half in the open
    // loop, whose latencies are per-layer figures.
    let instances = if args.trace { 1 } else { w.instances() };
    let (closed, open) = if args.trace {
        let half = Duration::from_secs_f64(args.seconds / 2.0);
        (half, Some(half))
    } else {
        (
            Duration::from_secs_f64(args.seconds / instances as f64),
            None,
        )
    };
    if closed.as_secs_f64() < BIN_S {
        return Err(format!(
            "--seconds {} leaves {:.3} s per closed loop, under one {BIN_S} s bin",
            args.seconds,
            closed.as_secs_f64()
        ));
    }
    let client_cpu0 = proc_cpu_s("/proc/self/stat")?;
    let mut runs = Vec::with_capacity(instances);
    for k in 0..instances {
        let seed = derive_seed(args.seed, &[k as u64]);
        runs.push(serve(&args, &inputs, workers, seed, k, closed, open)?);
    }
    let client_cpu = proc_cpu_s("/proc/self/stat")? - client_cpu0;

    // Pool the bins of every instance. Timings are medians over bins, so
    // a host stall confined to a minority of bins moves none of them.
    let mut tally = Tally::default();
    let (mut rps_bins, mut cpu_bins) = (vec![], vec![]);
    let (mut setups, mut peaks) = (vec![], vec![]);
    let (mut duration_sum, mut duration_count) = (0.0, 0.0);
    for r in &runs {
        tally.add(&r.tally);
        rps_bins.extend(r.closed.bins.iter().map(|&b| b as f64 / BIN_S));
        cpu_bins.extend(
            r.closed
                .cpu_bins
                .iter()
                .zip(&r.closed.bins)
                .filter(|(_, &b)| b > 0)
                .map(|(c, &b)| c * 1e6 / b as f64),
        );
        setups.push(r.setup_s);
        peaks.push(r.peak_rss_mib);
        duration_sum += r.duration_sum;
        duration_count += r.duration_count;
    }
    let cpu_us_per_request = median(&cpu_bins);
    eprintln!(
        "perfbench: {instances} instances, set-up {setups:?} s; closed loop {} bins",
        rps_bins.len(),
    );
    if let Some(f) = &tally.first_failure {
        eprintln!("perfbench: first failure: {f}");
    }
    if runs.iter().any(|r| r.learns_sent > inputs.learns.len()) {
        eprintln!("perfbench: learn stream wrapped: later learns repeat earlier observations");
    }

    let mut metrics: Vec<trace::Metric> = Vec::new();
    let mut attempted = tally.sent;
    let mut failed = tally.failed;
    if args.trace {
        let served = runs.pop().ok_or("the traced run served no instance")?;
        let phase = open.ok_or("the traced run has no open loop")?;
        let open = served.open.ok_or("the traced run has no open loop")?;
        let us = |v: &mut Vec<f64>, q: f64| percentile(v, q) * 1e6;
        let p50_bins: Vec<f64> = bin_latencies(&open.read_latency, phase.as_secs_f64())
            .into_iter()
            .filter(|b| !b.is_empty())
            .map(|mut b| percentile(&mut b, 0.5) * 1e6)
            .collect();
        let mut reads: Vec<f64> = open.read_latency.iter().map(|&(_, l)| l).collect();
        let (mut learn_latency, mut send_lag) = (open.learn_latency, open.send_lag);
        eprintln!(
            "perfbench: open loop at {} req/s: {} read samples (p90 {:.1} us, p99 {:.1} us), \
             {} learn samples (p99 {:.1} us), send lag p99 {:.1} us",
            w.open_rate(),
            reads.len(),
            us(&mut reads, 0.9),
            us(&mut reads, 0.99),
            learn_latency.len(),
            us(&mut learn_latency, 0.99),
            us(&mut send_lag, 0.99),
        );

        // The stream of the traced instance's first closed-loop
        // connection: `serve` seeds instance 0 with `[0]`, and
        // `closed_loop` seeds its connection 0 with `[0]` again.
        let mut stream = Stream::new(
            &inputs,
            derive_seed(derive_seed(args.seed, &[0]), &[0]),
            Arc::new(AtomicUsize::new(0)),
        );
        let reqs: Vec<_> = (0..REPLAY_REQUESTS).map(|_| stream.next_req()).collect();
        let replies = served.captured.unwrap_or_default();
        let side = trace::DaemonSide {
            cpu_us_per_request,
            replies: &replies,
        };
        let t = Instant::now();
        let replay = trace::replay(&inputs, &reqs, &args.work, &side)?;
        eprintln!(
            "perfbench: traced replay in {:.2} s",
            t.elapsed().as_secs_f64()
        );
        if let Some(f) = &replay.first_failure {
            eprintln!("perfbench: replay failure: {f}");
        }
        attempted += replay.attempted;
        failed += replay.failed;
        metrics = replay.metrics;
        metrics.push((
            "server.request_duration_mean_us".into(),
            duration_sum / duration_count.max(1.0) * 1e6,
            "us",
        ));
        metrics.push(("loadgen.latency_p50_us".into(), median(&p50_bins), "us"));
        metrics.push(("loadgen.latency_p90_us".into(), us(&mut reads, 0.9), "us"));
        metrics.push(("loadgen.latency_p99_us".into(), us(&mut reads, 0.99), "us"));
        metrics.push((
            "loadgen.latency_samples".into(),
            reads.len() as f64,
            "count",
        ));
        metrics.push((
            "loadgen.send_lag_p99_us".into(),
            us(&mut send_lag, 0.99),
            "us",
        ));
        let answered = tally.answered.max(1) as f64;
        metrics.push((
            "loadgen.client_cpu_us_per_request".into(),
            client_cpu * 1e6 / answered,
            "us",
        ));
    } else {
        metrics.push(("setup_s".into(), median(&setups), "s"));
        metrics.push(("requests_per_s".into(), median(&rps_bins), "1/s"));
        metrics.push(("cpu_us_per_request".into(), cpu_us_per_request, "us"));
        metrics.push(("peak_rss_mib".into(), median(&peaks), "MiB"));
    }
    for (name, v, unit) in &metrics {
        eprintln!("perfbench: {:<36} {v:>14.3} {unit}", name);
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
    }
    eprintln!(
        "perfbench: {} attempted, {failed} failed, {:.1} s total",
        attempted,
        started.elapsed().as_secs_f64()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}
