//! Serving throughput: single-thread oracle vs sharded batch recognition.
//!
//! The `efd_serve` acceptance claim, quantified: freeze the trained
//! dictionary into a [`efd_serve::Snapshot`] and answer a ≥ 10 000-query
//! stream across worker threads, against the single-threaded
//! [`efd_core::EfdDictionary::recognize`] loop as baseline. Two served
//! modes are measured:
//!
//! * `batch_full` — full [`efd_core::Recognition`] per query (vote
//!   tables, normalized ordering) through
//!   [`efd_core::engine::ParallelRecognize::recognize_batch_parallel`]:
//!   answer-identical to the oracle.
//! * `batch_best` — the verdict-only path: each worker of
//!   [`efd_util::parallel_map_init`] runs
//!   [`efd_core::engine::Recognize::answer_into`] into its own reused
//!   scratch and [`efd_core::engine::Answer`] (no allocation once warm)
//!   and keeps only the application name the paper's evaluation scores,
//!   `Answer::apps().next()`.
//!
//! Speedup comes from two independent levers: worker parallelism
//! (`EFD_THREADS`, default = available cores) and the dense-counter read
//! path that skips the oracle's per-query vote hash maps.
//!
//! A trait-dispatch leg quantifies the engine-API redesign: the same
//! snapshot driven single-threaded through (a) direct `recognize_into`
//! calls (the pre-redesign inherent `recognize_with` shape — identical
//! machine code), (b) a generic `R: Recognize` driver (static dispatch,
//! monomorphized), and (c) a `Box<dyn Recognize>` (vtable dispatch).
//! Acceptance: the generic path is within noise (≥ 0.95×) of the direct
//! path.
//!
//! A request-path leg replays the same stream as `RECOGNIZE` lines
//! through the published `Arc<dyn Recognize + Send + Sync>`, two ways:
//! the owned path (`Request::parse` → `Query::from_node_means` →
//! `recognize_into` → `render_answer`) and the daemon's answer path
//! (`RequestRef::parse` into a reused means buffer → `set_node_means` →
//! `answer_into` → `write_answer` into a reused reply buffer). It prints
//! ns per request for each and asserts the replies are byte-identical.
//!
//! Knobs: `EFD_SERVE_QUERIES` (default 10000), `EFD_SERVE_REPS`
//! (default 5; best-of-N wall clock per row).

use std::sync::Arc;
use std::time::Instant;

use criterion::black_box;
use efd_bench::{bench_dataset, headline_metric};
use efd_core::engine::{Answer, ParallelRecognize, Recognize, VoteScratch};
use efd_core::observation::{LabeledObservation, Query};
use efd_core::training::{Efd, EfdConfig};
use efd_core::RoundingDepth;
use efd_serve::net::protocol::{render_answer, write_answer, Request, RequestRef};
use efd_serve::Snapshot;
use efd_telemetry::trace::MetricSelection;
use efd_telemetry::Interval;
use efd_util::{num_threads, parallel_map_init, SplitMix64, TextTable};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// Best-of-`reps` wall-clock seconds for one pass over the workload.
fn time_best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let n_queries = env_usize("EFD_SERVE_QUERIES", 10_000);
    let reps = env_usize("EFD_SERVE_REPS", 5);

    let dataset = bench_dataset();
    let metric = headline_metric(&dataset);
    let sel = MetricSelection::single(metric);
    let means: Vec<Vec<f64>> = dataset
        .window_means_all(&sel, Interval::PAPER_DEFAULT)
        .into_iter()
        .map(|per_node| per_node.into_iter().map(|m| m[0]).collect())
        .collect();
    let labels = dataset.labels();
    let observations: Vec<LabeledObservation> = (0..dataset.len())
        .map(|i| LabeledObservation {
            label: labels[i].clone(),
            query: Query::from_node_means(metric, Interval::PAPER_DEFAULT, &means[i]),
        })
        .collect();
    let efd = Efd::fit(
        EfdConfig::single_metric_fixed(metric, RoundingDepth::new(3)),
        &observations,
    );
    let dict = efd.dictionary().clone();

    // ≥ 10k-query stream: the dataset's runs, repeated with ±0.2% jitter.
    let mut rng = SplitMix64::new(0x5E21E);
    let queries: Vec<Query> = (0..n_queries)
        .map(|i| {
            let jittered: Vec<f64> = means[i % means.len()]
                .iter()
                .map(|m| m * (1.0 + (rng.next_f64() - 0.5) * 0.004))
                .collect();
            Query::from_node_means(metric, Interval::PAPER_DEFAULT, &jittered)
        })
        .collect();

    println!(
        "workload: {} queries over a {}-entry dictionary (depth {}), {} worker threads\n",
        queries.len(),
        dict.len(),
        dict.depth(),
        num_threads(queries.len()),
    );

    // Baseline: single-thread oracle loop, full Recognition per query.
    let t_oracle = time_best_of(reps, || {
        for q in &queries {
            black_box(dict.recognize(q).matched_points);
        }
    });
    let qps_oracle = queries.len() as f64 / t_oracle;

    let mut table = TextTable::new(vec!["mode", "time ms", "q/s", "speedup"])
        .with_title("Serving throughput vs single-thread oracle".to_string());
    table.add_row(vec![
        "oracle_single_thread".to_string(),
        format!("{:.1}", t_oracle * 1e3),
        format!("{qps_oracle:.0}"),
        "1.00x".to_string(),
    ]);

    let snapshot = Snapshot::freeze(&dict);
    let t_full = time_best_of(reps, || {
        black_box(snapshot.recognize_batch_parallel(&queries).len());
    });
    let t_best = time_best_of(reps, || {
        let best = parallel_map_init(
            &queries,
            || (VoteScratch::default(), Answer::default()),
            |(scratch, answer), q| {
                snapshot.answer_into(q, scratch, answer);
                answer.apps().next().map(str::to_string)
            },
        );
        black_box(best.len());
    });
    for (mode, t) in [("batch_full", t_full), ("batch_best", t_best)] {
        table.add_row(vec![
            mode.to_string(),
            format!("{:.1}", t * 1e3),
            format!("{:.0}", queries.len() as f64 / t),
            format!("{:.2}x", t_oracle / t),
        ]);
    }
    println!("{}", table.render());

    let (speedup_full, speedup_best) = (t_oracle / t_full, t_oracle / t_best);
    println!(
        "\nacceptance: batch recognition on {} queries:",
        queries.len()
    );
    println!("  full-fidelity batch : {speedup_full:.2}x single-thread");
    println!("  verdict-only batch  : {speedup_best:.2}x single-thread");
    let ok = speedup_full.max(speedup_best) >= 2.0;
    println!(
        "  >= 2x threshold     : {}",
        if ok { "PASS" } else { "MISS" }
    );

    // ------------------------------------------------------------------
    // Trait-dispatch overhead: the engine API must not tax the hot path.
    // All three drivers are single-threaded over the same snapshot with
    // one reused scratch, so the only variable is the dispatch mechanism.
    // ------------------------------------------------------------------

    /// Generic driver: monomorphizes per backend — this is what every
    /// `R: Recognize` call site compiles to.
    fn drive<R: Recognize>(backend: &R, queries: &[Query], scratch: &mut VoteScratch) -> usize {
        let mut matched = 0usize;
        for q in queries {
            matched += backend.recognize_into(q, scratch).matched_points;
        }
        matched
    }

    let boxed: Box<dyn Recognize + Send + Sync> = Box::new(snapshot.clone());
    let mut scratch = VoteScratch::default();

    // Direct method calls on the concrete type — byte-for-byte the
    // pre-redesign inherent `recognize_with` loop.
    let t_direct = time_best_of(reps, || {
        let mut matched = 0usize;
        for q in &queries {
            matched += snapshot.recognize_into(q, &mut scratch).matched_points;
        }
        black_box(matched);
    });
    let t_generic = time_best_of(reps, || {
        black_box(drive(&snapshot, &queries, &mut scratch));
    });
    let t_dyn = time_best_of(reps, || {
        black_box(drive(&boxed, &queries, &mut scratch));
    });

    let mut dispatch = TextTable::new(vec!["dispatch", "time ms", "q/s", "vs direct"])
        .with_title("Engine-API dispatch overhead (single thread, 8 shards)".to_string());
    for (mode, t) in [
        ("direct (inherent shape)", t_direct),
        ("generic R: Recognize", t_generic),
        ("Box<dyn Recognize>", t_dyn),
    ] {
        dispatch.add_row(vec![
            mode.to_string(),
            format!("{:.1}", t * 1e3),
            format!("{:.0}", queries.len() as f64 / t),
            format!("{:.2}x", t_direct / t),
        ]);
    }
    println!("\n{}", dispatch.render());

    let generic_ratio = t_direct / t_generic;
    println!("\nacceptance: generic trait path vs pre-redesign inherent path:");
    println!("  generic/static      : {generic_ratio:.2}x direct");
    println!("  dyn box             : {:.2}x direct", t_direct / t_dyn);
    println!(
        "  >= 0.95x threshold  : {}",
        if generic_ratio >= 0.95 { "PASS" } else { "MISS" }
    );

    // ------------------------------------------------------------------
    // Request path: owned parse/recognize/render vs the answer path, on
    // the same RECOGNIZE lines, single-threaded, one reused scratch.
    // ------------------------------------------------------------------
    let catalog = dataset.catalog();
    let metric_name = catalog.name(metric);
    let lines: Vec<String> = queries
        .iter()
        .map(|q| {
            let w = q.points[0].interval;
            let means: Vec<String> = q.points.iter().map(|p| p.mean.to_string()).collect();
            let (start, end) = (w.start, w.end);
            format!("RECOGNIZE {metric_name} {start} {end} {}", means.join(" "))
        })
        .collect();
    let engine: Arc<dyn Recognize + Send + Sync> = Arc::new(Snapshot::freeze(&dict));

    let owned = |line: &str, scratch: &mut VoteScratch| -> String {
        let Ok(Request::Recognize {
            metric,
            start,
            end,
            means,
        }) = Request::parse(line)
        else {
            panic!("not a RECOGNIZE line: {line}");
        };
        let m = catalog.id(&metric).expect("catalog metric");
        let q = Query::from_node_means(m, Interval::new(start, end), &means);
        render_answer("OK", 1, &engine.recognize_into(&q, scratch).normalized())
    };
    #[derive(Default)]
    struct Buffers {
        means: Vec<f64>,
        query: Query,
        answer: Answer,
        reply: Vec<u8>,
    }
    let answer = |line: &str, scratch: &mut VoteScratch, b: &mut Buffers| {
        let Ok(RequestRef::Recognize { metric, start, end }) =
            RequestRef::parse(line, &mut b.means)
        else {
            panic!("not a RECOGNIZE line: {line}");
        };
        let m = catalog.id(metric).expect("catalog metric");
        b.query
            .set_node_means(m, Interval::new(start, end), &b.means);
        engine.answer_into(&b.query, scratch, &mut b.answer);
        b.reply.clear();
        write_answer(&mut b.reply, "OK", 1, &b.answer);
    };

    // Same replies, byte for byte, before anything is timed.
    let mut bufs = Buffers::default();
    let mut verdicts = [0usize; 3];
    for line in &lines {
        let want = owned(line, &mut scratch);
        answer(line, &mut scratch, &mut bufs);
        assert_eq!(bufs.reply, want.as_bytes(), "reply to {line}");
        verdicts[bufs.answer.tied().min(2)] += 1;
    }
    let t_owned = time_best_of(reps, || {
        for line in &lines {
            black_box(owned(line, &mut scratch).len());
        }
    });
    let t_answer = time_best_of(reps, || {
        for line in &lines {
            answer(line, &mut scratch, &mut bufs);
            black_box(bufs.reply.len());
        }
    });

    let per_request = |t: f64| t * 1e9 / lines.len() as f64;
    let mut path = TextTable::new(vec!["request path", "ns/request", "vs owned"]).with_title(
        format!(
            "RECOGNIZE request path, parse to reply bytes ({} lines: {} unknown, {} recognized, {} ambiguous)",
            lines.len(),
            verdicts[0],
            verdicts[1],
            verdicts[2]
        ),
    );
    for (mode, t) in [
        ("owned (Request::parse, recognize_into)", t_owned),
        ("answer (RequestRef::parse, answer_into)", t_answer),
    ] {
        path.add_row(vec![
            mode.to_string(),
            format!("{:.0}", per_request(t)),
            format!("{:.2}x", t_owned / t),
        ]);
    }
    println!("\n{}", path.render());
    println!("\nreplies: byte-identical on all {} lines", lines.len());
}
