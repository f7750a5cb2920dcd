//! A warm `RECOGNIZE` allocates nothing.
//!
//! The daemon answers a `RECOGNIZE` frame through connection-owned
//! buffers: borrowed parse into a reused means buffer, a `Query` refilled
//! in place, `answer_into` through the published
//! `Arc<dyn Recognize + Send + Sync>`, and the reply rendered and framed
//! into reused bytes. This binary installs a counting global allocator
//! and drives exactly that path over the store-backed backends
//! (`Snapshot`, `EfdbSnapshot`). After one warm-up pass it requires zero
//! allocations per request for recognized, ambiguous and unknown
//! payloads, and for a request longer than one probe chunk. Going through the trait object also shows that the
//! forwarding impls reach each backend's own `answer_into`: the provided
//! default builds a whole `Recognition` and would allocate.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use common::*;
use efd_core::engine::{Answer, Recognize, VoteScratch};
use efd_core::{binfmt, EfdDictionary, LabeledObservation, Query};
use efd_serve::net::protocol::{render_answer, write_answer, write_frame, Request, RequestRef};
use efd_serve::{EfdbSnapshot, Snapshot};
use efd_telemetry::{AppLabel, Interval, MetricCatalog};

/// The system allocator, counting the calls made by the current thread
/// (the test harness runs tests on parallel threads).
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the thread-local counter is const-initialized, so touching
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocation calls this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

/// Nodes of the long request, more than two probe chunks of 16 points.
const LONG: usize = 40;

/// `ft` alone, `aa`/`bb` tied at one level, nothing near 1234, and `lu`
/// at 9000 on each of [`LONG`] nodes.
fn corpus_dict() -> EfdDictionary {
    let mut dict = dict_with(&[
        ("ft", 6000.0),
        ("cg", 8110.0),
        ("aa", 7500.0),
        ("bb", 7500.0),
    ]);
    dict.learn(&LabeledObservation {
        label: AppLabel::new("lu", "X"),
        query: Query::from_node_means(M, W, &[9000.0; LONG]),
    });
    dict
}

/// One payload per verdict kind, and a [`LONG`]-mean request whose hits
/// (`lu`) and misses (1234.5) span three probe chunks, with the verdict
/// each must produce.
fn payloads() -> Vec<(&'static str, Vec<u8>)> {
    let long = (0..LONG)
        .map(|node| match node % 3 {
            2 => 1234.5,
            _ => 9000.0 + node as f64,
        })
        .collect();
    [
        ("recognized", vec![6010.0, 6000.0]),
        ("ambiguous", vec![7500.0, 7500.0]),
        ("unknown", vec![1234.5, 999.0]),
        ("recognized", long),
    ]
    .into_iter()
    .map(|(kind, means)| (kind, recognize_line(&means).into_bytes()))
    .collect()
}

/// The buffers one daemon connection reuses, and the path it runs.
#[derive(Default)]
struct ConnPath {
    means: Vec<f64>,
    query: Query,
    scratch: VoteScratch,
    answer: Answer,
    reply: Vec<u8>,
    wire: Vec<u8>,
}

impl ConnPath {
    /// Answer one `RECOGNIZE` frame payload; the framed reply is in
    /// `self.wire` afterwards.
    fn answer(
        &mut self,
        engine: &Arc<dyn Recognize + Send + Sync>,
        catalog: &MetricCatalog,
        payload: &[u8],
    ) {
        let line = std::str::from_utf8(payload).expect("UTF-8 payload");
        let Ok(RequestRef::Recognize { metric, start, end }) =
            RequestRef::parse(line, &mut self.means)
        else {
            panic!("not a RECOGNIZE: {line}");
        };
        let m = catalog.id(metric).expect("harness metric");
        self.query
            .set_node_means(m, Interval::new(start, end), &self.means);
        engine.answer_into(&self.query, &mut self.scratch, &mut self.answer);
        self.reply.clear();
        write_answer(&mut self.reply, "OK", 1, &self.answer);
        self.wire.clear();
        write_frame(&mut self.wire, &self.reply).expect("write into a Vec");
    }
}

fn store_backends(dict: &EfdDictionary) -> Vec<(&'static str, Arc<dyn Recognize + Send + Sync>)> {
    let cat = catalog();
    let bytes = binfmt::write_dictionary(dict, &cat);
    vec![
        ("snapshot", Arc::new(Snapshot::freeze(dict))),
        (
            "efdb",
            Arc::new(EfdbSnapshot::load(bytes, &cat).expect("round-tripped EFDB bytes")),
        ),
    ]
}

#[test]
fn warm_recognize_makes_no_allocations_on_store_backends() {
    let dict = corpus_dict();
    let cat = catalog();
    for (backend, engine) in store_backends(&dict) {
        let mut path = ConnPath::default();
        for (_, payload) in payloads() {
            path.answer(&engine, &cat, &payload); // warm-up
        }
        for (kind, payload) in payloads() {
            let n = allocations(|| {
                for _ in 0..100 {
                    path.answer(&engine, &cat, &payload);
                }
            });
            assert_eq!(
                n, 0,
                "{backend}: {n} allocations over 100 warm {kind} requests"
            );

            // And the zero-allocation reply is the oracle's reply.
            let Ok(Request::Recognize { means, .. }) =
                Request::parse(std::str::from_utf8(&payload).unwrap())
            else {
                unreachable!()
            };
            let want = render_answer("OK", 1, &dict.recognize(&query(&means)));
            let mut framed = Vec::new();
            write_frame(&mut framed, want.as_bytes()).unwrap();
            assert_eq!(path.wire, framed, "{backend}: {kind} reply");
            assert!(want.contains(kind), "{want:?} is a {kind} verdict");
        }
    }
}

#[test]
fn the_owned_path_allocates_so_the_counter_sees_it() {
    // The owned path — `Request::parse`, `recognize_into`,
    // `render_answer` — allocates on every request; if this reads zero,
    // the counter is broken and the test above proves nothing.
    let dict = corpus_dict();
    let cat = catalog();
    for (backend, engine) in store_backends(&dict) {
        let mut scratch = VoteScratch::default();
        for (kind, payload) in payloads() {
            let line = std::str::from_utf8(&payload).unwrap();
            let mut owned = || {
                let Ok(Request::Recognize {
                    metric,
                    start,
                    end,
                    means,
                }) = Request::parse(line)
                else {
                    unreachable!()
                };
                let q = Query::from_node_means(
                    cat.id(&metric).unwrap(),
                    Interval::new(start, end),
                    &means,
                );
                let rec = engine.recognize_into(&q, &mut scratch).normalized();
                render_answer("OK", 1, &rec)
            };
            owned(); // warm-up
            let n = allocations(|| {
                owned();
            });
            assert!(
                n > 0,
                "{backend}: the owned {kind} path counted no allocations"
            );
        }
    }
}
