//! Batch recognition: fan a slice of queries out over worker threads.
//!
//! SIREN-style serving receives recognition work in batches (a scheduler
//! tick, a telemetry flush), not one query at a time. [`BatchRecognizer`]
//! answers a `&[Query]` with [`efd_util::parallel_map_init`]: dynamic
//! load balancing (queries differ in node count and match rate), one
//! [`VoteScratch`] per worker, results in input order. Thread count
//! follows `efd_util::num_threads` (`EFD_THREADS` overrides).
//!
//! The recognizer is generic over **any** engine backend
//! (`R: Recognize + Sync`, defaulting to [`Snapshot`]) — including trait
//! objects, so a runtime-selected `Arc<dyn Recognize + Send + Sync>`
//! serves through the same front end as a statically-typed snapshot
//! (`efd serve --backend …` does exactly that).

use std::fmt;
use std::sync::Arc;

use efd_core::engine::{Recognize, VoteScratch};
use efd_core::{Query, Recognition};
use efd_util::parallel_map_init;

use crate::snapshot::Snapshot;

/// Parallel batch front end over a published engine backend.
///
/// Cloning is cheap (an `Arc` bump); clones serve the same backend until
/// one of them [`swap`](BatchRecognizer::swap)s in a newer publication
/// (RCU semantics: in-flight batches finish on the backend they started
/// with).
///
/// ```
/// use std::sync::Arc;
/// use efd_core::{EfdDictionary, Query, RoundingDepth};
/// use efd_serve::{BatchRecognizer, Snapshot};
/// use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
///
/// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
/// dict.insert_raw(MetricId(0), NodeId(0), Interval::PAPER_DEFAULT, 6020.0,
///                 &AppLabel::new("ft", "X"));
/// let server = BatchRecognizer::new(Arc::new(Snapshot::freeze(&dict)));
///
/// // 64 noisy queries; every mean still rounds to the 6000.0 key at depth 2.
/// let batch: Vec<Query> = (0..64)
///     .map(|i| Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT,
///                                     &[5980.0 + (i % 60) as f64]))
///     .collect();
/// let answers = server.recognize_batch(&batch);
/// assert_eq!(answers.len(), 64);
/// assert!(answers.iter().all(|r| r.best() == Some("ft")));
/// ```
///
/// Runtime backend selection through the object-safe trait:
///
/// ```
/// use std::sync::Arc;
/// use efd_core::{EfdDictionary, Query, Recognize, RoundingDepth};
/// use efd_serve::{BatchRecognizer, ShardedDictionary, Snapshot};
/// use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
///
/// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
/// dict.insert_raw(MetricId(0), NodeId(0), Interval::PAPER_DEFAULT, 6020.0,
///                 &AppLabel::new("ft", "X"));
/// let backend: Arc<dyn Recognize + Send + Sync> = if true {
///     Arc::new(Snapshot::freeze(&dict))
/// } else {
///     Arc::new(ShardedDictionary::from_parts(dict.to_parts(), 8))
/// };
/// let server = BatchRecognizer::new(backend);
/// let q = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[6004.0]);
/// assert_eq!(server.recognize_batch(std::slice::from_ref(&q))[0].best(), Some("ft"));
/// ```
pub struct BatchRecognizer<R: ?Sized = Snapshot> {
    backend: Arc<R>,
}

impl<R: ?Sized> Clone for BatchRecognizer<R> {
    fn clone(&self) -> Self {
        Self {
            backend: Arc::clone(&self.backend),
        }
    }
}

impl<R: ?Sized> fmt::Debug for BatchRecognizer<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchRecognizer").finish_non_exhaustive()
    }
}

impl<R: Recognize + Send + Sync + ?Sized> BatchRecognizer<R> {
    /// Serve the given backend.
    pub fn new(backend: Arc<R>) -> Self {
        Self { backend }
    }

    /// The backend currently served.
    pub fn backend(&self) -> &Arc<R> {
        &self.backend
    }

    /// Swap in a newer publication. In-flight batches on other clones
    /// finish against the backend they started with (RCU semantics).
    pub fn swap(&mut self, backend: Arc<R>) {
        self.backend = backend;
    }

    /// Recognize every query, in input order, across worker threads.
    ///
    /// Internally the batch is processed in **key-locality order**:
    /// queries sorted by their first point's raw key fields, so
    /// neighboring workers probe neighboring key records / shard lines
    /// instead of striding the whole store per query. Answers are
    /// scattered back to input order — the ordering is a cache strategy,
    /// never visible in results.
    pub fn recognize_batch(&self, queries: &[Query]) -> Vec<Recognition> {
        let order = locality_order(queries);
        let answered = parallel_map_init(&order, VoteScratch::default, |scratch, &i| {
            (i, self.backend.recognize_into(&queries[i], scratch))
        });
        scatter(answered, queries.len())
    }
}

/// Query indices sorted by the first point's raw key fields — the same
/// `(metric, node, start, end, mean)` prefix the stores sort and hash
/// by, so adjacent batch items probe adjacent storage.
fn locality_order(queries: &[Query]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by_key(|&i| {
        queries[i].points.first().map(|p| {
            (
                p.metric.0,
                p.node.0,
                p.interval.start,
                p.interval.end,
                p.mean.to_bits(),
            )
        })
    });
    order
}

/// Scatter `(input index, answer)` pairs back into input order.
fn scatter<T>(answered: Vec<(usize, T)>, len: usize) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for (i, r) in answered {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("every query answered exactly once"))
        .collect()
}

/// A batch front end is itself an engine backend (single queries hit the
/// underlying backend directly), so recognizers compose anywhere a
/// [`Recognize`] is expected.
impl<R: Recognize + Sync + ?Sized> Recognize for BatchRecognizer<R> {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        self.backend.recognize_into(query, scratch)
    }
}

impl BatchRecognizer<Snapshot> {
    /// The snapshot currently served (alias of
    /// [`BatchRecognizer::backend`] for the default instantiation).
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.backend
    }

    /// Scored-verdict-only batch ([`efd_core::Recognition::best`] per
    /// query): skips assembling full vote tables for endpoints that only
    /// need the answer the paper's evaluation scores. The per-query hot
    /// path is allocation-free ([`crate::Snapshot::best_with`]); only the
    /// returned answers allocate.
    pub fn best_batch(&self, queries: &[Query]) -> Vec<Option<String>> {
        let order = locality_order(queries);
        let answered = parallel_map_init(&order, VoteScratch::default, |scratch, &i| {
            (
                i,
                self.backend.best_with(&queries[i], scratch).map(str::to_string),
            )
        });
        scatter(answered, queries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_core::{EfdDictionary, LabeledObservation, RoundingDepth};
    use efd_telemetry::{AppLabel, Interval, MetricId};

    const M: MetricId = MetricId(0);
    const W: Interval = Interval::PAPER_DEFAULT;

    fn snapshot() -> Arc<Snapshot> {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        for (app, mean) in [("ft", 6020.0), ("cg", 8110.0), ("lu", 4320.0)] {
            d.learn(&LabeledObservation {
                label: AppLabel::new(app, "X"),
                query: Query::from_node_means(M, W, &[mean; 4]),
            });
        }
        Arc::new(Snapshot::freeze(&d))
    }

    #[test]
    fn batch_matches_one_at_a_time() {
        let server = BatchRecognizer::new(snapshot());
        let batch: Vec<Query> = [6010.0, 8090.0, 4310.0, 1.0]
            .iter()
            .map(|&m| Query::from_node_means(M, W, &[m; 4]))
            .collect();
        let answers = server.recognize_batch(&batch);
        assert_eq!(answers.len(), batch.len());
        for (q, a) in batch.iter().zip(&answers) {
            assert_eq!(a, &server.snapshot().recognize(q));
        }
        let bests = server.best_batch(&batch);
        assert_eq!(
            bests,
            vec![Some("ft".into()), Some("cg".into()), Some("lu".into()), None]
        );
    }

    #[test]
    fn dyn_backend_matches_static() {
        let snap = snapshot();
        let static_server = BatchRecognizer::new(Arc::clone(&snap));
        let dyn_backend: Arc<dyn Recognize + Send + Sync> = snap;
        let dyn_server = BatchRecognizer::new(dyn_backend);
        let batch: Vec<Query> = [6010.0, 8090.0, 1.0]
            .iter()
            .map(|&m| Query::from_node_means(M, W, &[m; 4]))
            .collect();
        assert_eq!(
            dyn_server.recognize_batch(&batch),
            static_server.recognize_batch(&batch)
        );
        // The front end is itself a backend.
        let q = &batch[0];
        assert_eq!(
            Recognize::recognize(&dyn_server, q),
            static_server.snapshot().recognize(q)
        );
    }

    #[test]
    fn swap_publishes_new_snapshot() {
        let mut server = BatchRecognizer::new(snapshot());
        let q = Query::from_node_means(M, W, &[9990.0; 4]);
        assert_eq!(server.recognize_batch(std::slice::from_ref(&q))[0].best(), None);

        let mut d = server.snapshot().to_dictionary();
        d.learn(&LabeledObservation {
            label: AppLabel::new("kripke", "L"),
            query: Query::from_node_means(M, W, &[9985.0; 4]),
        });
        server.swap(Arc::new(Snapshot::freeze(&d)));
        assert_eq!(
            server.recognize_batch(std::slice::from_ref(&q))[0].best(),
            Some("kripke")
        );
    }

    #[test]
    fn empty_batch() {
        let server = BatchRecognizer::new(snapshot());
        assert!(server.recognize_batch(&[]).is_empty());
    }
}
