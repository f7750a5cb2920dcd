//! Streaming recognition during execution.
//!
//! The paper's pitch is low latency: a verdict within the first two
//! minutes, *while the job is still running*. [`OnlineRecognizer`] wires
//! the telemetry stream into an engine: samples are fed as they arrive
//! (per node, per metric, per second); window aggregators emit means the
//! moment each fingerprint window closes; when every stream's windows
//! have closed, the recognizer emits its verdict. No raw series are
//! buffered — memory is O(nodes × metrics).
//!
//! The recognizer holds its engine by value and works with any
//! [`Recognize`] backend through the engine API's forwarding impls: a
//! borrowed `&EfdDictionary` in a lab harness, or an owned
//! `Arc<Snapshot>` / `Arc<dyn Recognize + Send + Sync>` in a service,
//! which makes the session `'static` and `Send` and lets it
//! [`swap`](OnlineRecognizer::swap) to a newer publication mid-stream.
//! Verdicts come through the trait, so they are in
//! [`Recognition::normalized`] order whatever the engine.

use efd_telemetry::streaming::MultiWindowAggregator;
use efd_telemetry::{Interval, MetricId, NodeId};
use efd_util::FxHashMap;

use crate::dictionary::Recognition;
use crate::engine::Recognize;
use crate::observation::{ObsPoint, Query};

/// Incremental recognizer over live telemetry streams, answering through
/// the engine `E` it holds.
#[derive(Debug, Clone)]
pub struct OnlineRecognizer<E> {
    engine: E,
    intervals: Vec<Interval>,
    aggs: FxHashMap<(NodeId, MetricId), MultiWindowAggregator>,
    points: Vec<ObsPoint>,
    expected_summaries: usize,
    emitted: bool,
}

impl<E: Recognize> OnlineRecognizer<E> {
    /// Set up streams for `nodes × metrics`, fingerprinting `intervals`,
    /// answered by `engine`.
    ///
    /// # Panics
    ///
    /// Panics if `intervals` is empty.
    pub fn new(
        engine: E,
        metrics: &[MetricId],
        nodes: &[NodeId],
        intervals: Vec<Interval>,
    ) -> Self {
        assert!(!intervals.is_empty(), "no fingerprint intervals");
        let mut aggs = FxHashMap::default();
        for &n in nodes {
            for &m in metrics {
                aggs.insert((n, m), MultiWindowAggregator::new(intervals.clone()));
            }
        }
        let expected_summaries = nodes.len() * metrics.len() * intervals.len();
        Self {
            engine,
            intervals,
            aggs,
            points: Vec::new(),
            expected_summaries,
            emitted: false,
        }
    }

    /// The engine verdicts are currently computed against.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Point the session at another engine (a newer publication). Window
    /// means collected so far are kept — only the dictionary behind the
    /// verdict changes.
    pub fn swap(&mut self, engine: E) {
        self.engine = engine;
    }

    /// Seconds after which all windows have closed (worst case).
    pub fn horizon_s(&self) -> u32 {
        self.intervals.iter().map(|iv| iv.end).max().unwrap_or(0)
    }

    /// Feed one sample. Returns the final recognition exactly once — when
    /// the last open window across all streams closes. Samples for
    /// undeclared `(node, metric)` streams are ignored.
    pub fn push(
        &mut self,
        node: NodeId,
        metric: MetricId,
        t: u32,
        value: f64,
    ) -> Option<Recognition> {
        if self.emitted {
            return None;
        }
        let agg = self.aggs.get_mut(&(node, metric))?;
        for summary in agg.push(t, value) {
            self.points.push(ObsPoint {
                metric,
                node,
                interval: summary.interval,
                mean: summary.mean(),
            });
        }
        if self.points.len() >= self.expected_summaries {
            self.emitted = true;
            return Some(self.recognize_now());
        }
        None
    }

    /// Recognition over the windows closed *so far* (early peek; may be
    /// `Unknown` simply because no window has closed yet).
    pub fn current(&self) -> Recognition {
        self.recognize_now()
    }

    /// Number of window means collected so far.
    pub fn collected(&self) -> usize {
        self.points.len()
    }

    /// Force a verdict from whatever has been collected, flushing all
    /// still-open windows (job ended early).
    pub fn finish(&mut self) -> Recognition {
        if !self.emitted {
            let mut flushed: Vec<ObsPoint> = Vec::new();
            for ((node, metric), agg) in self.aggs.iter_mut() {
                for summary in agg.finish() {
                    flushed.push(ObsPoint {
                        metric: *metric,
                        node: *node,
                        interval: summary.interval,
                        mean: summary.mean(),
                    });
                }
            }
            self.points.extend(flushed);
            self.emitted = true;
        }
        self.recognize_now()
    }

    fn recognize_now(&self) -> Recognition {
        let q = Query {
            points: self.points.clone(),
        };
        self.engine.recognize(&q)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::dictionary::{EfdDictionary, Verdict};
    use crate::observation::LabeledObservation;
    use crate::rounding::RoundingDepth;
    use efd_telemetry::AppLabel;

    const M: MetricId = MetricId(0);
    const W: Interval = Interval::PAPER_DEFAULT;

    /// The engine a service streams against: owned, shared, picked at
    /// runtime.
    type Served = Arc<dyn Recognize + Send + Sync>;

    fn dict_with(apps: &[(&str, f64)]) -> EfdDictionary {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        for &(app, mean) in apps {
            d.learn(&LabeledObservation {
                label: AppLabel::new(app, "X"),
                query: Query::from_node_means(M, W, &[mean, mean]),
            });
        }
        d
    }

    fn dict() -> EfdDictionary {
        dict_with(&[("ft", 6000.0)])
    }

    fn served(apps: &[(&str, f64)]) -> Served {
        Arc::new(dict_with(apps))
    }

    #[test]
    fn emits_when_window_closes() {
        let d = dict();
        let mut rec = OnlineRecognizer::new(&d, &[M], &[NodeId(0), NodeId(1)], vec![W]);
        assert_eq!(rec.horizon_s(), 120);
        let mut verdict = None;
        for t in 0..=120u32 {
            for n in [NodeId(0), NodeId(1)] {
                // Wild values before 60 s (init phase) — must not matter.
                let v = if t < 60 { 50_000.0 } else { 6010.0 };
                if let Some(r) = rec.push(n, M, t, v) {
                    assert!(verdict.is_none(), "double emit");
                    verdict = Some((t, r));
                }
            }
        }
        let (t, r) = verdict.expect("no verdict by horizon");
        assert_eq!(t, 120, "verdict should land exactly at window close");
        assert_eq!(r.verdict, Verdict::Recognized("ft".into()));
    }

    #[test]
    fn emits_once_when_window_closes() {
        // A shared served engine, streamed well past the horizon: exactly
        // one verdict, at window close.
        let mut rec = OnlineRecognizer::new(
            served(&[("ft", 6000.0)]),
            &[M],
            &[NodeId(0), NodeId(1)],
            vec![W],
        );
        assert_eq!(rec.horizon_s(), 120);
        let mut verdict = None;
        for t in 0..=150u32 {
            for n in [NodeId(0), NodeId(1)] {
                let v = if t < 60 { 50_000.0 } else { 6010.0 };
                if let Some(r) = rec.push(n, M, t, v) {
                    assert!(verdict.is_none(), "double emit");
                    verdict = Some((t, r));
                }
            }
        }
        let (t, r) = verdict.expect("no verdict by horizon");
        assert_eq!(t, 120);
        assert_eq!(r.verdict, Verdict::Recognized("ft".into()));
    }

    #[test]
    fn current_is_unknown_before_any_window_closes() {
        let d = dict();
        let mut rec = OnlineRecognizer::new(&d, &[M], &[NodeId(0)], vec![W]);
        for t in 0..100u32 {
            rec.push(NodeId(0), M, t, 6000.0);
        }
        assert_eq!(rec.collected(), 0);
        assert_eq!(rec.current().verdict, Verdict::Unknown);
    }

    #[test]
    fn finish_flushes_partial_windows() {
        let d = dict();
        let mut rec = OnlineRecognizer::new(&d, &[M], &[NodeId(0), NodeId(1)], vec![W]);
        for t in 0..90u32 {
            rec.push(NodeId(0), M, t, 6005.0);
            rec.push(NodeId(1), M, t, 5995.0);
        }
        let r = rec.finish();
        // 30 in-window samples per node: enough for a mean → recognized.
        assert_eq!(r.verdict, Verdict::Recognized("ft".into()));
        assert_eq!(r.matched_points, 2);
    }

    #[test]
    fn undeclared_stream_ignored() {
        let d = dict();
        let mut rec = OnlineRecognizer::new(&d, &[M], &[NodeId(0)], vec![W]);
        assert!(rec.push(NodeId(9), M, 0, 1.0).is_none());
        assert_eq!(rec.collected(), 0);
        assert_eq!(rec.current().verdict, Verdict::Unknown);
    }

    #[test]
    fn no_second_emission() {
        let d = dict();
        let mut rec = OnlineRecognizer::new(&d, &[M], &[NodeId(0)], vec![W]);
        let mut emitted = 0;
        for t in 0..300u32 {
            if rec.push(NodeId(0), M, t, 6000.0).is_some() {
                emitted += 1;
            }
        }
        assert_eq!(emitted, 1);
    }

    #[test]
    fn session_is_send_and_static() {
        // An owned engine makes the session `'static` and `Send`: it can
        // move to another thread while streaming.
        let mut rec = OnlineRecognizer::new(served(&[("ft", 6000.0)]), &[M], &[NodeId(0)], vec![W]);
        for t in 0..90u32 {
            rec.push(NodeId(0), M, t, 6005.0);
        }
        let handle = std::thread::spawn(move || rec.finish());
        let r = handle.join().expect("session thread");
        assert_eq!(r.verdict, Verdict::Recognized("ft".into()));
    }

    #[test]
    fn swap_mid_stream_uses_newer_dictionary() {
        // Stream an app the first publication does not know yet.
        let mut rec = OnlineRecognizer::new(served(&[("ft", 6000.0)]), &[M], &[NodeId(0)], vec![W]);
        for t in 0..100u32 {
            rec.push(NodeId(0), M, t, 8110.0);
        }
        assert_eq!(rec.finish().verdict, Verdict::Unknown);

        // Same stream, but the dictionary learned "cg" mid-flight.
        let mut rec = OnlineRecognizer::new(served(&[("ft", 6000.0)]), &[M], &[NodeId(0)], vec![W]);
        for t in 0..100u32 {
            rec.push(NodeId(0), M, t, 8110.0);
            if t == 50 {
                rec.swap(served(&[("ft", 6000.0), ("cg", 8110.0)]));
            }
        }
        assert_eq!(
            rec.engine()
                .recognize(&Query::from_node_means(M, W, &[8110.0]))
                .best(),
            Some("cg")
        );
        assert_eq!(rec.finish().verdict, Verdict::Recognized("cg".into()));
    }
}
