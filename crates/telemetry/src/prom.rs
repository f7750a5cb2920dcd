//! Prometheus text-exposition primitives for the serving daemon.
//!
//! The network daemon (`efd serve --listen`) exports its operational
//! state — request counters, verdict tallies, latency histograms, queue
//! depth — in the Prometheus text format (version 0.0.4), the lingua
//! franca of HPC/cloud monitoring stacks. External crates are not
//! available offline, so this module is a deliberately small, dependency
//! free implementation of the three metric kinds the daemon needs:
//!
//! * [`Counter`] — monotonically increasing `u64`.
//! * [`Gauge`] — a settable `i64` (queue depth, active connections,
//!   snapshot generation).
//! * [`FloatGauge`] — a settable `f64` for fractional state (rates,
//!   ratios); stored as atomic bits, rendered as a `gauge`.
//! * [`Histogram`] — explicit-bucket latency histogram with a
//!   CAS-maintained `f64` sum; buckets render cumulatively with the
//!   conventional `le` label, closed by `+Inf`. A thread that records
//!   many observations can count them in plain integers (slot by
//!   [`bucket_index`]) and add them in one [`Histogram::merge`].
//!
//! All three are lock-free atomics, safe to update from any worker
//! thread while another thread renders. A [`Registry`] owns the metric
//! families in registration order and renders the whole exposition with
//! [`Registry::render`] — `# HELP` / `# TYPE` headers, escaped label
//! values, `_bucket`/`_sum`/`_count` expansion for histograms.
//!
//! The exposition format itself is pinned by a golden fixture
//! (`tests/prom_golden.rs`): any change to rendering is a contract
//! change for scrapers and must re-bless the fixture.
//!
//! ```
//! use efd_telemetry::prom::Registry;
//!
//! let reg = Registry::new();
//! let reqs = reg.counter("efd_requests_total", "Requests answered.",
//!                        &[("command", "recognize")]);
//! let lat = reg.histogram("efd_request_duration_seconds",
//!                         "End-to-end request latency.", &[],
//!                         &[0.001, 0.01, 0.1]);
//! reqs.inc();
//! lat.observe(0.004);
//! let text = reg.render();
//! assert!(text.contains("efd_requests_total{command=\"recognize\"} 1"));
//! assert!(text.contains("efd_request_duration_seconds_bucket{le=\"0.01\"} 1"));
//! ```

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding a fractional value (rates, ratios, thresholds).
///
/// The value is stored as its IEEE-754 bit pattern in an `AtomicU64`,
/// so `set`/`get` are single atomic operations — last write wins, no
/// read-modify-write loop needed.
#[derive(Debug)]
pub struct FloatGauge(AtomicU64);

impl Default for FloatGauge {
    fn default() -> Self {
        Self(AtomicU64::new(0f64.to_bits()))
    }
}

impl FloatGauge {
    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// The histogram slot a value lands in: the first finite bound `>= v`
/// (Prometheus `le` semantics), or `bounds.len()` for the `+Inf`
/// overflow. NaN also maps to the overflow slot; [`Histogram::observe`]
/// drops NaN before it gets here.
#[inline]
pub fn bucket_index(bounds: &[f64], v: f64) -> usize {
    bounds.partition_point(|b| *b < v)
}

/// An explicit-bucket histogram.
///
/// `bounds` are the finite upper bounds, strictly increasing; an
/// implicit `+Inf` bucket closes the series. Observations land in the
/// first bucket whose bound is `>= value` (Prometheus `le` semantics).
/// NaN observations are ignored.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    /// One slot per finite bound plus the `+Inf` overflow; stored
    /// non-cumulative, rendered cumulative.
    buckets: Box<[AtomicU64]>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Build with the given finite upper bounds (strictly increasing).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite, or not strictly
    /// increasing — histogram shapes are static configuration, so a bad
    /// shape is a programming error, not a runtime condition.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "histogram bounds must strictly increase");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (+Inf is implicit)"
        );
        Self {
            bounds: bounds.into(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.buckets[bucket_index(&self.bounds, v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.add_sum(v);
    }

    /// Add a batch of observations counted elsewhere: `counts[i]` more
    /// in slot `i` (numbered by [`bucket_index`] over this histogram's
    /// bounds, `+Inf` last), whose values sum to `sum`. However large the
    /// batch, this is one `fetch_add` per non-empty slot, one for the
    /// count and one CAS loop for the sum.
    ///
    /// # Panics
    ///
    /// Panics if `counts` does not have one entry per slot (the finite
    /// bounds plus `+Inf`).
    pub fn merge(&self, counts: &[u64], sum: f64) {
        assert_eq!(
            counts.len(),
            self.buckets.len(),
            "one count per histogram slot"
        );
        let mut total = 0;
        for (slot, &n) in self.buckets.iter().zip(counts) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
                total += n;
            }
        }
        if total > 0 {
            self.count.fetch_add(total, Ordering::Relaxed);
            self.add_sum(sum);
        }
    }

    fn add_sum(&self, v: f64) {
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }

    /// Record a duration in seconds (the Prometheus base unit).
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Cumulative `(upper_bound, count)` pairs, `+Inf` last. The final
    /// count equals [`Histogram::count`] when no observation races the
    /// read (counts are updated bucket-first, so a torn read can only
    /// undercount the tail).
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }
}

/// The three exposition kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    FloatGauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            // Integer and float gauges are the same exposition type;
            // only the in-process storage differs.
            Kind::Gauge | Kind::FloatGauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
enum Value {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    FloatGauge(Arc<FloatGauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Series {
    /// Pre-rendered label body without braces, e.g. `command="recognize"`;
    /// empty for an unlabeled series.
    labels: String,
    value: Value,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// A set of metric families, rendered in registration order.
///
/// Registration is idempotent: asking for the same `(name, labels)`
/// again returns the existing handle, so call sites don't need to
/// thread handles around. Registering one family name under two
/// different kinds is a programming error and panics.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    out
}

/// Format a float the way the exposition format expects (`+Inf` for the
/// closing bucket; plain `Display` otherwise, which never produces an
/// exponent for the magnitudes metrics carry).
fn render_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else {
        format!("{v}")
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, help: &str, kind: Kind, labels: &[(&str, &str)]) -> Value {
        let rendered = render_labels(labels);
        let mut families = self.families.lock().expect("prom registry poisoned");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric family {name:?} registered as both {} and {}",
                    f.kind.name(),
                    kind.name()
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(existing) = family.series.iter().find(|s| s.labels == rendered) {
            return match &existing.value {
                Value::Counter(c) => Value::Counter(Arc::clone(c)),
                Value::Gauge(g) => Value::Gauge(Arc::clone(g)),
                Value::FloatGauge(g) => Value::FloatGauge(Arc::clone(g)),
                Value::Histogram(h) => Value::Histogram(Arc::clone(h)),
            };
        }
        let value = match kind {
            Kind::Counter => Value::Counter(Arc::new(Counter::default())),
            Kind::Gauge => Value::Gauge(Arc::new(Gauge::default())),
            Kind::FloatGauge => Value::FloatGauge(Arc::new(FloatGauge::default())),
            Kind::Histogram => unreachable!("histograms register via histogram()"),
        };
        let handle = match &value {
            Value::Counter(c) => Value::Counter(Arc::clone(c)),
            Value::Gauge(g) => Value::Gauge(Arc::clone(g)),
            Value::FloatGauge(g) => Value::FloatGauge(Arc::clone(g)),
            Value::Histogram(h) => Value::Histogram(Arc::clone(h)),
        };
        family.series.push(Series {
            labels: rendered,
            value,
        });
        handle
    }

    /// Register (or fetch) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, Kind::Counter, labels) {
            Value::Counter(c) => c,
            _ => unreachable!("registered a counter"),
        }
    }

    /// Register (or fetch) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, Kind::Gauge, labels) {
            Value::Gauge(g) => g,
            _ => unreachable!("registered a gauge"),
        }
    }

    /// Register (or fetch) a float gauge series.
    pub fn float_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<FloatGauge> {
        match self.register(name, help, Kind::FloatGauge, labels) {
            Value::FloatGauge(g) => g,
            _ => unreachable!("registered a float gauge"),
        }
    }

    /// Register (or fetch) a histogram series with the given finite
    /// bucket bounds (see [`Histogram::new`]).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        let rendered = render_labels(labels);
        let mut families = self.families.lock().expect("prom registry poisoned");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == Kind::Histogram,
                    "metric family {name:?} registered as both {} and histogram",
                    f.kind.name()
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind: Kind::Histogram,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(existing) = family.series.iter().find(|s| s.labels == rendered) {
            if let Value::Histogram(h) = &existing.value {
                return Arc::clone(h);
            }
            unreachable!("histogram family holds histogram series");
        }
        let h = Arc::new(Histogram::new(bounds));
        family.series.push(Series {
            labels: rendered,
            value: Value::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// Render the full exposition (text format version 0.0.4).
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("prom registry poisoned");
        let mut out = String::new();
        for f in families.iter() {
            out.push_str("# HELP ");
            out.push_str(&f.name);
            out.push(' ');
            out.push_str(&f.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&f.name);
            out.push(' ');
            out.push_str(f.kind.name());
            out.push('\n');
            for s in &f.series {
                match &s.value {
                    Value::Counter(c) => {
                        push_sample(&mut out, &f.name, "", &s.labels, None, &c.get().to_string());
                    }
                    Value::Gauge(g) => {
                        push_sample(&mut out, &f.name, "", &s.labels, None, &g.get().to_string());
                    }
                    Value::FloatGauge(g) => {
                        push_sample(&mut out, &f.name, "", &s.labels, None, &render_f64(g.get()));
                    }
                    Value::Histogram(h) => {
                        for (bound, cum) in h.cumulative() {
                            push_sample(
                                &mut out,
                                &f.name,
                                "_bucket",
                                &s.labels,
                                Some(&render_f64(bound)),
                                &cum.to_string(),
                            );
                        }
                        push_sample(
                            &mut out,
                            &f.name,
                            "_sum",
                            &s.labels,
                            None,
                            &render_f64(h.sum()),
                        );
                        push_sample(
                            &mut out,
                            &f.name,
                            "_count",
                            &s.labels,
                            None,
                            &h.count().to_string(),
                        );
                    }
                }
            }
        }
        out
    }
}

/// Append one sample line: `name[suffix]{labels[,le="bound"]} value`.
fn push_sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &str,
    le: Option<&str>,
    value: &str,
) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        out.push_str(labels);
        if let Some(le) = le {
            if !labels.is_empty() {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_render_plain_integers() {
        let reg = Registry::new();
        let c = reg.counter("reqs_total", "Requests.", &[("kind", "q")]);
        let g = reg.gauge("depth", "Queue depth.", &[]);
        c.add(3);
        g.set(-2);
        let text = reg.render();
        assert!(text.contains("# TYPE reqs_total counter"), "{text}");
        assert!(text.contains("reqs_total{kind=\"q\"} 3"), "{text}");
        assert!(text.contains("depth -2"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_le_inclusive() {
        let h = Histogram::new(&[0.1, 0.5, 1.0]);
        // A value exactly on a bound lands in that bound's bucket.
        for v in [0.05, 0.1, 0.4, 0.5, 2.0] {
            h.observe(v);
        }
        h.observe(f64::NAN); // ignored
        assert_eq!(
            h.cumulative(),
            vec![(0.1, 2), (0.5, 4), (1.0, 4), (f64::INFINITY, 5)]
        );
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 3.05).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_one_observation_at_a_time() {
        let bounds = [0.125, 0.5, 1.0, 4.0];
        // Dyadic values sum exactly in any order, so `_sum` must match
        // bit for bit; the bounds themselves check `le` inclusivity.
        let values = [
            0.0625, 0.125, 0.25, 0.5, 0.5, 0.75, 1.0, 2.0, 8.0, 16.0, 0.125,
        ];
        let one_by_one = Histogram::new(&bounds);
        let mut counts = [0u64; 5];
        let mut sum = 0.0;
        for v in values {
            one_by_one.observe(v);
            counts[bucket_index(&bounds, v)] += 1;
            sum += v;
        }
        let merged = Histogram::new(&bounds);
        merged.merge(&counts, sum);
        assert_eq!(merged.cumulative(), one_by_one.cumulative());
        assert_eq!(merged.count(), one_by_one.count());
        assert_eq!(merged.sum().to_bits(), one_by_one.sum().to_bits());
        // Merging more batches keeps accumulating; an empty one is a no-op.
        merged.merge(&counts, sum);
        merged.merge(&[0; 5], 0.0);
        assert_eq!(merged.count(), 2 * values.len() as u64);
        assert_eq!(merged.sum(), 2.0 * sum);
    }

    #[test]
    #[should_panic(expected = "one count per histogram slot")]
    fn merge_refuses_a_batch_of_another_shape() {
        Histogram::new(&[0.1, 0.5]).merge(&[1, 2], 0.3);
    }

    #[test]
    fn registration_is_idempotent_per_label_set() {
        let reg = Registry::new();
        let a = reg.counter("c_total", "h", &[("x", "1")]);
        let b = reg.counter("c_total", "h", &[("x", "1")]);
        let other = reg.counter("c_total", "h", &[("x", "2")]);
        a.inc();
        b.inc();
        other.inc();
        assert_eq!(a.get(), 2, "same handle behind both registrations");
        let text = reg.render();
        assert!(text.contains("c_total{x=\"1\"} 2"), "{text}");
        assert!(text.contains("c_total{x=\"2\"} 1"), "{text}");
        // One family header, not one per series.
        assert_eq!(text.matches("# TYPE c_total").count(), 1, "{text}");
    }

    #[test]
    fn float_gauge_renders_fractional_values() {
        let reg = Registry::new();
        let g = reg.float_gauge("rate", "Live rate.", &[("window", "live")]);
        assert_eq!(g.get(), 0.0, "starts at zero");
        g.set(0.125);
        let text = reg.render();
        assert!(text.contains("# TYPE rate gauge"), "{text}");
        assert!(text.contains("rate{window=\"live\"} 0.125"), "{text}");
        let again = reg.float_gauge("rate", "Live rate.", &[("window", "live")]);
        assert_eq!(
            again.get(),
            0.125,
            "idempotent registration shares the handle"
        );
    }

    #[test]
    #[should_panic(expected = "registered as both")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        let _ = reg.counter("m", "h", &[]);
        let _ = reg.gauge("m", "h", &[]);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        let c = reg.counter("esc_total", "h", &[("p", "a\"b\\c\nd")]);
        c.inc();
        let text = reg.render();
        assert!(text.contains(r#"esc_total{p="a\"b\\c\nd"} 1"#), "{text}");
    }

    #[test]
    fn concurrent_observation_loses_nothing() {
        let reg = Arc::new(Registry::new());
        let c = reg.counter("hits_total", "h", &[]);
        let h = reg.histogram("lat", "h", &[], &[0.5]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u32 {
                        c.inc();
                        h.observe(f64::from(i % 2));
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.cumulative().last().expect("inf bucket").1, 40_000);
        assert!((h.sum() - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn infinite_bound_renders_plus_inf() {
        assert_eq!(render_f64(f64::INFINITY), "+Inf");
        assert_eq!(render_f64(0.025), "0.025");
    }
}
