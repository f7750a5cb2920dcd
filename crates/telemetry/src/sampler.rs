//! The 1 Hz LDMS-style collector.
//!
//! LDMS samples every metric on every node once per second. Real collectors
//! exhibit two artifacts the EFD must tolerate (and our tests exercise):
//! small *timing jitter* (the sample lands at `k·1s + ε`), and occasional
//! *dropouts* (a missed sample). [`LdmsCollector`] reproduces both, pulling
//! values from a [`MetricSource`] — the bridge trait implemented by the
//! workload models.

use efd_util::rng::SplitMix64;

use crate::series::TimeSeries;

/// A source of ground-truth metric values: the signal the collector
/// *would* read at time `t` (seconds since execution start).
pub trait MetricSource {
    /// Instantaneous value at time `t`.
    fn value_at(&mut self, t: f64) -> f64;
}

impl<F: FnMut(f64) -> f64> MetricSource for F {
    fn value_at(&mut self, t: f64) -> f64 {
        self(t)
    }
}

/// Collector behavior knobs.
#[derive(Debug, Clone, Copy)]
pub struct CollectorConfig {
    /// Standard deviation of sampling-time jitter, seconds.
    pub jitter_sd_s: f64,
    /// Probability that a sample is dropped entirely (stored as NaN).
    pub dropout_prob: f64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        Self {
            jitter_sd_s: 0.05,
            dropout_prob: 0.001,
        }
    }
}

impl CollectorConfig {
    /// A perfectly clean collector (no jitter, no dropouts) — for tests.
    pub fn ideal() -> Self {
        Self {
            jitter_sd_s: 0.0,
            dropout_prob: 0.0,
        }
    }
}

/// Simulated LDMS collector for one (node, metric) stream.
#[derive(Debug, Clone)]
pub struct LdmsCollector {
    cfg: CollectorConfig,
    rng: SplitMix64,
}

impl LdmsCollector {
    /// Collector with the given config; `seed` controls jitter/dropout
    /// realizations.
    pub fn new(cfg: CollectorConfig, seed: u64) -> Self {
        Self {
            cfg,
            rng: SplitMix64::new(seed),
        }
    }

    /// Sample `source` once per second for `duration_s` seconds.
    pub fn collect(&mut self, source: &mut dyn MetricSource, duration_s: u32) -> TimeSeries {
        let mut values = Vec::with_capacity(duration_s as usize);
        for k in 0..duration_s {
            if self.cfg.dropout_prob > 0.0 && self.rng.next_f64() < self.cfg.dropout_prob {
                values.push(f64::NAN);
                continue;
            }
            let jitter = if self.cfg.jitter_sd_s > 0.0 {
                self.rng.next_gaussian() * self.cfg.jitter_sd_s
            } else {
                0.0
            };
            // Sampling time cannot go negative.
            let t = (k as f64 + jitter).max(0.0);
            values.push(source.value_at(t));
        }
        TimeSeries::from_values(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    #[test]
    fn ideal_collector_samples_on_grid() {
        let mut c = LdmsCollector::new(CollectorConfig::ideal(), 1);
        let s = c.collect(&mut |t: f64| t * 2.0, 10);
        assert_eq!(s.len(), 10);
        for k in 0..10u32 {
            assert_eq!(s.at(k), Some(k as f64 * 2.0));
        }
    }

    #[test]
    fn dropouts_leave_nans() {
        let cfg = CollectorConfig {
            jitter_sd_s: 0.0,
            dropout_prob: 0.5,
        };
        let mut c = LdmsCollector::new(cfg, 2);
        let s = c.collect(&mut |_t: f64| 1.0, 1000);
        let missing = s.values().iter().filter(|v| v.is_nan()).count();
        assert!(
            (300..700).contains(&missing),
            "expected ~500 dropouts, got {missing}"
        );
        // The surviving samples are untouched.
        assert!(s
            .values()
            .iter()
            .filter(|v| v.is_finite())
            .all(|&v| v == 1.0));
        // And the window mean still recovers the signal.
        assert_eq!(s.window_mean(Interval::new(0, 1000)), 1.0);
    }

    #[test]
    fn jitter_perturbs_sampling_times() {
        let cfg = CollectorConfig {
            jitter_sd_s: 0.1,
            dropout_prob: 0.0,
        };
        let mut c = LdmsCollector::new(cfg, 3);
        // Identity source: stored value == actual sampling time.
        let s = c.collect(&mut |t: f64| t, 1000);
        let mut devs: Vec<f64> = (0..1000u32)
            .map(|k| (s.at(k).unwrap() - k as f64).abs())
            .collect();
        devs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(devs[990] < 0.5, "jitter too large: {}", devs[990]);
        assert!(devs[500] > 0.0, "no jitter at all");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = CollectorConfig::default();
        let collect = |seed| LdmsCollector::new(cfg, seed).collect(&mut |t: f64| t.sin(), 100);
        let (a, b, c) = (collect(9), collect(9), collect(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn closure_sources_work() {
        let mut phase = 0.0f64;
        let mut source = move |_t: f64| {
            phase += 1.0;
            phase
        };
        let mut c = LdmsCollector::new(CollectorConfig::ideal(), 0);
        let s = c.collect(&mut source, 3);
        assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
    }
}
