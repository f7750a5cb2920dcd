//! Dense 1 Hz time series with NaN gaps.
//!
//! The LDMS collector samples every metric once per second; dropped samples
//! (collector hiccups, node jitter) are stored as NaN so window statistics
//! can skip them — the paper's fingerprints are means over whatever samples
//! actually landed in the window.

use efd_util::stats::OnlineStats;

use crate::interval::Interval;

/// A dense, fixed-rate time series (default 1 Hz), starting at t = 0
/// relative to execution start. Element `k` is the sample for second `k`;
/// missing samples are NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    values: Vec<f64>,
}

impl TimeSeries {
    /// Build from raw samples (one per second, NaN = missing).
    pub fn from_values(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// An all-missing series of `n` seconds.
    pub fn missing(n: usize) -> Self {
        Self {
            values: vec![f64::NAN; n],
        }
    }

    /// Number of seconds covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series has no samples at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw samples.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sample at second `t` (None out of range, NaN = missing).
    pub fn at(&self, t: u32) -> Option<f64> {
        self.values.get(t as usize).copied()
    }

    /// The samples inside `w`, truncated to the series length.
    pub fn window(&self, w: Interval) -> &[f64] {
        let start = (w.start as usize).min(self.values.len());
        let end = (w.end as usize).min(self.values.len());
        &self.values[start..end]
    }

    /// Statistics over the window, skipping missing (NaN) samples.
    pub fn window_stats(&self, w: Interval) -> OnlineStats {
        let mut s = OnlineStats::new();
        for &v in self.window(w) {
            if v.is_finite() {
                s.push(v);
            }
        }
        s
    }

    /// Mean over the window, skipping missing samples. NaN when the window
    /// holds no valid samples (e.g. the execution ended before the window).
    pub fn window_mean(&self, w: Interval) -> f64 {
        self.window_stats(w).mean()
    }

    /// Fraction of samples in the window that are present (non-NaN).
    pub fn window_coverage(&self, w: Interval) -> f64 {
        let slice = self.window(w);
        if w.duration() == 0 {
            return 0.0;
        }
        slice.iter().filter(|v| v.is_finite()).count() as f64 / w.duration() as f64
    }

    /// Statistics over the full series, skipping missing samples (used by
    /// the Taxonomist baseline's whole-execution features).
    pub fn full_stats(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        for &v in &self.values {
            if v.is_finite() {
                s.push(v);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> TimeSeries {
        TimeSeries::from_values((0..n).map(|i| i as f64).collect())
    }

    #[test]
    fn window_slicing() {
        let s = ramp(300);
        let w = s.window(Interval::new(60, 120));
        assert_eq!(w.len(), 60);
        assert_eq!(w[0], 60.0);
        assert_eq!(w[59], 119.0);
    }

    #[test]
    fn window_truncated_by_series_end() {
        let s = ramp(100);
        assert_eq!(s.window(Interval::new(60, 120)).len(), 40);
        assert_eq!(s.window(Interval::new(200, 300)).len(), 0);
        assert!(s.window_mean(Interval::new(200, 300)).is_nan());
    }

    #[test]
    fn window_mean_skips_missing() {
        let mut vals = vec![10.0; 100];
        vals[50] = f64::NAN;
        vals[51] = f64::NAN;
        let s = TimeSeries::from_values(vals);
        let w = Interval::new(40, 60);
        assert_eq!(s.window_mean(w), 10.0);
        assert!((s.window_coverage(w) - 18.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn mean_matches_arithmetic() {
        let s = ramp(300);
        // mean of 60..=119 is (60+119)/2
        assert!((s.window_mean(Interval::new(60, 120)) - 89.5).abs() < 1e-12);
    }

    #[test]
    fn all_missing_series() {
        let s = TimeSeries::missing(100);
        assert_eq!(s.len(), 100);
        assert!(s.window_mean(Interval::new(0, 50)).is_nan());
        assert_eq!(s.window_coverage(Interval::new(0, 50)), 0.0);
    }

    #[test]
    fn at_bounds() {
        let s = ramp(10);
        assert_eq!(s.at(0), Some(0.0));
        assert_eq!(s.at(9), Some(9.0));
        assert_eq!(s.at(10), None);
    }

    #[test]
    fn full_stats_cover_everything() {
        let s = ramp(100);
        let st = s.full_stats();
        assert_eq!(st.count(), 100);
        assert!((st.mean() - 49.5).abs() < 1e-12);
        assert_eq!(st.min(), 0.0);
        assert_eq!(st.max(), 99.0);
    }
}
