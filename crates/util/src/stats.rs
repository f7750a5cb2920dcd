//! Online and batch statistics.
//!
//! Two consumers drive the design:
//!
//! * The **EFD** needs the mean of a 60-sample window per (node, metric) —
//!   trivial, but it must be *streamable* so the online recognizer can run
//!   during execution (paper §1: "low-latency responses").
//! * The **Taxonomist baseline** needs eleven statistical features per metric
//!   per node over the *whole* execution (mean, std, min, max, 5 percentiles,
//!   skew, kurtosis). Holding full traces for 562 metrics × many runs is
//!   exactly the data-intensity the paper criticizes, so the feature
//!   extractor streams through [`OnlineStats`] (exact moments) and
//!   [`P2Quantile`] (constant-memory percentile estimates).
//!
//! [`OnlineStats`] tracks the first four central moments with Welford/Chan
//! update and merge formulas, so per-thread partials can be reduced in
//! parallel deterministically.

/// Mergeable online accumulator of count/min/max and the first four central
/// moments (mean, M2, M3, M4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            m4: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of observations so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Whether any observation has been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Add one observation (Welford's update extended to 4th moment,
    /// Pébay 2008).
    #[inline]
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Add every value of a slice.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Merge another accumulator into this one (Chan et al. parallel
    /// formulas) — exact up to floating-point rounding.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let n = na + nb;
        let delta = other.mean - self.mean;
        let d2 = delta * delta;
        let d3 = d2 * delta;
        let d4 = d2 * d2;

        let m2 = self.m2 + other.m2 + d2 * na * nb / n;
        let m3 = self.m3
            + other.m3
            + d3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m4 = self.m4
            + other.m4
            + d4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * d2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;

        self.mean += delta * nb / n;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Arithmetic mean (NaN when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance (NaN when empty).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance with Bessel's correction (NaN when n < 2).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Skewness (g1). Zero for constant series (M2 == 0).
    pub fn skewness(&self) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        if self.m2 == 0.0 {
            return 0.0;
        }
        (self.n as f64).sqrt() * self.m3 / self.m2.powf(1.5)
    }

    /// Excess kurtosis (g2). Zero for constant series (M2 == 0).
    pub fn kurtosis(&self) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        if self.m2 == 0.0 {
            return 0.0;
        }
        self.n as f64 * self.m4 / (self.m2 * self.m2) - 3.0
    }

    /// Minimum observation (+inf when empty).
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (-inf when empty).
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Exact percentile of *already sorted* data, linear interpolation between
/// closest ranks (numpy's default "linear" method). `q` in `[0, 1]`.
///
/// Panics in debug builds if the slice is unsorted; returns NaN when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    debug_assert!((0.0..=1.0).contains(&q));
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Mean of a slice (NaN when empty). Batch convenience used in tests and
/// small code paths; hot paths use [`OnlineStats`].
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// P² streaming quantile estimator (Jain & Chlamtac, CACM 1985).
///
/// Constant memory (five markers) estimate of a single quantile; accuracy is
/// ample for the Taxonomist feature percentiles (the classifier only needs a
/// stable, monotone summary — see module docs).
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights.
    q: [f64; 5],
    /// Marker positions (1-based, as in the paper).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired position increments.
    dn: [f64; 5],
    count: usize,
    /// First observations until we have 5.
    init: [f64; 5],
}

impl P2Quantile {
    /// Estimator for quantile `p` in `(0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0,1), got {p}");
        Self {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            init: [0.0; 5],
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feed one observation.
    pub fn push(&mut self, x: f64) {
        if self.count < 5 {
            self.init[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.init.sort_by(|a, b| a.partial_cmp(b).unwrap());
                self.q = self.init;
            }
            return;
        }
        self.count += 1;

        // Find cell k such that q[k] <= x < q[k+1], adjusting extremes.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            // q[0] <= x < q[4]: find the containing cell.
            let mut k = 0;
            for i in 0..4 {
                if x >= self.q[i] && x < self.q[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        // Adjust interior markers.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.q, &self.n);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Current quantile estimate. For fewer than 5 observations, falls back
    /// to the exact percentile of what has been seen. NaN when empty.
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        if self.count < 5 {
            let mut v: Vec<f64> = self.init[..self.count].to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            return percentile(&v, self.p);
        }
        self.q[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn assert_close(a: f64, b: f64, tol: f64, what: &str) {
        assert!((a - b).abs() <= tol, "{what}: {a} vs {b} (tol {tol})");
    }

    #[test]
    fn online_matches_batch_moments() {
        let mut g = SplitMix64::new(3);
        let xs: Vec<f64> = (0..5000).map(|_| g.next_gaussian() * 3.0 + 10.0).collect();
        let mut s = OnlineStats::new();
        s.extend(&xs);

        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let m3 = xs.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n;
        let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        let skew = m3 / var.powf(1.5);
        let kurt = m4 / (var * var) - 3.0;

        assert_close(s.mean(), mean, 1e-9, "mean");
        assert_close(s.variance(), var, 1e-6, "variance");
        assert_close(s.skewness(), skew, 1e-6, "skewness");
        assert_close(s.kurtosis(), kurt, 1e-6, "kurtosis");
        assert_eq!(s.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(
            s.max(),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
    }

    #[test]
    fn merge_equals_sequential() {
        let mut g = SplitMix64::new(17);
        let xs: Vec<f64> = (0..999).map(|_| g.next_f64() * 100.0).collect();
        let mut whole = OnlineStats::new();
        whole.extend(&xs);

        for split in [1, 5, 500, 998] {
            let (a, b) = xs.split_at(split);
            let mut sa = OnlineStats::new();
            sa.extend(a);
            let mut sb = OnlineStats::new();
            sb.extend(b);
            sa.merge(&sb);
            assert_eq!(sa.count(), whole.count());
            assert_close(sa.mean(), whole.mean(), 1e-9, "merged mean");
            assert_close(sa.variance(), whole.variance(), 1e-7, "merged var");
            assert_close(sa.skewness(), whole.skewness(), 1e-6, "merged skew");
            assert_close(sa.kurtosis(), whole.kurtosis(), 1e-5, "merged kurt");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::new();
        s.extend(&[1.0, 2.0, 3.0]);
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn constant_series_has_zero_spread() {
        let mut s = OnlineStats::new();
        s.extend(&[7.0; 100]);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.skewness(), 0.0);
        assert_eq!(s.kurtosis(), 0.0);
    }

    #[test]
    fn empty_stats_are_nan() {
        let s = OnlineStats::new();
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
        assert!(s.sample_variance().is_nan());
    }

    #[test]
    fn percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&[42.0], 0.3), 42.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn p2_matches_exact_on_gaussian() {
        let mut g = SplitMix64::new(8);
        let xs: Vec<f64> = (0..50_000).map(|_| g.next_gaussian()).collect();
        for p in [0.05, 0.25, 0.5, 0.75, 0.95] {
            let mut est = P2Quantile::new(p);
            for &x in &xs {
                est.push(x);
            }
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let exact = percentile(&sorted, p);
            assert_close(est.estimate(), exact, 0.03, &format!("p2 q={p}"));
        }
    }

    #[test]
    fn p2_small_counts_are_exact() {
        let mut est = P2Quantile::new(0.5);
        assert!(est.estimate().is_nan());
        est.push(3.0);
        assert_eq!(est.estimate(), 3.0);
        est.push(1.0);
        est.push(2.0);
        assert_eq!(est.estimate(), 2.0);
    }

    #[test]
    fn p2_monotone_inputs() {
        let mut est = P2Quantile::new(0.9);
        for i in 0..10_000 {
            est.push(i as f64);
        }
        let e = est.estimate();
        assert!((e - 9000.0).abs() < 150.0, "estimate {e}");
    }
}
