//! Measurement-noise processes.
//!
//! The paper's central obstacle is that "computing the mean produces precise
//! floating point values that are unlikely to repeat due to system
//! perturbations and noise" — rounding exists to absorb exactly this. The
//! generator therefore needs realistic perturbation structure, not just
//! white noise:
//!
//! * [`Gaussian`] — per-sample sensor/measurement white noise.
//! * [`OrnsteinUhlenbeck`] — slowly wandering system-level drift (daemons,
//!   page cache, neighbors on the network) that shifts a whole window's mean
//!   and is the main source of *fingerprint variation across runs*.
//! * [`Spikes`] — Poisson-arriving transient perturbations (cron jobs,
//!   kernel housekeeping) with exponentially decaying tails.
//! * [`Composite`] — sum of the above, the standard stack used by the
//!   workload models.
//!
//! All processes are deterministic functions of their seed and are sampled
//! on the 1 Hz grid.

use efd_util::rng::SplitMix64;

/// A seeded, stateful noise process sampled once per second.
pub trait NoiseProcess {
    /// Noise value at second `t`; must be called with strictly increasing
    /// `t` (processes may integrate internal state).
    fn sample(&mut self, t: f64) -> f64;
}

/// IID Gaussian white noise with standard deviation `sigma`.
#[derive(Debug, Clone)]
pub struct Gaussian {
    sigma: f64,
    rng: SplitMix64,
}

impl Gaussian {
    /// White noise with the given standard deviation.
    pub fn new(sigma: f64, seed: u64) -> Self {
        Self {
            sigma,
            rng: SplitMix64::new(seed),
        }
    }
}

impl NoiseProcess for Gaussian {
    fn sample(&mut self, _t: f64) -> f64 {
        self.rng.next_gaussian() * self.sigma
    }
}

/// Ornstein–Uhlenbeck mean-reverting drift: `dx = -theta·x·dt + sigma·dW`.
///
/// `theta` controls how fast drift decays (1/seconds); `sigma` the
/// excitation. Stationary standard deviation is `sigma / sqrt(2·theta)`.
#[derive(Debug, Clone)]
pub struct OrnsteinUhlenbeck {
    theta: f64,
    sigma: f64,
    x: f64,
    rng: SplitMix64,
}

impl OrnsteinUhlenbeck {
    /// New process started from its stationary distribution.
    pub fn new(theta: f64, sigma: f64, seed: u64) -> Self {
        assert!(theta > 0.0, "theta must be positive");
        let mut rng = SplitMix64::new(seed);
        // Draw x0 from the stationary distribution so early windows are not
        // systematically quieter than late ones.
        let stationary_sd = sigma / (2.0 * theta).sqrt();
        let x = rng.next_gaussian() * stationary_sd;
        Self {
            theta,
            sigma,
            x,
            rng,
        }
    }

    /// Stationary standard deviation of the process.
    pub fn stationary_sd(&self) -> f64 {
        self.sigma / (2.0 * self.theta).sqrt()
    }
}

impl NoiseProcess for OrnsteinUhlenbeck {
    fn sample(&mut self, _t: f64) -> f64 {
        // Exact discretization for dt = 1 s.
        let a = (-self.theta).exp();
        let noise_sd = self.sigma * ((1.0 - a * a) / (2.0 * self.theta)).sqrt();
        self.x = a * self.x + noise_sd * self.rng.next_gaussian();
        self.x
    }
}

/// Poisson-arriving spikes with exponentially decaying tails: at rate
/// `rate_per_s`, a spike of height ~ `Exp(mean_height)` lands and then
/// decays with time constant `decay_s`.
#[derive(Debug, Clone)]
pub struct Spikes {
    rate_per_s: f64,
    mean_height: f64,
    decay: f64,
    level: f64,
    rng: SplitMix64,
}

impl Spikes {
    /// New spike process.
    pub fn new(rate_per_s: f64, mean_height: f64, decay_s: f64, seed: u64) -> Self {
        assert!(decay_s > 0.0);
        Self {
            rate_per_s,
            mean_height,
            decay: (-1.0 / decay_s).exp(),
            level: 0.0,
            rng: SplitMix64::new(seed),
        }
    }
}

impl NoiseProcess for Spikes {
    fn sample(&mut self, _t: f64) -> f64 {
        self.level *= self.decay;
        if self.rng.next_f64() < self.rate_per_s {
            // Exponential height.
            let u = self.rng.next_f64().max(f64::MIN_POSITIVE);
            self.level += -self.mean_height * u.ln();
        }
        self.level
    }
}

/// Sum of independent noise processes.
pub struct Composite {
    parts: Vec<Box<dyn NoiseProcess + Send>>,
}

impl Composite {
    /// Combine processes; their outputs are summed.
    pub fn new(parts: Vec<Box<dyn NoiseProcess + Send>>) -> Self {
        Self { parts }
    }

    /// The standard perturbation stack used by the workload models:
    /// white noise + OU drift + sparse spikes, each with its own substream.
    pub fn standard(white_sd: f64, drift_sd: f64, spike_height: f64, seed: u64) -> Self {
        let mut parts: Vec<Box<dyn NoiseProcess + Send>> = Vec::new();
        if white_sd > 0.0 {
            parts.push(Box::new(Gaussian::new(white_sd, seed ^ 0x1)));
        }
        if drift_sd > 0.0 {
            // theta = 1/120 s: drift correlated on the window timescale, the
            // regime where rounding depth actually matters.
            let theta: f64 = 1.0 / 120.0;
            let sigma = drift_sd * (2.0 * theta).sqrt();
            parts.push(Box::new(OrnsteinUhlenbeck::new(theta, sigma, seed ^ 0x2)));
        }
        if spike_height > 0.0 {
            parts.push(Box::new(Spikes::new(0.01, spike_height, 5.0, seed ^ 0x3)));
        }
        Self { parts }
    }
}

impl NoiseProcess for Composite {
    fn sample(&mut self, t: f64) -> f64 {
        self.parts.iter_mut().map(|p| p.sample(t)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<P: NoiseProcess>(p: &mut P, n: usize) -> Vec<f64> {
        (0..n).map(|t| p.sample(t as f64)).collect()
    }

    #[test]
    fn gaussian_moments() {
        let xs = run(&mut Gaussian::new(2.0, 42), 100_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd {}", var.sqrt());
    }

    #[test]
    fn gaussian_deterministic_per_seed() {
        let a = run(&mut Gaussian::new(1.0, 7), 100);
        let b = run(&mut Gaussian::new(1.0, 7), 100);
        let c = run(&mut Gaussian::new(1.0, 8), 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ou_is_mean_reverting_and_correlated() {
        let mut p = OrnsteinUhlenbeck::new(1.0 / 60.0, 1.0, 3);
        let xs = run(&mut p, 200_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let sd = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt();
        let expect_sd = p.stationary_sd();
        assert!(mean.abs() < 0.3, "mean {mean}");
        assert!(
            (sd - expect_sd).abs() / expect_sd < 0.1,
            "sd {sd} vs {expect_sd}"
        );

        // Lag-1 autocorrelation should be ≈ exp(-theta) ≈ 0.9835.
        let lag1: f64 = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / ((xs.len() - 1) as f64 * sd * sd);
        assert!(lag1 > 0.95, "lag-1 autocorrelation {lag1}");
    }

    #[test]
    fn spikes_are_nonnegative_and_sparse() {
        let xs = run(&mut Spikes::new(0.01, 100.0, 5.0, 9), 50_000);
        assert!(xs.iter().all(|&x| x >= 0.0));
        let quiet = xs.iter().filter(|&&x| x < 1e-3).count() as f64 / xs.len() as f64;
        assert!(quiet > 0.5, "quiet fraction {quiet}");
        assert!(xs.iter().any(|&x| x > 10.0), "no spikes landed");
    }

    #[test]
    fn composite_sums_parts() {
        let mut c = Composite::new(vec![
            Box::new(Gaussian::new(0.0, 1)),         // zero-sigma: contributes 0
            Box::new(Spikes::new(0.0, 1.0, 5.0, 2)), // zero-rate: contributes 0
        ]);
        for t in 0..100 {
            assert_eq!(c.sample(t as f64), 0.0);
        }
    }

    #[test]
    fn standard_stack_deterministic() {
        let a = run(&mut Composite::standard(1.0, 5.0, 20.0, 77), 300);
        let b = run(&mut Composite::standard(1.0, 5.0, 20.0, 77), 300);
        assert_eq!(a, b);
    }
}
