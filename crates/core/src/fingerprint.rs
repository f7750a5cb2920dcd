//! Fingerprint identity.
//!
//! A fingerprint is the paper's dictionary key:
//! `[metric name, node id, time interval, rounded mean]` — e.g.
//! `[nr_mapped_vmstat, 0, [60:120], 6000.0]`. Equality and hashing use the
//! rounded mean's bit pattern (with `-0.0` normalized), so fingerprints are
//! exact hash keys with no tolerance comparisons — the paper's entire point
//! ("we continue with low complexity by relying on dictionary-based
//! matching of fingerprints with rounded values").

use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::{Interval, MetricId, NodeId};

use crate::rounding::RoundingDepth;

/// A dictionary key: one rounded window mean on one node for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Which metric the mean was computed from.
    pub metric: MetricId,
    /// Which node of the allocation produced it.
    pub node: NodeId,
    /// The time window the mean covers.
    pub interval: Interval,
    /// Rounded mean, stored as normalized f64 bits (`-0.0` → `+0.0`) so the
    /// key is `Eq + Hash`.
    mean_bits: u64,
}

serde::impl_serde_struct!(Fingerprint {
    metric,
    node,
    interval,
    mean_bits,
});

impl Fingerprint {
    /// Build a fingerprint from a *raw* window mean, rounding at `depth`.
    /// Returns `None` for non-finite means (empty windows produce NaN and
    /// must not become keys).
    pub fn from_raw(
        metric: MetricId,
        node: NodeId,
        interval: Interval,
        raw_mean: f64,
        depth: RoundingDepth,
    ) -> Option<Self> {
        if !raw_mean.is_finite() {
            return None;
        }
        let rounded = depth.round(raw_mean);
        Some(Self::from_rounded(metric, node, interval, rounded))
    }

    /// Build from an already-rounded mean (deserialization, tests).
    pub fn from_rounded(metric: MetricId, node: NodeId, interval: Interval, mean: f64) -> Self {
        // Normalize -0.0 so it hashes identically to +0.0.
        let mean = if mean == 0.0 { 0.0 } else { mean };
        Self {
            metric,
            node,
            interval,
            mean_bits: mean.to_bits(),
        }
    }

    /// The rounded mean.
    #[inline]
    pub fn mean(&self) -> f64 {
        f64::from_bits(self.mean_bits)
    }

    /// Paper-style rendering: `[nr_mapped_vmstat, 0, [60:120], 6000.0]`.
    pub fn display(&self, catalog: &MetricCatalog) -> String {
        format!(
            "[{}, {}, {}, {}]",
            catalog.name(self.metric),
            self.node,
            self.interval,
            fmt_mean(self.mean())
        )
    }

    /// Compact byte encoding (22 bytes): metric, node, interval, mean bits.
    pub fn pack(&self) -> [u8; 22] {
        let mut out = [0u8; 22];
        out[0..4].copy_from_slice(&self.metric.0.to_le_bytes());
        out[4..6].copy_from_slice(&self.node.0.to_le_bytes());
        out[6..10].copy_from_slice(&self.interval.start.to_le_bytes());
        out[10..14].copy_from_slice(&self.interval.end.to_le_bytes());
        out[14..22].copy_from_slice(&self.mean_bits.to_le_bytes());
        out
    }

    /// Decode [`Fingerprint::pack`]'s output.
    #[allow(clippy::missing_panics_doc)] // slices are statically sized
    pub fn unpack(bytes: &[u8; 22]) -> Self {
        let metric = MetricId(u32::from_le_bytes(bytes[0..4].try_into().unwrap()));
        let node = NodeId(u16::from_le_bytes(bytes[4..6].try_into().unwrap()));
        let start = u32::from_le_bytes(bytes[6..10].try_into().unwrap());
        let end = u32::from_le_bytes(bytes[10..14].try_into().unwrap());
        let mean_bits = u64::from_le_bytes(bytes[14..22].try_into().unwrap());
        Self {
            metric,
            node,
            interval: Interval { start, end },
            mean_bits,
        }
    }
}

/// Format a mean the way the paper's tables print them: integral values
/// keep one decimal (`6000.0`), fractional values print naturally (`5.3`).
pub fn fmt_mean(mean: f64) -> String {
    if mean.fract() == 0.0 && mean.abs() < 1e15 {
        format!("{mean:.1}")
    } else {
        format!("{mean}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_telemetry::catalog::small_catalog;

    fn fp(mean: f64, depth: u8) -> Option<Fingerprint> {
        Fingerprint::from_raw(
            MetricId(0),
            NodeId(0),
            Interval::PAPER_DEFAULT,
            mean,
            RoundingDepth::new(depth),
        )
    }

    #[test]
    fn rounding_applied_on_construction() {
        let f = fp(6037.2, 2).unwrap();
        assert_eq!(f.mean(), 6000.0);
    }

    #[test]
    fn similar_means_collide_after_rounding() {
        // The paper's mechanism: similar but distinct measurements round to
        // the same fingerprint.
        assert_eq!(fp(6037.2, 2), fp(5980.4, 2));
        assert_ne!(fp(6037.2, 3), fp(5980.4, 3));
    }

    #[test]
    fn nan_mean_yields_no_fingerprint() {
        assert!(fp(f64::NAN, 2).is_none());
        assert!(fp(f64::INFINITY, 2).is_none());
    }

    #[test]
    fn negative_zero_normalized() {
        let a = Fingerprint::from_rounded(MetricId(0), NodeId(0), Interval::PAPER_DEFAULT, 0.0);
        let b = Fingerprint::from_rounded(MetricId(0), NodeId(0), Interval::PAPER_DEFAULT, -0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn display_matches_paper_format() {
        let c = small_catalog();
        let id = c.id("nr_mapped_vmstat").unwrap();
        let f = Fingerprint::from_raw(
            id,
            NodeId(0),
            Interval::PAPER_DEFAULT,
            6037.2,
            RoundingDepth::new(2),
        )
        .unwrap();
        assert_eq!(f.display(&c), "[nr_mapped_vmstat, 0, [60:120], 6000.0]");
    }

    #[test]
    fn mean_formatting() {
        assert_eq!(fmt_mean(6000.0), "6000.0");
        assert_eq!(fmt_mean(5.3), "5.3");
        assert_eq!(fmt_mean(0.04), "0.04");
    }

    #[test]
    fn keys_distinguish_all_components() {
        let base = fp(6000.0, 2).unwrap();
        let other_metric =
            Fingerprint::from_rounded(MetricId(1), NodeId(0), Interval::PAPER_DEFAULT, 6000.0);
        let other_node =
            Fingerprint::from_rounded(MetricId(0), NodeId(1), Interval::PAPER_DEFAULT, 6000.0);
        let other_interval =
            Fingerprint::from_rounded(MetricId(0), NodeId(0), Interval::new(0, 60), 6000.0);
        assert_ne!(base, other_metric);
        assert_ne!(base, other_node);
        assert_ne!(base, other_interval);
    }

    #[test]
    fn pack_roundtrip() {
        let f =
            Fingerprint::from_rounded(MetricId(561), NodeId(31), Interval::new(120, 180), 10980.0);
        assert_eq!(Fingerprint::unpack(&f.pack()), f);
    }
}
