//! Time windows over an execution, in whole seconds.
//!
//! The paper fingerprints the interval between 60 and 120 seconds after the
//! start of an execution (written `[60:120]`) to skip the noisy
//! initialization phase while still reporting early. Intervals here are
//! half-open `[start, end)` in seconds, which at 1 Hz sampling yields exactly
//! `end - start` samples.

use std::fmt;

/// Half-open time window `[start, end)` in seconds since execution start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// Inclusive start second.
    pub start: u32,
    /// Exclusive end second.
    pub end: u32,
}

serde::impl_serde_struct!(Interval { start, end });

impl Interval {
    /// The paper's default fingerprinting window, `[60:120]`.
    pub const PAPER_DEFAULT: Interval = Interval {
        start: 60,
        end: 120,
    };

    /// Construct a window; panics if `end <= start`.
    pub fn new(start: u32, end: u32) -> Self {
        assert!(end > start, "empty interval [{start}:{end}]");
        Self { start, end }
    }

    /// Window length in seconds (= number of 1 Hz samples).
    #[inline]
    pub fn duration(&self) -> u32 {
        self.end - self.start
    }

    /// Whether second `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: u32) -> bool {
        t >= self.start && t < self.end
    }

    /// Whether two windows overlap.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Shift the window right by `offset` seconds.
    pub fn shifted(&self, offset: u32) -> Interval {
        Interval {
            start: self.start + offset,
            end: self.end + offset,
        }
    }

    /// Consecutive non-overlapping windows of length `len` covering
    /// `[0, horizon)`: `[0:len], [len:2len], …` (the paper's future-work
    /// "multiple time intervals" populate the dictionary with these).
    pub fn tiling(len: u32, horizon: u32) -> Vec<Interval> {
        assert!(len > 0, "window length must be positive");
        (0..horizon / len)
            .map(|k| Interval::new(k * len, (k + 1) * len))
            .collect()
    }
}

impl fmt::Display for Interval {
    /// Paper notation: `[60:120]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}:{}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default() {
        let w = Interval::PAPER_DEFAULT;
        assert_eq!(w.start, 60);
        assert_eq!(w.end, 120);
        assert_eq!(w.duration(), 60);
        assert_eq!(w.to_string(), "[60:120]");
    }

    #[test]
    fn containment_is_half_open() {
        let w = Interval::new(60, 120);
        assert!(!w.contains(59));
        assert!(w.contains(60));
        assert!(w.contains(119));
        assert!(!w.contains(120));
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn rejects_empty() {
        Interval::new(10, 10);
    }

    #[test]
    fn overlap() {
        let a = Interval::new(0, 60);
        let b = Interval::new(60, 120);
        let c = Interval::new(59, 61);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn shifting() {
        assert_eq!(Interval::new(0, 60).shifted(60), Interval::new(60, 120));
    }

    #[test]
    fn tiling_covers_horizon() {
        let t = Interval::tiling(60, 300);
        assert_eq!(t.len(), 5);
        assert_eq!(t[0], Interval::new(0, 60));
        assert_eq!(t[4], Interval::new(240, 300));
        for w in t.windows(2) {
            assert!(!w[0].overlaps(&w[1]));
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn tiling_truncates_partial_window() {
        assert_eq!(Interval::tiling(60, 150).len(), 2);
    }
}
