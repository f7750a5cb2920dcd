//! Rounding depth: the EFD's pruning mechanism (paper Table 1).
//!
//! > "Rounding depth defines the position of a non-zero digit, counting
//! > from the left, to which we will round."
//!
//! I.e. round to `depth` *significant decimal digits*, independent of the
//! value's magnitude — so the same rule prunes `1358.0` and `0.038` without
//! knowing either in advance:
//!
//! | value  | depth 4 | depth 3 | depth 2 | depth 1 |
//! |--------|---------|---------|---------|---------|
//! | 1358.0 | 1358.0  | 1360.0  | 1400.0  | 1000.0  |
//! | 5.28   | —       | 5.28    | 5.3     | 5.0     |
//! | 0.038  | —       | —       | 0.038   | 0.04    |
//!
//! ("—" = depth exceeds the value's significant digits; the value is
//! returned unchanged, which the arithmetic below does naturally.)
//!
//! Ties round half away from zero (`f64::round` semantics). Zero and
//! non-finite values pass through unchanged. No pruning (high depth) yields
//! precise fingerprints with high exclusiveness but low repetition;
//! excessive pruning (depth 1) yields generic fingerprints with high
//! repetition but low exclusiveness — the trade-off the inner
//! cross-validation of [`crate::training`] navigates.
//!
//! ## Exactness
//!
//! A rounded mean is a dictionary key, so [`round_to_depth`] must return
//! the same bits on every path: the reference computation takes the
//! magnitude as `log10(|v|).floor()` and the scale factor as
//! `10f64.powi(shift)`. The fast path gets both without libm:
//!
//! - **Table.** `POW10` holds 10^0 ..= 10^22, each exact in f64, so
//!   `10f64.powi(k)` (repeated squaring through exact intermediates) is
//!   bit-for-bit `POW10[k]` for k ≤ 22. `POW10_NEG` holds the nearest
//!   f64 to 10^-1 ..= 10^-22.
//! - **Magnitude.** For |v| = a in [1e-22, 1e22) with binary exponent
//!   e, log10(a) lies in [e, e + 1) · log10(2), so floor(log10(a)) is
//!   floor(e · log10(2)) or one more; one comparison with the table
//!   decides. Only the comparison with a `POW10_NEG` entry can err, and
//!   only for a within one rounding (~1.1e-16, relative) of the power.
//! - **Band.** Where a lies within 1e-9 (relative) of a power of ten the
//!   fast path does not decide: it calls the libm computation itself.
//!   Outside the band, log10(a) is at least 1e-9 / ln(10) ≈ 4.3e-10 away
//!   from an integer, while libm's `log10` is within a few ULPs of the
//!   true value (≤ ~1e-14 absolute for magnitudes up to 22), so libm's
//!   floor is the true floor, which the table finds too. The band is
//!   about four orders of magnitude wider than either error.
//! - **Fallback.** Values outside [1e-22, 1e22), and shifts beyond ±22
//!   (where `powi` leaves the exact powers), take the libm computation
//!   unchanged.
//!
//! `crates/core/tests/rounding_exact.rs` checks the result bit for bit
//! against a copy of the reference: ±128 ULPs around every power of ten
//! from 10^-330 to 10^330 at every depth and both signs, both sides of
//! every band edge, and arbitrary bit patterns; its ignored sweep (run in
//! CI) widens that to ±3000 ULPs and 20M random values.

use std::fmt;

use serde::{Deserialize, Error, Serialize, Value};

/// Round `v` to `depth` significant decimal digits (half away from zero).
///
/// `depth` must be ≥ 1. Values whose decimal representation has at most
/// `depth` significant digits are returned unchanged (up to f64
/// round-trip). Zero, NaN and infinities pass through.
///
/// ```
/// use efd_core::rounding::round_to_depth;
/// assert_eq!(round_to_depth(1358.0, 3), 1360.0);
/// assert_eq!(round_to_depth(1358.0, 2), 1400.0);
/// assert_eq!(round_to_depth(0.038, 1), 0.04);
/// ```
pub fn round_to_depth(v: f64, depth: u8) -> f64 {
    assert!(depth >= 1, "rounding depth must be >= 1");
    if v == 0.0 || !v.is_finite() {
        return v;
    }
    // f64 carries ~15.95 significant decimal digits; at depth >= 16 the
    // scaled value would exceed 2^53 and the "rounding" would corrupt the
    // mantissa instead. Such depths are identity by construction.
    if depth >= 16 {
        return v;
    }
    let Some(magnitude) = table_magnitude(v.abs()) else {
        return round_by_libm(v, depth);
    };
    let shift = depth as i32 - 1 - magnitude;
    // Same arithmetic as `round_by_libm`, with the scale factor read
    // from the table: `10f64.powi(k)` is exactly `POW10[k]` for k <= 22.
    match POW10.get(shift.unsigned_abs() as usize) {
        Some(&factor) if shift >= 0 => (v * factor).round() / factor,
        Some(&factor) => (v / factor).round() * factor,
        None => round_by_libm(v, depth),
    }
}

/// 10^0 ..= 10^22: every power of ten that is exact in f64.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The nearest f64 to 10^-k for k = 0 ..= 22 (not exact for k >= 1).
const POW10_NEG: [f64; 23] = [
    1e0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14,
    1e-15, 1e-16, 1e-17, 1e-18, 1e-19, 1e-20, 1e-21, 1e-22,
];

/// Half-width of the band around each power of ten, relative, in which
/// the table defers to libm's `log10` (module docs, "Exactness").
const BAND: f64 = 1e-9;

/// The table's entry for 10^k, k in -22 ..= 22.
#[inline]
fn pow10(k: i32) -> f64 {
    if k >= 0 {
        POW10[k as usize]
    } else {
        POW10_NEG[k.unsigned_abs() as usize]
    }
}

/// `floor(log10(a))` for positive `a`, from `a`'s exponent bits and the
/// power-of-ten table; `None` when `a` lies outside [1e-22, 1e22) or
/// within [`BAND`] of a power of ten, where the caller falls back to
/// libm.
#[inline]
fn table_magnitude(a: f64) -> Option<i32> {
    if !(1e-22..1e22).contains(&a) {
        return None;
    }
    // `a` is normal here: 2^e <= a < 2^(e+1).
    let e = ((a.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    // floor(e * log10(2)) for |e| <= 74 (78913 / 2^18 ≈ log10(2));
    // log10(a) lies in [e, e + 1) * log10(2), an interval narrower than
    // one, so the magnitude is this or the next integer.
    let mut m = (e * 78913) >> 18;
    if a >= pow10(m + 1) {
        m += 1;
    }
    let near_power = a < pow10(m) * (1.0 + BAND) || a > pow10(m + 1) * (1.0 - BAND);
    (!near_power).then_some(m)
}

/// The reference rounding: magnitude from libm's `log10`, scale factor
/// from `powi`. [`round_to_depth`] gives the same bits without libm
/// wherever the table decides the magnitude, and calls this elsewhere.
fn round_by_libm(v: f64, depth: u8) -> f64 {
    let magnitude = v.abs().log10().floor() as i32;
    let shift = depth as i32 - 1 - magnitude;
    // Above ~10^300 the scale factor itself would overflow; such
    // magnitudes carry no meaningful decimal structure for telemetry.
    if !(-300..=300).contains(&shift) {
        return v;
    }
    // Powers of ten up to 10^22 are exactly representable; negative powers
    // are NOT, so divide by the positive power instead of multiplying by
    // its inverse (keeps e.g. round(-1e9, 1) == -1e9 bit-exactly).
    if shift >= 0 {
        let factor = 10f64.powi(shift);
        (v * factor).round() / factor
    } else {
        let factor = 10f64.powi(-shift);
        (v / factor).round() * factor
    }
}

/// Validated rounding depth (1 ..= 17; 17 significant digits exceed f64
/// decimal precision, i.e. identity).
///
/// The EFD's only tunable parameter (paper Table 1 / §4): how many
/// significant decimal digits a window mean keeps before becoming a
/// dictionary key. Low depth prunes aggressively (robust, collision-prone);
/// high depth keeps precision (exclusive, repetition-poor).
///
/// ```
/// use efd_core::RoundingDepth;
///
/// let depth = RoundingDepth::new(2);
/// // Similar measurements fall onto the same key…
/// assert_eq!(depth.round(6037.2), 6000.0);
/// assert_eq!(depth.round(5980.4), 6000.0);
/// // …while depth 3 keeps them apart (the paper's SP/BT fix).
/// assert_ne!(RoundingDepth::new(3).round(6037.2), RoundingDepth::new(3).round(5980.4));
/// assert!(RoundingDepth::try_new(0).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RoundingDepth(u8);

// Serialized transparently as the raw depth; deserialization re-validates
// the 1..=17 invariant instead of panicking in `new`.
impl Serialize for RoundingDepth {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for RoundingDepth {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let depth = u8::from_value(v)?;
        RoundingDepth::try_new(depth)
            .ok_or_else(|| Error::msg(format!("rounding depth {depth} outside 1..={}", Self::MAX)))
    }
}

impl RoundingDepth {
    /// Maximum supported depth.
    pub const MAX: u8 = 17;

    /// The paper's example-dictionary depth (Table 4).
    pub const TABLE4: RoundingDepth = RoundingDepth(2);

    /// Construct a depth; panics outside `1..=17`.
    pub fn new(depth: u8) -> Self {
        Self::try_new(depth)
            .unwrap_or_else(|| panic!("rounding depth must be in 1..={}, got {depth}", Self::MAX))
    }

    /// Construct a depth, `None` outside `1..=17` — the single validation
    /// point shared by [`RoundingDepth::new`], deserialization, and
    /// dictionary restore.
    pub fn try_new(depth: u8) -> Option<Self> {
        (1..=Self::MAX).contains(&depth).then_some(Self(depth))
    }

    /// The raw depth value.
    #[inline]
    pub fn get(self) -> u8 {
        self.0
    }

    /// Round a value at this depth.
    #[inline]
    pub fn round(self, v: f64) -> f64 {
        round_to_depth(v, self.0)
    }

    /// The default candidate grid for depth selection (1..=6): telemetry
    /// means rarely carry more than six reproducible significant digits.
    pub fn candidates() -> Vec<RoundingDepth> {
        (1..=6).map(RoundingDepth).collect()
    }
}

impl fmt::Display for RoundingDepth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_table1_row_1358() {
        assert_eq!(round_to_depth(1358.0, 5), 1358.0); // "—": unchanged
        assert_eq!(round_to_depth(1358.0, 4), 1358.0);
        assert_eq!(round_to_depth(1358.0, 3), 1360.0);
        assert_eq!(round_to_depth(1358.0, 2), 1400.0);
        assert_eq!(round_to_depth(1358.0, 1), 1000.0);
    }

    #[test]
    fn paper_table1_row_5_28() {
        assert_eq!(round_to_depth(5.28, 4), 5.28); // "—"
        assert_eq!(round_to_depth(5.28, 3), 5.28);
        assert_eq!(round_to_depth(5.28, 2), 5.3);
        assert_eq!(round_to_depth(5.28, 1), 5.0);
    }

    #[test]
    fn paper_table1_row_0_038() {
        assert_eq!(round_to_depth(0.038, 3), 0.038); // "—"
        assert_eq!(round_to_depth(0.038, 2), 0.038);
        assert_eq!(round_to_depth(0.038, 1), 0.04);
    }

    #[test]
    fn table4_values_at_depth_2() {
        // The example dictionary's cells are depth-2 roundings.
        assert_eq!(round_to_depth(7617.76, 2), 7600.0);
        assert_eq!(round_to_depth(7520.0, 2), 7500.0);
        assert_eq!(round_to_depth(7121.44, 2), 7100.0);
        assert_eq!(round_to_depth(6020.0, 2), 6000.0);
        assert_eq!(round_to_depth(10980.0, 2), 11000.0);
    }

    #[test]
    fn half_rounds_away_from_zero() {
        assert_eq!(round_to_depth(1350.0, 2), 1400.0);
        assert_eq!(round_to_depth(-1350.0, 2), -1400.0);
        assert_eq!(round_to_depth(0.25, 1), 0.3);
    }

    #[test]
    fn negative_values_mirror_positive() {
        assert_eq!(round_to_depth(-1358.0, 3), -1360.0);
        assert_eq!(round_to_depth(-0.038, 1), -0.04);
    }

    #[test]
    fn zero_and_nonfinite_pass_through() {
        assert_eq!(round_to_depth(0.0, 3), 0.0);
        assert!(round_to_depth(f64::NAN, 2).is_nan());
        assert_eq!(round_to_depth(f64::INFINITY, 2), f64::INFINITY);
        assert_eq!(round_to_depth(f64::NEG_INFINITY, 2), f64::NEG_INFINITY);
    }

    #[test]
    fn rounding_can_bump_magnitude() {
        assert_eq!(round_to_depth(995.0, 2), 1000.0);
        assert_eq!(round_to_depth(0.0995, 2), 0.1);
    }

    #[test]
    fn extreme_magnitudes_pass_through() {
        assert_eq!(round_to_depth(1e308, 1), 1e308);
        assert_eq!(round_to_depth(1e-308, 1), 1e-308);
    }

    #[test]
    fn depth_type_bounds() {
        assert_eq!(RoundingDepth::new(3).get(), 3);
        assert_eq!(RoundingDepth::new(3).to_string(), "3");
        assert_eq!(RoundingDepth::candidates().len(), 6);
    }

    #[test]
    #[should_panic(expected = "rounding depth")]
    fn depth_zero_rejected() {
        RoundingDepth::new(0);
    }

    #[test]
    #[should_panic(expected = "rounding depth")]
    fn depth_18_rejected() {
        RoundingDepth::new(18);
    }

    proptest! {
        #[test]
        fn idempotent(v in -1e9f64..1e9, d in 1u8..=8) {
            let once = round_to_depth(v, d);
            let twice = round_to_depth(once, d);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn within_half_grain(v in 1e-6f64..1e9, d in 1u8..=8) {
            let r = round_to_depth(v, d);
            let magnitude = v.abs().log10().floor() as i32;
            let grain = 10f64.powi(magnitude - d as i32 + 1);
            // 1.0001 × tolerance for fp slack at grain boundaries.
            prop_assert!((r - v).abs() <= grain * 0.50001,
                "v={} d={} r={} grain={}", v, d, r, grain);
        }

        #[test]
        fn sign_symmetric(v in 1e-6f64..1e9, d in 1u8..=8) {
            prop_assert_eq!(round_to_depth(-v, d), -round_to_depth(v, d));
        }

        #[test]
        fn monotone_on_positive(a in 1e-3f64..1e9, b in 1e-3f64..1e9, d in 1u8..=8) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(round_to_depth(lo, d) <= round_to_depth(hi, d));
        }

        #[test]
        fn high_depth_is_identity(v in -1e9f64..1e9) {
            prop_assert_eq!(round_to_depth(v, 17), v);
        }
    }
}
