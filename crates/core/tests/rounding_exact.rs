//! `round_to_depth` must return the same bits as the libm computation it
//! replaced (magnitude from `log10().floor()`, scale factor from
//! `powi`): a rounded mean is a dictionary key, so one moved bit moves a
//! key and every EFDB/EFDW byte built from it.
//!
//! The tier-1 tests sweep the neighbourhood of every power of ten, where
//! the magnitude is hardest to decide, at every depth and both signs,
//! plus both sides of the fast path's band edges and arbitrary bit
//! patterns. The ignored wide sweep (run in CI with `--release`) widens
//! the neighbourhoods and adds 20M random values:
//!
//! ```sh
//! cargo test --release -p efd-core --test rounding_exact -- --ignored
//! ```

use efd_core::rounding::round_to_depth;
use efd_util::rng::SplitMix64;
use proptest::prelude::*;

/// The reference: `round_to_depth` as it was before the table-driven
/// magnitude, kept verbatim as the oracle.
fn oracle(v: f64, depth: u8) -> f64 {
    assert!(depth >= 1, "rounding depth must be >= 1");
    if v == 0.0 || !v.is_finite() {
        return v;
    }
    if depth >= 16 {
        return v;
    }
    let magnitude = v.abs().log10().floor() as i32;
    let shift = depth as i32 - 1 - magnitude;
    if !(-300..=300).contains(&shift) {
        return v;
    }
    if shift >= 0 {
        let factor = 10f64.powi(shift);
        (v * factor).round() / factor
    } else {
        let factor = 10f64.powi(-shift);
        (v / factor).round() * factor
    }
}

/// Compare both functions on `v` and `-v` at every depth, adding each
/// mismatch to `mismatches` and reporting the first few.
fn check(v: f64, mismatches: &mut u64) {
    for x in [v, -v] {
        for depth in 1..=17 {
            let (got, want) = (round_to_depth(x, depth), oracle(x, depth));
            if got.to_bits() != want.to_bits() && !(got.is_nan() && want.is_nan()) {
                if *mismatches < 8 {
                    eprintln!(
                        "mismatch: v={x:e} ({:#018x}) depth={depth}: {got:e} != {want:e}",
                        x.to_bits()
                    );
                }
                *mismatches += 1;
            }
        }
    }
}

/// The nearest f64 to 10^k (0 or infinity past the f64 range).
fn power_of_ten(k: i32) -> f64 {
    format!("1e{k}").parse().expect("a decimal literal")
}

/// `ulps` steps of one ULP each way from positive `center`, in bit
/// order (walking through subnormals and zero at the bottom end).
fn around(center: f64, ulps: i64) -> impl Iterator<Item = f64> {
    let bits = center.to_bits() as i64;
    (bits - ulps..=bits + ulps)
        .filter(|b| (0..=f64::MAX.to_bits() as i64).contains(b))
        .map(|b| f64::from_bits(b as u64))
}

/// Every power of ten the f64 range reaches, and then some.
const POWERS: std::ops::RangeInclusive<i32> = -330..=330;

fn sweep_powers(ulps: i64) -> u64 {
    let mut mismatches = 0;
    for k in POWERS {
        for v in around(power_of_ten(k), ulps) {
            check(v, &mut mismatches);
        }
    }
    mismatches
}

#[test]
fn bit_identical_within_128_ulps_of_every_power_of_ten() {
    assert_eq!(sweep_powers(128), 0);
}

#[test]
fn bit_identical_on_both_sides_of_the_band_edges() {
    // The fast path defers to libm within 1e-9 (relative) of a power of
    // ten; step across each edge of that band, and across the table's
    // [1e-22, 1e22) range ends.
    let mut mismatches = 0;
    for k in -23..=23 {
        let p = power_of_ten(k);
        for edge in [
            p * (1.0 - 1e-9),
            p * (1.0 + 1e-9),
            p * (1.0 - 2e-9),
            p * (1.0 + 2e-9),
        ] {
            for v in around(edge, 64) {
                check(v, &mut mismatches);
            }
        }
    }
    assert_eq!(mismatches, 0);
}

#[test]
fn bit_identical_on_paper_shaped_means() {
    // Telemetry means of the sizes the paper rounds (Table 1 and 4), and
    // halfway cases, where the scaled value sits on .5.
    let mut mismatches = 0;
    for v in [
        1358.0, 5.28, 0.038, 7617.76, 6020.0, 10980.0, 995.0, 0.0995, 0.25, 1350.0,
    ] {
        check(v, &mut mismatches);
    }
    for k in -20..=20 {
        for digits in 1..=999u32 {
            check(
                f64::from(digits) * power_of_ten(k) + 0.5 * power_of_ten(k),
                &mut mismatches,
            );
        }
    }
    assert_eq!(mismatches, 0);
}

proptest! {
    #[test]
    fn bit_identical_on_arbitrary_bit_patterns(bits in any::<u64>(), depth in 1u8..=17) {
        let v = f64::from_bits(bits);
        let (got, want) = (round_to_depth(v, depth), oracle(v, depth));
        prop_assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "v={:e} depth={} got={:e} want={:e}", v, depth, got, want
        );
    }

    #[test]
    fn bit_identical_on_log_uniform_values(exp in -25.0f64..25.0, depth in 1u8..=17) {
        let v = 10f64.powf(exp);
        prop_assert_eq!(round_to_depth(v, depth).to_bits(), oracle(v, depth).to_bits());
    }
}

#[test]
#[ignore = "wide sweep: about 2 minutes in release; CI runs it with --ignored"]
fn bit_identical_within_3000_ulps_and_on_20m_random_values() {
    let mut mismatches = sweep_powers(3000);
    let mut rng = SplitMix64::new(0x5eed_2022);
    for i in 0..20_000_000u64 {
        // Alternate arbitrary bit patterns with log-uniform values over
        // the table's range and a decade past each end.
        let v = if i % 2 == 0 {
            f64::from_bits(rng.next_u64())
        } else {
            10f64.powf(rng.next_f64() * 48.0 - 24.0)
        };
        check(v, &mut mismatches);
    }
    assert_eq!(mismatches, 0);
}
