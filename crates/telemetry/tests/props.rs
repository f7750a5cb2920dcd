//! Property-based tests for the telemetry substrate.

use proptest::prelude::*;

use efd_telemetry::series::TimeSeries;
use efd_telemetry::trace::{AppLabel, ExecutionTrace, MetricSelection, NodeId, NodeTrace};
use efd_telemetry::Interval;

proptest! {
    /// Window means over a split window combine to the full-window mean.
    #[test]
    fn window_means_compose(
        values in prop::collection::vec(-1e6f64..1e6, 10..200),
        cut in 1u32..9,
    ) {
        let s = TimeSeries::from_values(values.clone());
        let n = values.len() as u32;
        let mid = n * cut / 10;
        prop_assume!(mid > 0 && mid < n);
        let left = s.window_stats(Interval::new(0, mid));
        let right = s.window_stats(Interval::new(mid, n));
        let full = s.window_stats(Interval::new(0, n));
        let combined_mean = (left.mean() * left.count() as f64
            + right.mean() * right.count() as f64)
            / (left.count() + right.count()) as f64;
        prop_assert!((combined_mean - full.mean()).abs() <= 1e-9 * full.mean().abs().max(1.0));
    }

    /// A tiling never overlaps and never exceeds the horizon.
    #[test]
    fn tiling_invariants(len in 1u32..120, horizon in 1u32..2000) {
        let tiles = Interval::tiling(len, horizon);
        for w in &tiles {
            prop_assert_eq!(w.duration(), len);
            prop_assert!(w.end <= horizon);
        }
        for pair in tiles.windows(2) {
            prop_assert!(!pair[0].overlaps(&pair[1]));
            prop_assert_eq!(pair[0].end, pair[1].start);
        }
    }

    /// CSV round-trips window means for arbitrary (finite) data.
    #[test]
    fn csv_roundtrip_preserves_means(
        values in prop::collection::vec(-1e6f64..1e6, 2..30),
    ) {
        use efd_telemetry::catalog::small_catalog;
        use efd_telemetry::csv;
        let catalog = small_catalog();
        let id = catalog.ids().next().unwrap();
        let trace = ExecutionTrace {
            exec_id: 1,
            label: AppLabel::new("ft", "X"),
            selection: MetricSelection::single(id),
            nodes: vec![NodeTrace {
                node: NodeId(0),
                series: vec![TimeSeries::from_values(values.clone())],
            }],
            duration_s: values.len() as u32,
        };
        let mut buf = Vec::new();
        csv::write_node_csv(&trace, NodeId(0), &catalog, &mut buf).unwrap();
        let parsed = csv::read_node_csv(&buf[..]).unwrap();
        let back = csv::assemble_trace(vec![parsed], &catalog).unwrap();
        let w = Interval::new(0, values.len() as u32);
        let a = trace.nodes[0].series[0].window_mean(w);
        let b = back.nodes[0].series[0].window_mean(w);
        prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
    }
}
