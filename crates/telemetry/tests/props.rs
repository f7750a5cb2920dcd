//! Property-based tests for the telemetry substrate.

use proptest::prelude::*;

use efd_telemetry::series::TimeSeries;
use efd_telemetry::storage;
use efd_telemetry::trace::{AppLabel, ExecutionTrace, MetricSelection, NodeId, NodeTrace};
use efd_telemetry::{Interval, MetricId};

/// Strategy: an arbitrary (small) execution trace, including NaN gaps.
fn arb_trace() -> impl Strategy<Value = ExecutionTrace> {
    let sample = prop_oneof![
        8 => (-1e9f64..1e9).prop_map(Some),
        1 => Just(None), // missing sample
    ];
    let series = prop::collection::vec(sample, 1..40).prop_map(|v| {
        TimeSeries::from_values(v.into_iter().map(|x| x.unwrap_or(f64::NAN)).collect())
    });
    (
        1u16..4,      // nodes
        1usize..4,    // metrics
        "[a-z]{1,8}", // app
        "[A-Z]{1}",   // input
        any::<u64>(), // exec id
    )
        .prop_flat_map(move |(nodes, metrics, app, input, exec_id)| {
            prop::collection::vec(
                prop::collection::vec(series.clone(), metrics..=metrics),
                nodes as usize..=nodes as usize,
            )
            .prop_map(move |node_series| {
                let selection = MetricSelection::new((0..metrics as u32).map(MetricId).collect());
                let duration = node_series[0][0].len() as u32;
                ExecutionTrace {
                    exec_id,
                    label: AppLabel::new(app.clone(), input.clone()),
                    selection,
                    nodes: node_series
                        .into_iter()
                        .enumerate()
                        .map(|(n, series)| NodeTrace {
                            node: NodeId(n as u16),
                            series,
                        })
                        .collect(),
                    duration_s: duration,
                }
            })
        })
}

fn series_eq(a: &TimeSeries, b: &TimeSeries) -> bool {
    a.len() == b.len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| (x == y) || (x.is_nan() && y.is_nan()))
}

proptest! {
    /// Binary storage round-trips arbitrary traces exactly (incl. NaN).
    #[test]
    fn binary_roundtrip(trace in arb_trace()) {
        let bytes = storage::to_bytes(&trace);
        let back = storage::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back.label, &trace.label);
        prop_assert_eq!(back.exec_id, trace.exec_id);
        prop_assert_eq!(&back.selection, &trace.selection);
        prop_assert_eq!(back.nodes.len(), trace.nodes.len());
        for (na, nb) in trace.nodes.iter().zip(&back.nodes) {
            prop_assert_eq!(na.node, nb.node);
            for (sa, sb) in na.series.iter().zip(&nb.series) {
                prop_assert!(series_eq(sa, sb));
            }
        }
    }

    /// JSON storage also round-trips (NaN via null).
    #[test]
    fn json_roundtrip(trace in arb_trace()) {
        let json = storage::to_json(&trace).unwrap();
        let back = storage::from_json(&json).unwrap();
        for (na, nb) in trace.nodes.iter().zip(&back.nodes) {
            for (sa, sb) in na.series.iter().zip(&nb.series) {
                prop_assert!(series_eq(sa, sb));
            }
        }
    }

    /// Truncating a binary blob never round-trips successfully.
    #[test]
    fn truncation_always_detected(trace in arb_trace(), frac in 0.0f64..1.0) {
        let bytes = storage::to_bytes(&trace);
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(storage::from_bytes(&bytes[..cut]).is_err());
    }

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
