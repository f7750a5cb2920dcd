//! The paper's reported numbers, for side-by-side comparison.
//!
//! Figure 2 is a bar chart without a numbers table; the EFD/Taxonomist
//! values below are digitized from the figure and are **approximate**
//! (±0.02). Table 3 values are copied verbatim. The reproduction is judged
//! on *shape* — who wins, by roughly what factor, where the hard
//! experiments fall off — not on matching these to the percent.

use crate::experiments::ExperimentKind;

/// Paper-reported EFD F-scores (digitized from Figure 2; the hard
/// experiments are the "room for improvement" bars of §5).
pub fn efd_figure2(kind: ExperimentKind) -> f64 {
    match kind {
        ExperimentKind::NormalFold => 1.0,
        ExperimentKind::SoftInput => 0.98,
        ExperimentKind::SoftUnknown => 0.97,
        ExperimentKind::HardInput => 0.70,
        ExperimentKind::HardUnknown => 0.74,
    }
}

/// Paper-reported Taxonomist F-scores (digitized from Figure 2). The
/// hard experiments "were not conducted in the Taxonomist" — `None`.
pub fn taxonomist_figure2(kind: ExperimentKind) -> Option<f64> {
    match kind {
        ExperimentKind::NormalFold => Some(0.99),
        ExperimentKind::SoftInput => Some(0.98),
        ExperimentKind::SoftUnknown => Some(0.97),
        ExperimentKind::HardInput | ExperimentKind::HardUnknown => None,
    }
}

/// Table 3 (excerpt of individual system-metric results, normal fold),
/// verbatim from the paper.
pub const TABLE3: [(&str, f64); 13] = [
    ("nr_mapped_vmstat", 1.0),
    ("Committed_AS_meminfo", 1.0),
    ("nr_active_anon_vmstat", 1.0),
    ("nr_anon_pages_vmstat", 1.0),
    ("Active_meminfo", 0.99),
    ("Mapped_meminfo", 0.99),
    ("AnonPages_meminfo", 0.97),
    ("MemFree_meminfo", 0.97),
    ("PageTables_meminfo", 0.97),
    ("nr_page_table_pages_vmstat", 0.97),
    ("AMO_PKTS_metric_set_nic", 0.96),
    ("AMO_FLITS_metric_set_nic", 0.95),
    ("PI_PKTS_metric_set_nic", 0.95),
];

/// The paper's headline metric.
pub const HEADLINE_METRIC: &str = "nr_mapped_vmstat";

/// Table 1 rows: (value, [depth-5, depth-4, depth-3, depth-2, depth-1]
/// expected outputs; `None` = the paper's "—", i.e. value unchanged).
pub const TABLE1: [(f64, [Option<f64>; 5]); 3] = [
    (
        1358.0,
        [None, Some(1358.0), Some(1360.0), Some(1400.0), Some(1000.0)],
    ),
    (5.28, [None, None, Some(5.28), Some(5.3), Some(5.0)]),
    (0.038, [None, None, None, Some(0.038), Some(0.04)]),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_covers_all_experiments() {
        for kind in ExperimentKind::ALL {
            let e = efd_figure2(kind);
            assert!((0.0..=1.0).contains(&e));
        }
        assert!(taxonomist_figure2(ExperimentKind::HardInput).is_none());
        assert!(taxonomist_figure2(ExperimentKind::NormalFold).is_some());
    }

    #[test]
    fn table3_is_sorted_descending() {
        for w in TABLE3.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(TABLE3[0].0, HEADLINE_METRIC);
    }

    #[test]
    fn table1_matches_rounding_implementation() {
        for (value, expected) in TABLE1 {
            for (i, exp) in expected.iter().enumerate() {
                let depth = (5 - i) as u8;
                let got = efd_core::round_to_depth(value, depth);
                match exp {
                    Some(e) => assert_eq!(got, *e, "round({value}, {depth})"),
                    None => assert_eq!(got, value, "round({value}, {depth}) should be identity"),
                }
            }
        }
    }
}
