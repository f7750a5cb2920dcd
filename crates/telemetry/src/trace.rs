//! Execution traces: the labeled unit of the dataset.
//!
//! One [`ExecutionTrace`] is one job run: a label (application + input
//! size), and for every allocated node a series per selected metric. The
//! paper's dataset has 4-node allocations (32 for the large inputs) with all
//! 562 metrics; our lazy materialization usually selects only the metrics an
//! experiment needs, which [`MetricSelection`] tracks explicitly.

use std::fmt;

use crate::metric::MetricId;
use crate::series::TimeSeries;

/// Node index within one execution's allocation (0-based, as in the paper's
/// Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

serde::impl_serde_newtype!(NodeId);

impl NodeId {
    /// Index into per-node storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Application + input-size label, e.g. `ft X` (the paper's value format).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppLabel {
    /// Application name, lowercase as in the paper's Table 4 (`ft`, `sp`,
    /// `miniAMR`, …).
    pub app: String,
    /// Input size name (`X`, `Y`, `Z`, `L`).
    pub input: String,
}

impl AppLabel {
    /// Construct a label.
    pub fn new(app: impl Into<String>, input: impl Into<String>) -> Self {
        Self {
            app: app.into(),
            input: input.into(),
        }
    }
}

impl fmt::Display for AppLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.app, self.input)
    }
}

serde::impl_serde_struct!(AppLabel { app, input });

/// Which metrics (and in which order) a trace's per-node series correspond
/// to. Positions returned by [`MetricSelection::position`] index into
/// [`NodeTrace::series`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSelection {
    ids: Vec<MetricId>,
}

impl MetricSelection {
    /// Selection over the given metrics, in the given order.
    pub fn new(ids: Vec<MetricId>) -> Self {
        Self { ids }
    }

    /// Selection of a single metric.
    pub fn single(id: MetricId) -> Self {
        Self { ids: vec![id] }
    }

    /// The selected ids, in storage order.
    pub fn ids(&self) -> &[MetricId] {
        &self.ids
    }

    /// Number of selected metrics.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Storage position of a metric in this selection (linear scan — the
    /// selections used in practice hold a handful of metrics; experiments
    /// that sweep all 562 use positions directly).
    pub fn position(&self, id: MetricId) -> Option<usize> {
        self.ids.iter().position(|&m| m == id)
    }
}

/// Per-node telemetry of one execution: `series[p]` is the series for the
/// metric at position `p` of the owning trace's [`MetricSelection`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTrace {
    /// Node index within the allocation.
    pub node: NodeId,
    /// One series per selected metric.
    pub series: Vec<TimeSeries>,
}

/// One labeled job execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    /// Stable identifier (derived from the dataset seed path).
    pub exec_id: u64,
    /// Ground-truth label.
    pub label: AppLabel,
    /// Which metrics the per-node series cover.
    pub selection: MetricSelection,
    /// Telemetry for every allocated node.
    pub nodes: Vec<NodeTrace>,
    /// Wall-clock duration in seconds (series may be shorter only if the
    /// collector died; normally equal to every series length).
    pub duration_s: u32,
}

impl ExecutionTrace {
    /// Number of allocated nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Series for (node, metric), if both exist in this trace.
    pub fn series(&self, node: NodeId, metric: MetricId) -> Option<&TimeSeries> {
        let pos = self.selection.position(metric)?;
        self.nodes.get(node.index())?.series.get(pos)
    }

    /// Iterate `(node, series)` for one metric.
    pub fn per_node_series(
        &self,
        metric: MetricId,
    ) -> impl Iterator<Item = (NodeId, &TimeSeries)> + '_ {
        let pos = self.selection.position(metric);
        self.nodes.iter().filter_map(move |n| {
            let p = pos?;
            n.series.get(p).map(|s| (n.node, s))
        })
    }

    /// Total number of stored samples (all nodes × metrics × seconds); the
    /// paper's data-volume comparisons count these.
    pub fn sample_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.series.iter().map(|s| s.len()).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace() -> ExecutionTrace {
        let m0 = MetricId(0);
        let m1 = MetricId(1);
        let selection = MetricSelection::new(vec![m0, m1]);
        let nodes = (0..3)
            .map(|n| NodeTrace {
                node: NodeId(n),
                series: vec![
                    TimeSeries::from_values(vec![n as f64; 10]),
                    TimeSeries::from_values(vec![100.0 + n as f64; 10]),
                ],
            })
            .collect();
        ExecutionTrace {
            exec_id: 7,
            label: AppLabel::new("ft", "X"),
            selection,
            nodes,
            duration_s: 10,
        }
    }

    #[test]
    fn label_display_matches_paper_format() {
        assert_eq!(AppLabel::new("ft", "X").to_string(), "ft X");
        assert_eq!(AppLabel::new("miniAMR", "Z").to_string(), "miniAMR Z");
    }

    #[test]
    fn series_lookup() {
        let t = toy_trace();
        let s = t.series(NodeId(2), MetricId(1)).unwrap();
        assert_eq!(s.values()[0], 102.0);
        assert!(t.series(NodeId(3), MetricId(1)).is_none());
        assert!(t.series(NodeId(0), MetricId(9)).is_none());
    }

    #[test]
    fn per_node_iteration_order() {
        let t = toy_trace();
        let nodes: Vec<u16> = t.per_node_series(MetricId(0)).map(|(n, _)| n.0).collect();
        assert_eq!(nodes, vec![0, 1, 2]);
    }

    #[test]
    fn per_node_missing_metric_is_empty() {
        let t = toy_trace();
        assert_eq!(t.per_node_series(MetricId(5)).count(), 0);
    }

    #[test]
    fn sample_count() {
        let t = toy_trace();
        assert_eq!(t.sample_count(), 3 * 2 * 10);
    }

    #[test]
    fn selection_position() {
        let sel = MetricSelection::new(vec![MetricId(4), MetricId(9)]);
        assert_eq!(sel.position(MetricId(9)), Some(1));
        assert_eq!(sel.position(MetricId(1)), None);
        assert_eq!(sel.len(), 2);
    }
}
