//! LDMS-style CSV interchange.
//!
//! The public Taxonomist artifact ships as per-node CSV files: a `#Time`
//! column followed by one column per metric, one row per second. This
//! module writes and reads that layout so the EFD pipeline can ingest the
//! *real* dataset when available, and so generated traces can be inspected
//! with ordinary tooling.
//!
//! Layout per node:
//!
//! ```text
//! #Time,nr_mapped_vmstat,Committed_AS_meminfo,...
//! 0,6021.3,2013400.0,...
//! 1,6019.8,2013388.0,...
//! ```
//!
//! Missing samples are empty cells. Metadata (label, node id) travels in
//! `# key: value` comment lines so a directory of CSVs reassembles into an
//! [`ExecutionTrace`].

use std::fmt;
use std::io::{self, BufRead, Write};

use crate::metric::MetricCatalog;
use crate::series::TimeSeries;
use crate::trace::{AppLabel, ExecutionTrace, MetricSelection, NodeId, NodeTrace};

/// Errors from writing, parsing or assembling node CSVs.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Layout violation: a bad cell, header or label.
    Format(String),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "i/o error: {e}"),
            CsvError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Write one node's series as LDMS-style CSV.
pub fn write_node_csv<W: Write>(
    trace: &ExecutionTrace,
    node: NodeId,
    catalog: &MetricCatalog,
    mut w: W,
) -> Result<(), CsvError> {
    let node_trace = trace
        .nodes
        .get(node.index())
        .ok_or_else(|| CsvError::Format(format!("no node {node} in trace")))?;

    writeln!(w, "# app: {}", trace.label.app)?;
    writeln!(w, "# input: {}", trace.label.input)?;
    writeln!(w, "# node: {}", node.0)?;
    writeln!(w, "# exec_id: {}", trace.exec_id)?;

    let names: Vec<&str> = trace
        .selection
        .ids()
        .iter()
        .map(|&id| catalog.name(id))
        .collect();
    writeln!(w, "#Time,{}", names.join(","))?;

    let len = node_trace.series.first().map_or(0, TimeSeries::len);
    for t in 0..len {
        write!(w, "{t}")?;
        for series in &node_trace.series {
            match series.at(t as u32) {
                Some(v) if v.is_finite() => write!(w, ",{v}")?,
                _ => write!(w, ",")?,
            }
        }
        writeln!(w)?;
    }
    Ok(())
}

/// One parsed node CSV: metadata plus columns.
#[derive(Debug, Clone)]
pub struct NodeCsv {
    /// Application name from the `# app:` header.
    pub app: String,
    /// Input size from the `# input:` header.
    pub input: String,
    /// Node id.
    pub node: NodeId,
    /// Execution id.
    pub exec_id: u64,
    /// Metric names in column order.
    pub metric_names: Vec<String>,
    /// One series per column.
    pub series: Vec<TimeSeries>,
}

/// Parse one node CSV produced by [`write_node_csv`] (or the artifact's
/// layout plus our metadata comments).
pub fn read_node_csv<R: BufRead>(r: R) -> Result<NodeCsv, CsvError> {
    let mut app = String::new();
    let mut input = String::new();
    let mut node = 0u16;
    let mut exec_id = 0u64;
    let mut metric_names: Vec<String> = Vec::new();
    let mut columns: Vec<Vec<f64>> = Vec::new();

    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some((key, value)) = rest.split_once(':') {
                let value = value.trim();
                match key.trim() {
                    "app" => app = value.to_string(),
                    "input" => input = value.to_string(),
                    "node" => {
                        node = value
                            .parse()
                            .map_err(|_| CsvError::Format(format!("bad node id {value:?}")))?
                    }
                    "exec_id" => {
                        exec_id = value
                            .parse()
                            .map_err(|_| CsvError::Format(format!("bad exec_id {value:?}")))?
                    }
                    _ => {} // unknown metadata: ignore
                }
            }
            continue;
        }
        if let Some(header) = line.strip_prefix("#Time") {
            metric_names = header
                .trim_start_matches(',')
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            columns = vec![Vec::new(); metric_names.len()];
            continue;
        }
        // Data row.
        if metric_names.is_empty() {
            return Err(CsvError::Format(format!(
                "data before #Time header at line {}",
                lineno + 1
            )));
        }
        let mut cells = line.split(',');
        let _time = cells.next(); // dense 1 Hz; the row index is the time
        for (c, cell) in cells.enumerate() {
            if c >= columns.len() {
                return Err(CsvError::Format(format!(
                    "row at line {} has more cells than the header",
                    lineno + 1
                )));
            }
            let v = if cell.is_empty() {
                f64::NAN
            } else {
                cell.parse().map_err(|_| {
                    CsvError::Format(format!("bad value {cell:?} at line {}", lineno + 1))
                })?
            };
            columns[c].push(v);
        }
    }

    Ok(NodeCsv {
        app,
        input,
        node: NodeId(node),
        exec_id,
        metric_names,
        series: columns.into_iter().map(TimeSeries::from_values).collect(),
    })
}

/// Assemble node CSVs (one per node, same execution) into a trace. Metric
/// names are resolved against `catalog`; nodes are ordered by node id.
pub fn assemble_trace(
    mut nodes: Vec<NodeCsv>,
    catalog: &MetricCatalog,
) -> Result<ExecutionTrace, CsvError> {
    let first = nodes
        .first()
        .ok_or_else(|| CsvError::Format("no node CSVs".into()))?;
    let ids = first
        .metric_names
        .iter()
        .map(|n| {
            catalog
                .id(n)
                .ok_or_else(|| CsvError::Format(format!("unknown metric {n:?}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let label = AppLabel::new(first.app.clone(), first.input.clone());
    let exec_id = first.exec_id;
    let duration = first.series.first().map_or(0, TimeSeries::len) as u32;

    nodes.sort_by_key(|n| n.node);
    let node_traces = nodes
        .into_iter()
        .map(|n| {
            if n.app != label.app || n.input != label.input {
                return Err(CsvError::Format(format!(
                    "node {} labeled {} {}, expected {label}",
                    n.node, n.app, n.input
                )));
            }
            Ok(NodeTrace {
                node: n.node,
                series: n.series,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;

    Ok(ExecutionTrace {
        exec_id,
        label,
        selection: MetricSelection::new(ids),
        nodes: node_traces,
        duration_s: duration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::small_catalog;
    use crate::Interval;

    fn toy_trace(catalog: &MetricCatalog) -> ExecutionTrace {
        let ids: Vec<_> = catalog.ids().take(2).collect();
        ExecutionTrace {
            exec_id: 99,
            label: AppLabel::new("sp", "Y"),
            selection: MetricSelection::new(ids),
            nodes: (0..2)
                .map(|n| NodeTrace {
                    node: NodeId(n),
                    series: vec![
                        TimeSeries::from_values(vec![7500.5, f64::NAN, 7501.25]),
                        TimeSeries::from_values(vec![10.0, 11.0, 12.0]),
                    ],
                })
                .collect(),
            duration_s: 3,
        }
    }

    #[test]
    fn csv_roundtrip_single_node() {
        let c = small_catalog();
        let t = toy_trace(&c);
        let mut buf = Vec::new();
        write_node_csv(&t, NodeId(0), &c, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("# app: sp"), "{text}");
        assert!(text.contains("#Time,nr_mapped_vmstat,"), "{text}");
        assert!(text.contains("0,7500.5,10"), "{text}");
        assert!(text.contains("1,,11"), "missing cell not empty: {text}");

        let parsed = read_node_csv(&buf[..]).unwrap();
        assert_eq!(parsed.app, "sp");
        assert_eq!(parsed.node, NodeId(0));
        assert_eq!(parsed.exec_id, 99);
        assert_eq!(parsed.metric_names.len(), 2);
        assert_eq!(parsed.series[0].at(0), Some(7500.5));
        assert!(parsed.series[0].at(1).unwrap().is_nan());
        assert_eq!(parsed.series[1].at(2), Some(12.0));
    }

    #[test]
    fn assemble_full_trace() {
        let c = small_catalog();
        let t = toy_trace(&c);
        let csvs: Vec<NodeCsv> = (0..2)
            .map(|n| {
                let mut buf = Vec::new();
                write_node_csv(&t, NodeId(n), &c, &mut buf).unwrap();
                read_node_csv(&buf[..]).unwrap()
            })
            .collect();
        let back = assemble_trace(csvs, &c).unwrap();
        assert_eq!(back.label, t.label);
        assert_eq!(back.node_count(), 2);
        assert_eq!(back.selection, t.selection);
        // Window means (and thus fingerprints) survive.
        let w = Interval::new(0, 3);
        for node in &t.nodes {
            for (p, s) in node.series.iter().enumerate() {
                let a = s.window_mean(w);
                let b = back.nodes[node.node.index()].series[p].window_mean(w);
                assert!((a - b).abs() < 1e-12 || (a.is_nan() && b.is_nan()));
            }
        }
    }

    #[test]
    fn mismatched_labels_rejected() {
        let c = small_catalog();
        let t = toy_trace(&c);
        let mut csvs: Vec<NodeCsv> = (0..2)
            .map(|n| {
                let mut buf = Vec::new();
                write_node_csv(&t, NodeId(n), &c, &mut buf).unwrap();
                read_node_csv(&buf[..]).unwrap()
            })
            .collect();
        csvs[1].app = "bt".into();
        assert!(assemble_trace(csvs, &c).is_err());
    }

    #[test]
    fn unknown_metric_rejected() {
        let c = small_catalog();
        let t = toy_trace(&c);
        let mut buf = Vec::new();
        write_node_csv(&t, NodeId(0), &c, &mut buf).unwrap();
        let mut parsed = read_node_csv(&buf[..]).unwrap();
        parsed.metric_names[0] = "no_such_metric".into();
        assert!(assemble_trace(vec![parsed], &c).is_err());
    }

    #[test]
    fn garbage_rows_rejected() {
        let bad = "#Time,m\n0,abc\n";
        assert!(read_node_csv(bad.as_bytes()).is_err());
        let no_header = "0,1.0\n";
        assert!(read_node_csv(no_header.as_bytes()).is_err());
    }

    #[test]
    fn out_of_range_node_is_an_error() {
        let c = small_catalog();
        let t = toy_trace(&c);
        let mut buf = Vec::new();
        assert!(write_node_csv(&t, NodeId(9), &c, &mut buf).is_err());
    }
}
