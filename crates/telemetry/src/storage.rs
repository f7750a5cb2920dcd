//! Trace (de)serialization: JSON for inspectability, a compact binary
//! format for bulk storage.
//!
//! The paper stresses that MODA solutions must "avoid heavy storage
//! requirements"; the binary codec stores series as raw little-endian f64
//! runs with a small header (~8 bytes/sample, vs ~20 for JSON).

use std::fmt;
use std::io::{self, Read, Write};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::metric::MetricId;
use crate::series::TimeSeries;
use crate::trace::{AppLabel, ExecutionTrace, MetricSelection, NodeId, NodeTrace};

/// Magic bytes of the binary trace format.
const MAGIC: &[u8; 4] = b"EFDT";
/// Binary format version.
const VERSION: u16 = 1;

/// Errors arising from trace storage.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// JSON encode/decode failure.
    Json(serde_json::Error),
    /// Binary format violation.
    Format(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Json(e) => write!(f, "json error: {e}"),
            StorageError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<serde_json::Error> for StorageError {
    fn from(e: serde_json::Error) -> Self {
        StorageError::Json(e)
    }
}

/// Serialize a trace to pretty JSON.
pub fn to_json(trace: &ExecutionTrace) -> Result<String, StorageError> {
    Ok(serde_json::to_string_pretty(trace)?)
}

/// Deserialize a trace from JSON.
pub fn from_json(json: &str) -> Result<ExecutionTrace, StorageError> {
    Ok(serde_json::from_str(json)?)
}

/// Encode a trace to the compact binary format.
pub fn to_bytes(trace: &ExecutionTrace) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u64_le(trace.exec_id);
    put_str(&mut buf, &trace.label.app);
    put_str(&mut buf, &trace.label.input);
    buf.put_u32_le(trace.duration_s);
    buf.put_u32_le(trace.selection.ids().len() as u32);
    for id in trace.selection.ids() {
        buf.put_u32_le(id.0);
    }
    buf.put_u32_le(trace.nodes.len() as u32);
    for node in &trace.nodes {
        buf.put_u16_le(node.node.0);
        buf.put_u32_le(node.series.len() as u32);
        for s in &node.series {
            buf.put_u32_le(s.len() as u32);
            for &v in s.values() {
                buf.put_f64_le(v);
            }
        }
    }
    buf.freeze()
}

/// Decode a trace from the compact binary format.
pub fn from_bytes(mut buf: &[u8]) -> Result<ExecutionTrace, StorageError> {
    fn need(buf: &[u8], n: usize, what: &str) -> Result<(), StorageError> {
        if buf.remaining() < n {
            return Err(StorageError::Format(format!("truncated {what}")));
        }
        Ok(())
    }

    need(buf, 6, "header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(StorageError::Format("bad magic".into()));
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(StorageError::Format(format!(
            "unsupported version {version}"
        )));
    }
    need(buf, 8, "exec_id")?;
    let exec_id = buf.get_u64_le();
    let app = get_str(&mut buf)?;
    let input = get_str(&mut buf)?;
    need(buf, 8, "duration/selection")?;
    let duration_s = buf.get_u32_le();
    let n_metrics = buf.get_u32_le() as usize;
    need(buf, n_metrics * 4, "selection ids")?;
    let ids: Vec<MetricId> = (0..n_metrics).map(|_| MetricId(buf.get_u32_le())).collect();
    need(buf, 4, "node count")?;
    let n_nodes = buf.get_u32_le() as usize;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        need(buf, 6, "node header")?;
        let node = NodeId(buf.get_u16_le());
        let n_series = buf.get_u32_le() as usize;
        if n_series != n_metrics {
            return Err(StorageError::Format(format!(
                "node {node} has {n_series} series, selection has {n_metrics}"
            )));
        }
        let mut series = Vec::with_capacity(n_series);
        for _ in 0..n_series {
            need(buf, 4, "series length")?;
            let len = buf.get_u32_le() as usize;
            need(buf, len * 8, "series values")?;
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                values.push(buf.get_f64_le());
            }
            series.push(TimeSeries::from_values(values));
        }
        nodes.push(NodeTrace { node, series });
    }
    Ok(ExecutionTrace {
        exec_id,
        label: AppLabel::new(app, input),
        selection: MetricSelection::new(ids),
        nodes,
        duration_s,
    })
}

/// Write a trace in binary form to a writer.
pub fn write_binary<W: Write>(trace: &ExecutionTrace, mut w: W) -> Result<(), StorageError> {
    w.write_all(&to_bytes(trace))?;
    Ok(())
}

/// Read a binary trace from a reader.
pub fn read_binary<R: Read>(mut r: R) -> Result<ExecutionTrace, StorageError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    from_bytes(&data)
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, StorageError> {
    if buf.remaining() < 2 {
        return Err(StorageError::Format("truncated string length".into()));
    }
    let len = buf.get_u16_le() as usize;
    if buf.remaining() < len {
        return Err(StorageError::Format("truncated string body".into()));
    }
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| StorageError::Format("invalid utf-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace() -> ExecutionTrace {
        ExecutionTrace {
            exec_id: 42,
            label: AppLabel::new("sp", "Y"),
            selection: MetricSelection::new(vec![MetricId(3), MetricId(11)]),
            nodes: (0..2)
                .map(|n| NodeTrace {
                    node: NodeId(n),
                    series: vec![
                        TimeSeries::from_values(vec![1.0, f64::NAN, 3.0]),
                        TimeSeries::from_values(vec![7.5; 3]),
                    ],
                })
                .collect(),
            duration_s: 3,
        }
    }

    #[test]
    fn json_roundtrip() {
        let t = toy_trace();
        let json = to_json(&t).unwrap();
        let back = from_json(&json).unwrap();
        // NaN != NaN, so compare structure then values positionally.
        assert_eq!(back.exec_id, t.exec_id);
        assert_eq!(back.label, t.label);
        assert_eq!(back.selection, t.selection);
        assert_eq!(back.nodes.len(), 2);
    }

    #[test]
    fn binary_roundtrip_preserves_nan_gaps() {
        let t = toy_trace();
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.exec_id, t.exec_id);
        assert_eq!(back.label, t.label);
        assert_eq!(back.duration_s, t.duration_s);
        let s = back.series(NodeId(0), MetricId(3)).unwrap();
        assert_eq!(s.values()[0], 1.0);
        assert!(s.values()[1].is_nan());
        assert_eq!(s.values()[2], 3.0);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut bytes = to_bytes(&toy_trace()).to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            from_bytes(&bytes),
            Err(StorageError::Format(m)) if m.contains("magic")
        ));
    }

    #[test]
    fn binary_rejects_truncation() {
        let bytes = to_bytes(&toy_trace());
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn binary_rejects_wrong_version() {
        let mut bytes = to_bytes(&toy_trace()).to_vec();
        bytes[4] = 99;
        assert!(matches!(
            from_bytes(&bytes),
            Err(StorageError::Format(m)) if m.contains("version")
        ));
    }

    #[test]
    fn writer_reader_api() {
        let t = toy_trace();
        let mut sink = Vec::new();
        write_binary(&t, &mut sink).unwrap();
        let back = read_binary(&sink[..]).unwrap();
        assert_eq!(back.label, t.label);
    }

    #[test]
    fn binary_is_denser_than_json() {
        let big = ExecutionTrace {
            exec_id: 1,
            label: AppLabel::new("ft", "X"),
            selection: MetricSelection::new(vec![MetricId(0)]),
            nodes: vec![NodeTrace {
                node: NodeId(0),
                series: vec![TimeSeries::from_values(
                    (0..1000).map(|i| i as f64 * 1.37).collect(),
                )],
            }],
            duration_s: 1000,
        };
        let bin = to_bytes(&big).len();
        let json = to_json(&big).unwrap().len();
        assert!(bin < json / 2, "binary {bin} vs json {json}");
    }
}
