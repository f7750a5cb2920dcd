//! Dictionary persistence.
//!
//! The paper's closing argument: "If application execution fingerprints are
//! sufficiently exclusive, learning new applications is as simple as adding
//! new keys to the dictionary." That only works if dictionaries survive
//! across sessions — this module dumps them to JSON (inspectable,
//! greppable, mergeable) keyed by *metric names* so dumps are portable
//! across catalog rebuilds.

use std::fmt;

use serde::{Deserialize, Error, Serialize, Value};

use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::{AppLabel, Interval, NodeId};

use crate::dictionary::EfdDictionary;
use crate::rounding::RoundingDepth;

/// Serializable dictionary snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct DictionaryDump {
    /// Rounding depth the dictionary was built with.
    pub depth: u8,
    /// Labels in first-learned order — the tie-break order of the paper's
    /// "array of application names". Restored before entries so ambiguous
    /// verdicts order identically.
    pub label_order: Vec<(String, String)>,
    /// Entries in insertion order.
    pub entries: Vec<DumpEntry>,
}

// `label_order` is `#[serde(default)]`: dumps written before it existed
// restore with an empty order and fall back to entry order.
impl Serialize for DictionaryDump {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("depth".to_string(), self.depth.to_value()),
            ("label_order".to_string(), self.label_order.to_value()),
            ("entries".to_string(), self.entries.to_value()),
        ])
    }
}

impl Deserialize for DictionaryDump {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(DictionaryDump {
            depth: RoundingDepth::from_value(
                v.get("depth")
                    .ok_or_else(|| Error::msg("missing field `depth`"))?,
            )?
            .get(),
            label_order: match v.get("label_order") {
                Some(order) => Vec::from_value(order)?,
                None => Vec::new(),
            },
            entries: Vec::from_value(
                v.get("entries")
                    .ok_or_else(|| Error::msg("missing field `entries`"))?,
            )?,
        })
    }
}

/// One key-value pair of the dump.
#[derive(Debug, Clone, PartialEq)]
pub struct DumpEntry {
    /// Metric name (portable across catalogs).
    pub metric: String,
    /// Node id.
    pub node: u16,
    /// Interval start second.
    pub start: u32,
    /// Interval end second.
    pub end: u32,
    /// Rounded mean.
    pub mean: f64,
    /// Labels in insertion order, as (app, input).
    pub labels: Vec<(String, String)>,
}

serde::impl_serde_struct!(DumpEntry {
    metric,
    node,
    start,
    end,
    mean,
    labels,
});

/// Errors restoring a dump.
///
/// Marked `#[non_exhaustive]`: future dump validations may add variants
/// without a semver break, so downstream matches need a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum RestoreError {
    /// A dumped metric name is absent from the catalog.
    UnknownMetric(String),
    /// The dumped rounding depth is outside `1..=17`.
    InvalidDepth(u8),
    /// The dumped rounding depth is valid but disagrees with the depth the
    /// caller expects (see [`restore_expecting`]). Mixing depths silently
    /// would produce a dictionary whose keys never match queries rounded
    /// at the expected depth.
    DepthMismatch {
        /// The depth the caller expected.
        expected: u8,
        /// The depth recorded in the dump.
        found: u8,
    },
    /// JSON decode failure.
    Json(serde_json::Error),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::UnknownMetric(m) => write!(f, "metric {m:?} not in catalog"),
            RestoreError::InvalidDepth(d) => write!(f, "rounding depth {d} outside 1..=17"),
            RestoreError::DepthMismatch { expected, found } => write!(
                f,
                "dump was built at rounding depth {found}, caller expects depth {expected}"
            ),
            RestoreError::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Snapshot a dictionary (metric ids resolved to names via `catalog`).
pub fn dump(dict: &EfdDictionary, catalog: &MetricCatalog) -> DictionaryDump {
    let entries = dict
        .entries()
        .map(|(fp, labels)| DumpEntry {
            metric: catalog.name(fp.metric).to_string(),
            node: fp.node.0,
            start: fp.interval.start,
            end: fp.interval.end,
            mean: fp.mean(),
            labels: labels
                .iter()
                .map(|l| (l.app.clone(), l.input.clone()))
                .collect(),
        })
        .collect();
    DictionaryDump {
        depth: dict.depth().get(),
        label_order: dict
            .labels_in_order()
            .iter()
            .map(|l| (l.app.clone(), l.input.clone()))
            .collect(),
        entries,
    }
}

/// Rebuild a dictionary from a dump. Insertion order (and therefore
/// tie-break order) is preserved. Means are already rounded; re-rounding
/// is idempotent.
pub fn restore(
    dump: &DictionaryDump,
    catalog: &MetricCatalog,
) -> Result<EfdDictionary, RestoreError> {
    // Hand-constructed dumps can carry any u8; validate instead of letting
    // `RoundingDepth::new` panic inside a Result-returning API.
    let depth = RoundingDepth::try_new(dump.depth).ok_or(RestoreError::InvalidDepth(dump.depth))?;
    let mut dict = EfdDictionary::new(depth);
    let order: Vec<AppLabel> = dump
        .label_order
        .iter()
        .map(|(app, input)| AppLabel::new(app, input))
        .collect();
    dict.preregister_labels(&order);
    for e in &dump.entries {
        let metric = catalog
            .id(&e.metric)
            .ok_or_else(|| RestoreError::UnknownMetric(e.metric.clone()))?;
        let interval = Interval::new(e.start, e.end);
        for (app, input) in &e.labels {
            dict.insert_raw(
                metric,
                NodeId(e.node),
                interval,
                e.mean,
                &AppLabel::new(app, input),
            );
        }
    }
    Ok(dict)
}

/// [`restore`], but also enforce that the dump was built at the rounding
/// depth the caller's pipeline expects.
///
/// `restore` alone accepts *any* valid depth — correct when the caller
/// adopts the dump's depth, silently wrong when the caller already rounds
/// queries at a fixed depth (a serving tier, a dictionary about to be
/// merged into another): every lookup would miss, indistinguishable from
/// an all-`Unknown` workload. This variant turns that state into a typed
/// [`RestoreError::DepthMismatch`] before any entry is inserted.
pub fn restore_expecting(
    dump: &DictionaryDump,
    catalog: &MetricCatalog,
    expected: RoundingDepth,
) -> Result<EfdDictionary, RestoreError> {
    if dump.depth != expected.get() {
        return Err(RestoreError::DepthMismatch {
            expected: expected.get(),
            found: dump.depth,
        });
    }
    restore(dump, catalog)
}

/// Dump to pretty JSON.
pub fn to_json(dict: &EfdDictionary, catalog: &MetricCatalog) -> String {
    serde_json::to_string_pretty(&dump(dict, catalog)).expect("dump serialization cannot fail")
}

/// Restore from JSON produced by [`to_json`].
pub fn from_json(json: &str, catalog: &MetricCatalog) -> Result<EfdDictionary, RestoreError> {
    let d: DictionaryDump = serde_json::from_str(json).map_err(RestoreError::Json)?;
    restore(&d, catalog)
}

/// [`from_json`] with a depth expectation (see [`restore_expecting`]).
pub fn from_json_expecting(
    json: &str,
    catalog: &MetricCatalog,
    expected: RoundingDepth,
) -> Result<EfdDictionary, RestoreError> {
    let d: DictionaryDump = serde_json::from_str(json).map_err(RestoreError::Json)?;
    restore_expecting(&d, catalog, expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{LabeledObservation, Query};
    use efd_telemetry::catalog::small_catalog;

    fn sample_dict(c: &MetricCatalog) -> EfdDictionary {
        let m = c.id("nr_mapped_vmstat").unwrap();
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        for (app, means) in [
            ("sp", [7617.0, 7520.0, 7520.0, 7121.0]),
            ("bt", [7638.0, 7540.0, 7540.0, 7140.0]),
        ] {
            d.learn(&LabeledObservation {
                label: AppLabel::new(app, "X"),
                query: Query::from_node_means(m, Interval::PAPER_DEFAULT, &means),
            });
        }
        d
    }

    #[test]
    fn roundtrip_preserves_recognition_and_order() {
        let c = small_catalog();
        let m = c.id("nr_mapped_vmstat").unwrap();
        let d = sample_dict(&c);
        let json = to_json(&d, &c);
        let back = from_json(&json, &c).unwrap();

        assert_eq!(back.len(), d.len());
        assert_eq!(back.depth(), d.depth());
        // Tie array order (sp first) survives.
        let q = Query::from_node_means(
            m,
            Interval::PAPER_DEFAULT,
            &[7600.0, 7500.0, 7500.0, 7100.0],
        );
        let (a, b) = (d.recognize(&q), back.recognize(&q));
        assert_eq!(a.verdict, b.verdict);
        // sp/bt tie: best() is the lexicographic minimum of the tied set.
        assert_eq!(a.best(), Some("bt"));
    }

    #[test]
    fn dump_uses_metric_names() {
        let c = small_catalog();
        let d = sample_dict(&c);
        let dmp = dump(&d, &c);
        assert!(dmp.entries.iter().all(|e| e.metric == "nr_mapped_vmstat"));
        assert_eq!(dmp.depth, 2);
        // sp/bt share the collided keys in order.
        let first = &dmp.entries[0];
        assert_eq!(
            first.labels,
            vec![
                ("sp".to_string(), "X".to_string()),
                ("bt".to_string(), "X".to_string())
            ]
        );
    }

    #[test]
    fn restore_rejects_unknown_metric() {
        let c = small_catalog();
        let d = sample_dict(&c);
        let mut dmp = dump(&d, &c);
        dmp.entries[0].metric = "not_a_metric".into();
        assert!(matches!(
            restore(&dmp, &c),
            Err(RestoreError::UnknownMetric(_))
        ));
    }

    #[test]
    fn incremental_learning_after_restore() {
        // "Learning new applications is as simple as adding new keys."
        let c = small_catalog();
        let m = c.id("nr_mapped_vmstat").unwrap();
        let json = to_json(&sample_dict(&c), &c);
        let mut back = from_json(&json, &c).unwrap();
        back.learn(&LabeledObservation {
            label: AppLabel::new("kripke", "Y"),
            query: Query::from_node_means(m, Interval::PAPER_DEFAULT, &[8730.0; 4]),
        });
        let q = Query::from_node_means(m, Interval::PAPER_DEFAULT, &[8700.0; 4]);
        assert_eq!(back.recognize(&q).best(), Some("kripke"));
    }

    #[test]
    fn out_of_range_depth_is_an_error() {
        let c = small_catalog();
        // Through the JSON path: validated during deserialization.
        assert!(matches!(
            from_json(r#"{"depth":0,"label_order":[],"entries":[]}"#, &c),
            Err(RestoreError::Json(_))
        ));
        // Through a hand-constructed dump: validated by restore().
        let mut dmp = dump(&sample_dict(&c), &c);
        dmp.depth = 99;
        assert!(matches!(
            restore(&dmp, &c),
            Err(RestoreError::InvalidDepth(99))
        ));
    }

    #[test]
    fn depth_mismatch_is_a_typed_error() {
        let c = small_catalog();
        let d = sample_dict(&c); // built at depth 2
        let json = to_json(&d, &c);

        // Matching expectation restores normally.
        let back = from_json_expecting(&json, &c, RoundingDepth::new(2)).unwrap();
        assert_eq!(back.len(), d.len());

        // A disagreeing expectation is surfaced before any entry lands,
        // instead of silently producing a dictionary that never matches.
        assert!(matches!(
            from_json_expecting(&json, &c, RoundingDepth::new(3)),
            Err(RestoreError::DepthMismatch {
                expected: 3,
                found: 2
            })
        ));
        let dmp = dump(&d, &c);
        assert!(matches!(
            restore_expecting(&dmp, &c, RoundingDepth::new(7)),
            Err(RestoreError::DepthMismatch {
                expected: 7,
                found: 2
            })
        ));
        // The expectation check runs before depth validity: even an
        // out-of-range stored depth reports the mismatch first.
        let mut bad = dump(&d, &c);
        bad.depth = 99;
        assert!(matches!(
            restore_expecting(&bad, &c, RoundingDepth::new(17)),
            Err(RestoreError::DepthMismatch {
                expected: 17,
                found: 99
            })
        ));
    }

    #[test]
    fn bad_json_is_an_error() {
        let c = small_catalog();
        assert!(matches!(
            from_json("{not json", &c),
            Err(RestoreError::Json(_))
        ));
    }
}
