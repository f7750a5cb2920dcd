//! The `EfdbSnapshot` name for the one read-only store.
//!
//! Serving an EFDB file in place is what [`crate::Snapshot::load`] does:
//! the checked buffer is moved into the store and its key records are
//! indexed where they lie. [`EfdbSnapshot`] is that same type under the
//! name the benchmark's trace (`perfbench/`) still calls; it goes once
//! that trace replays the daemon's own load path (ROADMAP, item 1).

/// The read-only store, under its zero-copy name: `EfdbSnapshot::load`
/// is [`crate::Snapshot::load`].
///
/// ```
/// use efd_core::{binfmt, EfdDictionary, Query, RoundingDepth};
/// use efd_serve::{EfdbSnapshot, Recognize};
/// use efd_telemetry::catalog::small_catalog;
/// use efd_telemetry::{AppLabel, Interval, NodeId};
///
/// let catalog = small_catalog();
/// let metric = catalog.id("nr_mapped_vmstat").unwrap();
/// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
/// for (node, mean) in [6020.0, 6019.0].into_iter().enumerate() {
///     dict.insert_raw(metric, NodeId(node as u16), Interval::PAPER_DEFAULT,
///                     mean, &AppLabel::new("ft", "X"));
/// }
/// let bytes = binfmt::write(&dict.to_parts(), &catalog);
///
/// // Cold start: check the bytes, then serve them in place.
/// let snap = EfdbSnapshot::load(bytes, &catalog).unwrap();
/// let q = Query::from_node_means(metric, Interval::PAPER_DEFAULT, &[6001.0, 5999.0]);
/// assert_eq!(snap.recognize(&q).verdict, dict.recognize(&q).verdict);
/// assert_eq!(snap.len(), dict.len());
/// ```
pub type EfdbSnapshot = crate::Snapshot;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recognize, Snapshot, VoteScratch};
    use efd_core::engine::Answer;
    use efd_core::{
        binfmt, BinFormatError, EfdDictionary, LabeledObservation, Query, RoundingDepth,
    };
    use efd_telemetry::catalog::small_catalog;
    use efd_telemetry::{AppLabel, Interval, MetricId};

    const W: Interval = Interval::PAPER_DEFAULT;

    fn toy_dict(metric: MetricId) -> EfdDictionary {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        for (app, input, means) in [
            ("ft", "X", [6020.0, 6020.0, 6020.0, 6020.0]),
            ("sp", "X", [7617.0, 7520.0, 7520.0, 7121.0]),
            ("bt", "X", [7638.0, 7540.0, 7540.0, 7140.0]),
            ("miniAMR", "Z", [10980.0; 4]),
        ] {
            d.learn(&LabeledObservation {
                label: AppLabel::new(app, input),
                query: Query::from_node_means(metric, W, &means),
            });
        }
        d
    }

    #[test]
    fn matches_owned_snapshot_on_every_query() {
        let catalog = small_catalog();
        let m = catalog.id("nr_mapped_vmstat").unwrap();
        let dict = toy_dict(m);
        let bytes = binfmt::write(&dict.to_parts(), &catalog);
        let loaded = EfdbSnapshot::load(bytes, &catalog).unwrap();
        let frozen = Snapshot::freeze(&dict);
        assert_eq!(loaded.len(), dict.len());
        assert_eq!(loaded.depth(), dict.depth());
        for means in [
            [6031.0, 5988.0, 6007.0, 6044.0],
            [7601.0, 7512.0, 7533.0, 7098.0],
            [10951.0, 11020.0, 10990.0, 11043.0],
            [1.0, 2.0, 3.0, 4.0],
            [6000.0, 6000.0, 7500.0, f64::NAN],
        ] {
            let q = Query::from_node_means(m, W, &means);
            let oracle = dict.recognize(&q).normalized();
            assert_eq!(loaded.recognize(&q), oracle);
            assert_eq!(frozen.recognize(&q), oracle);
            let mut answer = Answer::default();
            loaded.answer_into(&q, &mut VoteScratch::default(), &mut answer);
            assert_eq!(answer, Answer::from(&oracle));
        }
    }

    #[test]
    fn unknown_metric_in_query_is_a_clean_miss() {
        let catalog = small_catalog();
        let m = catalog.ids().last().unwrap();
        let bytes = binfmt::write(&toy_dict(m).to_parts(), &catalog);
        let loaded = EfdbSnapshot::load(bytes, &catalog).unwrap();
        // Metrics the file never stored, inside and past the metrics
        // table: no match, no panic.
        for id in [0, m.0 + 1, 9999] {
            let q = Query::from_node_means(MetricId(id), W, &[6020.0]);
            assert_eq!(loaded.recognize(&q).verdict, efd_core::Verdict::Unknown);
        }
    }

    #[test]
    fn load_rejects_unresolvable_metric() {
        let catalog = small_catalog();
        let m = catalog.id("nr_mapped_vmstat").unwrap();
        let bytes = binfmt::write(&toy_dict(m).to_parts(), &catalog);
        let empty = efd_telemetry::MetricCatalog::new();
        assert!(matches!(
            EfdbSnapshot::load(bytes, &empty),
            Err(BinFormatError::UnknownMetric(_))
        ));
    }

    #[test]
    fn empty_file_serves_unknown() {
        let catalog = small_catalog();
        let m = catalog.id("nr_mapped_vmstat").unwrap();
        let dict = EfdDictionary::new(RoundingDepth::new(2));
        let bytes = binfmt::write(&dict.to_parts(), &catalog);
        let loaded = EfdbSnapshot::load(bytes, &catalog).unwrap();
        assert!(loaded.is_empty());
        let q = Query::from_node_means(m, W, &[1.0]);
        assert_eq!(loaded.recognize(&q).verdict, efd_core::Verdict::Unknown);
    }

    #[test]
    fn load_keeps_the_file_buffer_it_is_given() {
        let catalog = small_catalog();
        let m = catalog.id("nr_mapped_vmstat").unwrap();
        let dict = toy_dict(m);
        let bytes = binfmt::write(&dict.to_parts(), &catalog);
        let file_len = bytes.len();
        let loaded = EfdbSnapshot::load(bytes, &catalog).unwrap();
        // The file itself plus one index slot pair per slot: twice the
        // key count, rounded up to a power of two.
        let slots = (2 * dict.len()).next_power_of_two();
        assert_eq!(loaded.byte_len(), file_len + 8 * slots);
    }
}
