//! Forgetting, for long-running deployments.
//!
//! A production EFD lives for months: new applications are learned
//! continuously ("as simple as adding new keys"), and decommissioned
//! applications must be dropped. [`forget_app`] and [`forget_label`]
//! remove an application (or one app+input) everywhere; keys whose label
//! lists empty out disappear. WAL replay (`crate::wal`) and the live
//! store `efd-serve` serves apply exactly these.

use efd_telemetry::AppLabel;

use crate::dictionary::{AppNameId, DictionaryParts, EfdDictionary, LabelId};

/// Rebuild `dict` without any labels of application `app`. Returns the
/// number of keys dropped entirely (all their labels belonged to `app`).
pub fn forget_app(dict: &mut EfdDictionary, app: &str) -> usize {
    rebuild_retaining(dict, |l| l.app != app)
}

/// Rebuild `dict` without one specific label (application + input).
pub fn forget_label(dict: &mut EfdDictionary, app: &str, input: &str) -> usize {
    rebuild_retaining(dict, |l| !(l.app == app && l.input == input))
}

/// Rebuild `dict` with only the labels `keep_label` accepts. Keys left
/// with no label drop out, and so do labels left on no key and
/// applications left with no label. The survivors keep their order —
/// entries, labels (the tie-break order) and applications alike — so the
/// result does not depend on the order the entries are stored in:
/// insertion order for a learned dictionary, key order for one read from
/// EFDB. Returns the number of keys dropped.
fn rebuild_retaining(dict: &mut EfdDictionary, keep_label: impl Fn(&AppLabel) -> bool) -> usize {
    let before = dict.len();
    let empty = EfdDictionary::new(dict.depth());
    let mut parts = std::mem::replace(dict, empty).into_parts();
    let kept: Vec<bool> = parts.labels.iter().map(keep_label).collect();
    let mut used = vec![false; parts.labels.len()];
    parts.entries.retain_mut(|(_, ids)| {
        ids.retain(|id| kept[id.index()]);
        for id in ids.iter() {
            used[id.index()] = true;
        }
        !ids.is_empty()
    });

    // Renumber the surviving applications, then the surviving labels,
    // each in its old order (a dropped one's slot is never looked up).
    let mut app_used = vec![false; parts.apps.len()];
    for (label, app) in parts.label_app.iter().enumerate() {
        app_used[app.index()] |= used[label];
    }
    let mut app_ids = Vec::with_capacity(parts.apps.len());
    let mut apps = Vec::new();
    for (app, name) in parts.apps.into_iter().enumerate() {
        app_ids.push(AppNameId::from_index(apps.len()));
        if app_used[app] {
            apps.push(name);
        }
    }
    let mut label_ids = Vec::with_capacity(parts.labels.len());
    let (mut labels, mut label_app) = (Vec::new(), Vec::new());
    for (i, (label, app)) in parts.labels.into_iter().zip(parts.label_app).enumerate() {
        label_ids.push(LabelId::from_index(labels.len()));
        if used[i] {
            labels.push(label);
            label_app.push(app_ids[app.index()]);
        }
    }
    for (_, ids) in &mut parts.entries {
        for id in ids {
            *id = label_ids[id.index()];
        }
    }
    *dict = EfdDictionary::from_parts(DictionaryParts {
        depth: parts.depth,
        entries: parts.entries,
        labels,
        apps,
        label_app,
    });
    before - dict.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Verdict;
    use crate::observation::Query;
    use crate::rounding::RoundingDepth;
    use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};

    const M: MetricId = MetricId(0);
    const W: Interval = Interval::PAPER_DEFAULT;

    fn dict_with(entries: &[(&str, &str, f64)]) -> EfdDictionary {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        for (app, input, mean) in entries {
            d.insert_raw(M, NodeId(0), W, *mean, &AppLabel::new(*app, *input));
        }
        d
    }

    #[test]
    fn forget_app_drops_exclusive_keys_but_keeps_shared() {
        let mut d = dict_with(&[
            ("sp", "X", 7500.0),
            ("bt", "X", 7500.0), // shared key
            ("bt", "X", 9900.0), // bt-exclusive key
        ]);
        assert_eq!(d.len(), 2);
        let dropped = forget_app(&mut d, "bt");
        assert_eq!(dropped, 1, "only the bt-exclusive key disappears");
        let q = Query::from_node_means(M, W, &[7500.0]);
        assert_eq!(d.recognize(&q).verdict, Verdict::Recognized("sp".into()));
        let q = Query::from_node_means(M, W, &[9900.0]);
        assert_eq!(d.recognize(&q).verdict, Verdict::Unknown);
    }

    #[test]
    fn forget_does_not_depend_on_entry_order() {
        // Learned: entries in insertion order. Read back from EFDB:
        // entries in key order. The same forget must give the same parts.
        let learned = dict_with(&[
            ("bt", "X", 7600.0),
            ("sp", "X", 7600.0),
            ("ft", "X", 6000.0),
            ("ft", "Y", 6000.0),
            ("cg", "X", 8100.0),
        ]);
        let mut key_order = learned.to_parts();
        key_order.entries.sort_by_key(|(fp, _)| fp.pack());
        key_order.entries.reverse();
        let mut learned = learned;
        let mut reread = EfdDictionary::from_parts(key_order);
        for d in [&mut learned, &mut reread] {
            assert_eq!(forget_app(d, "sp"), 0);
            assert_eq!(forget_label(d, "ft", "X"), 0);
        }
        assert_eq!(learned.app_names(), ["bt", "ft", "cg"]);
        assert_eq!(reread.app_names(), learned.app_names());
        assert_eq!(reread.labels_in_order(), learned.labels_in_order());
        assert_eq!(
            learned.labels_in_order(),
            [
                AppLabel::new("bt", "X"),
                AppLabel::new("ft", "Y"),
                AppLabel::new("cg", "X")
            ]
        );
    }

    #[test]
    fn forget_label_is_input_scoped() {
        let mut d = dict_with(&[("miniAMR", "X", 7800.0), ("miniAMR", "Z", 11000.0)]);
        forget_label(&mut d, "miniAMR", "Z");
        let q = Query::from_node_means(M, W, &[11000.0]);
        assert_eq!(d.recognize(&q).verdict, Verdict::Unknown);
        let q = Query::from_node_means(M, W, &[7800.0]);
        assert_eq!(d.recognize(&q).best(), Some("miniAMR"));
    }
}
