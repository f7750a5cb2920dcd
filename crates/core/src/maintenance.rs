//! Dictionary maintenance for long-running deployments.
//!
//! A production EFD lives for months: new applications are learned
//! continuously ("as simple as adding new keys"), sites exchange
//! dictionaries, decommissioned applications must be dropped, and software
//! updates change an application's footprint, stranding stale keys. This
//! module provides the operations the paper's operational story implies
//! but does not spell out:
//!
//! * [`merge`] — union two dictionaries (e.g. per-cluster dictionaries into
//!   a site dictionary). Label lists concatenate preserving the receiving
//!   dictionary's tie-break order; depths must match (a depth-2 key and a
//!   depth-3 key never collide meaningfully, so merging across depths is
//!   rejected).
//! * [`forget_app`] / [`forget_label`] — remove an application (or one
//!   app+input) everywhere; keys whose label lists empty out disappear.
//! * [`retain_metrics`] — restrict to a metric subset (e.g. after a
//!   monitoring-config change drops samplers).
//! * [`AgingDictionary`] — epoch-stamped key aging for learn-while-serve
//!   deployments under drift: keys not refreshed for `max_age` epochs are
//!   evicted deterministically, oldest first, so the dictionary tracks a
//!   shifting fleet instead of accreting stale footprints forever.

use efd_telemetry::MetricId;
use efd_util::FxHashMap;

use crate::dictionary::EfdDictionary;
use crate::engine::{Learn, Recognize, VoteScratch};
use crate::fingerprint::Fingerprint;
use crate::observation::LabeledObservation;
use crate::observation::{ObsPoint, Query};
use crate::rounding::RoundingDepth;
use crate::Recognition;

/// Errors from dictionary maintenance.
#[derive(Debug, PartialEq, Eq)]
pub enum MaintenanceError {
    /// The dictionaries were built at different rounding depths.
    DepthMismatch {
        /// Depth of the receiving dictionary.
        ours: u8,
        /// Depth of the incoming dictionary.
        theirs: u8,
    },
}

impl std::fmt::Display for MaintenanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaintenanceError::DepthMismatch { ours, theirs } => write!(
                f,
                "cannot merge dictionaries of different rounding depths ({ours} vs {theirs})"
            ),
        }
    }
}

impl std::error::Error for MaintenanceError {}

/// Merge `incoming` into `dict`: every (key, label) pair of `incoming` is
/// inserted into `dict` (idempotent for duplicates). Existing tie-break
/// order in `dict` is preserved; incoming labels append after.
pub fn merge(dict: &mut EfdDictionary, incoming: &EfdDictionary) -> Result<(), MaintenanceError> {
    if dict.depth() != incoming.depth() {
        return Err(MaintenanceError::DepthMismatch {
            ours: dict.depth().get(),
            theirs: incoming.depth().get(),
        });
    }
    for (fp, labels) in incoming.entries() {
        for label in labels {
            // Means are already rounded at the same depth; re-rounding is
            // idempotent, so insert_raw reproduces the key exactly.
            dict.insert_raw(fp.metric, fp.node, fp.interval, fp.mean(), label);
        }
    }
    Ok(())
}

/// Rebuild `dict` without any labels of application `app`. Returns the
/// number of keys dropped entirely (all their labels belonged to `app`).
pub fn forget_app(dict: &mut EfdDictionary, app: &str) -> usize {
    rebuild_retaining(dict, |l| l.app != app)
}

/// Rebuild `dict` without one specific label (application + input).
pub fn forget_label(dict: &mut EfdDictionary, app: &str, input: &str) -> usize {
    rebuild_retaining(dict, |l| !(l.app == app && l.input == input))
}

/// Rebuild `dict` keeping only keys of the given metrics.
pub fn retain_metrics(dict: &mut EfdDictionary, metrics: &[MetricId]) -> usize {
    let before = dict.len();
    let depth = dict.depth();
    let mut fresh = EfdDictionary::new(depth);
    for (fp, labels) in dict.entries() {
        if !metrics.contains(&fp.metric) {
            continue;
        }
        for label in labels {
            fresh.insert_raw(fp.metric, fp.node, fp.interval, fp.mean(), label);
        }
    }
    let dropped = before - fresh.len();
    *dict = fresh;
    dropped
}

fn rebuild_retaining(
    dict: &mut EfdDictionary,
    keep: impl Fn(&efd_telemetry::AppLabel) -> bool,
) -> usize {
    let before = dict.len();
    let mut fresh = EfdDictionary::new(dict.depth());
    for (fp, labels) in dict.entries() {
        for label in labels {
            if keep(label) {
                fresh.insert_raw(fp.metric, fp.node, fp.interval, fp.mean(), label);
            }
        }
    }
    let dropped = before - fresh.len();
    *dict = fresh;
    dropped
}

/// Relearn an application whose footprint changed (software update): drop
/// its old keys, then learn the new observations — the EFD's model-free
/// equivalent of retraining.
pub fn relearn_app(
    dict: &mut EfdDictionary,
    app: &str,
    observations: &[LabeledObservation],
) -> usize {
    let dropped = forget_app(dict, app);
    for obs in observations {
        debug_assert_eq!(obs.label.app, app, "relearn_app fed a foreign label");
        dict.learn(obs);
    }
    dropped
}

/// What one [`AgingDictionary::advance`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionReport {
    /// The epoch just entered.
    pub epoch: u64,
    /// Evicted keys, oldest stamp first (ties broken by the key's packed
    /// byte order) — a deterministic audit trail.
    pub evicted: Vec<Fingerprint>,
}

impl EvictionReport {
    /// Number of keys evicted this epoch.
    pub fn evicted_keys(&self) -> usize {
        self.evicted.len()
    }
}

/// An [`EfdDictionary`] with epoch-stamped key aging.
///
/// Long-running learn-while-serve deployments drift: applications get
/// updated, their footprints move, and the keys of the old footprint are
/// never matched again — they only add memory and ambiguity. An
/// `AgingDictionary` stamps every key with the epoch it was last learned
/// in; [`AgingDictionary::advance`] enters the next epoch and evicts every
/// key whose stamp is more than `max_age` epochs old. A key survives
/// exactly `max_age` advances without being relearned; relearning it (any
/// label) refreshes the stamp.
///
/// Eviction is by *key*, not by label: a shared key refreshed by one
/// application stays alive for every application voting on it. Eviction
/// never resurrects anything — it only rebuilds from the live entry set,
/// so keys dropped by [`forget_app`]/[`AgingDictionary::forget_app`] stay
/// forgotten (the in-memory mirror of the WAL no-resurrect property).
///
/// ```
/// use efd_core::maintenance::AgingDictionary;
/// use efd_core::engine::{Learn, Recognize};
/// use efd_core::{LabeledObservation, Query, RoundingDepth, Verdict};
/// use efd_telemetry::{AppLabel, Interval, MetricId};
///
/// let mut aging = AgingDictionary::new(RoundingDepth::new(2), 1);
/// aging.learn(&LabeledObservation {
///     label: AppLabel::new("ft", "X"),
///     query: Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[6000.0]),
/// });
/// let q = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[6000.0]);
/// assert_eq!(aging.recognize(&q).best(), Some("ft"));
/// aging.advance(); // age 1 == max_age: still alive
/// aging.advance(); // age 2 > max_age: evicted
/// assert_eq!(aging.recognize(&q).verdict, Verdict::Unknown);
/// ```
#[derive(Debug, Clone)]
pub struct AgingDictionary {
    dict: EfdDictionary,
    max_age: u64,
    epoch: u64,
    /// Key → epoch it was last learned in.
    stamps: FxHashMap<Fingerprint, u64>,
}

impl AgingDictionary {
    /// An empty aging dictionary at `depth`; keys survive `max_age`
    /// epochs without refresh.
    pub fn new(depth: RoundingDepth, max_age: u64) -> Self {
        Self {
            dict: EfdDictionary::new(depth),
            max_age,
            epoch: 0,
            stamps: FxHashMap::default(),
        }
    }

    /// The wrapped dictionary (freeze it, snapshot it, serve it).
    pub fn dictionary(&self) -> &EfdDictionary {
        &self.dict
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    /// Whether no keys are live.
    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }

    /// Enter the next epoch, evicting every key not learned within the
    /// last `max_age` epochs. Returns the eviction audit, oldest first.
    pub fn advance(&mut self) -> EvictionReport {
        self.epoch += 1;
        let epoch = self.epoch;
        let mut evicted: Vec<(u64, Fingerprint)> = self
            .stamps
            .iter()
            .filter(|&(_, &stamp)| epoch - stamp > self.max_age)
            .map(|(fp, &stamp)| (stamp, *fp))
            .collect();
        evicted.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.pack().cmp(&b.1.pack())));
        if !evicted.is_empty() {
            let mut fresh = EfdDictionary::new(self.dict.depth());
            for (fp, labels) in self.dict.entries() {
                if epoch - self.stamps[fp] > self.max_age {
                    continue;
                }
                for label in labels {
                    fresh.insert_raw(fp.metric, fp.node, fp.interval, fp.mean(), label);
                }
            }
            self.dict = fresh;
            self.stamps
                .retain(|_, &mut stamp| epoch - stamp <= self.max_age);
        }
        EvictionReport {
            epoch,
            evicted: evicted.into_iter().map(|(_, fp)| fp).collect(),
        }
    }

    /// [`forget_app`] with the stamp table kept in sync: stamps of keys
    /// that disappeared with the application are dropped too, so a later
    /// [`AgingDictionary::advance`] cannot see (let alone resurrect) them.
    pub fn forget_app(&mut self, app: &str) -> usize {
        let dropped = forget_app(&mut self.dict, app);
        let live: efd_util::FxHashSet<Fingerprint> =
            self.dict.entries().map(|(fp, _)| *fp).collect();
        self.stamps.retain(|fp, _| live.contains(fp));
        dropped
    }
}

impl Learn for AgingDictionary {
    fn learn(&mut self, obs: &LabeledObservation) {
        let depth = self.dict.depth();
        for p in &obs.query.points {
            if let Some(fp) = Fingerprint::from_raw(p.metric, p.node, p.interval, p.mean, depth) {
                self.stamps.insert(fp, self.epoch);
            }
        }
        self.dict.learn(obs);
    }
}

impl Recognize for AgingDictionary {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        self.dict.recognize_into(query, scratch)
    }
}

/// Convenience: a query probing a single fingerprint (used by maintenance
/// tooling and tests).
pub fn probe(
    metric: MetricId,
    node: efd_telemetry::NodeId,
    interval: efd_telemetry::Interval,
    mean: f64,
) -> Query {
    Query {
        points: vec![ObsPoint {
            metric,
            node,
            interval,
            mean,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Verdict;
    use crate::observation::Query;
    use crate::rounding::RoundingDepth;
    use efd_telemetry::{AppLabel, Interval, NodeId};

    const M: MetricId = MetricId(0);
    const M2: MetricId = MetricId(1);
    const W: Interval = Interval::PAPER_DEFAULT;

    fn dict_with(entries: &[(&str, &str, f64)]) -> EfdDictionary {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        for (app, input, mean) in entries {
            d.insert_raw(M, NodeId(0), W, *mean, &AppLabel::new(*app, *input));
        }
        d
    }

    #[test]
    fn merge_unions_keys_and_labels() {
        let mut site = dict_with(&[("ft", "X", 6000.0), ("sp", "X", 7500.0)]);
        let cluster_b = dict_with(&[("sp", "X", 7500.0), ("kripke", "Y", 8700.0)]);
        merge(&mut site, &cluster_b).unwrap();
        assert_eq!(site.len(), 3);
        let q = Query::from_node_means(M, W, &[8700.0]);
        assert_eq!(site.recognize(&q).best(), Some("kripke"));
        // Duplicate (key, label) did not duplicate the label.
        let q = Query::from_node_means(M, W, &[7500.0]);
        assert_eq!(site.recognize(&q).app_votes.len(), 1);
    }

    #[test]
    fn merge_preserves_receiving_tie_order() {
        // Site learned sp first; incoming has bt on the same key.
        let mut site = dict_with(&[("sp", "X", 7500.0)]);
        let incoming = dict_with(&[("bt", "X", 7500.0)]);
        merge(&mut site, &incoming).unwrap();
        let q = Query::from_node_means(M, W, &[7500.0]);
        let r = site.recognize(&q);
        assert_eq!(
            r.verdict,
            Verdict::Ambiguous(vec!["sp".into(), "bt".into()])
        );
    }

    #[test]
    fn merge_rejects_depth_mismatch() {
        let mut a = EfdDictionary::new(RoundingDepth::new(2));
        let b = EfdDictionary::new(RoundingDepth::new(3));
        assert_eq!(
            merge(&mut a, &b),
            Err(MaintenanceError::DepthMismatch { ours: 2, theirs: 3 })
        );
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
    fn forget_label_is_input_scoped() {
        let mut d = dict_with(&[("miniAMR", "X", 7800.0), ("miniAMR", "Z", 11000.0)]);
        forget_label(&mut d, "miniAMR", "Z");
        let q = Query::from_node_means(M, W, &[11000.0]);
        assert_eq!(d.recognize(&q).verdict, Verdict::Unknown);
        let q = Query::from_node_means(M, W, &[7800.0]);
        assert_eq!(d.recognize(&q).best(), Some("miniAMR"));
    }

    #[test]
    fn retain_metrics_drops_foreign_keys() {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        d.insert_raw(M, NodeId(0), W, 6000.0, &AppLabel::new("ft", "X"));
        d.insert_raw(M2, NodeId(0), W, 1234.0, &AppLabel::new("ft", "X"));
        let dropped = retain_metrics(&mut d, &[M]);
        assert_eq!(dropped, 1);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn relearn_replaces_an_apps_footprint() {
        let mut d = dict_with(&[("cg", "X", 6800.0), ("ft", "X", 6000.0)]);
        // cg's new version uses a different footprint.
        let new_obs = vec![LabeledObservation {
            label: AppLabel::new("cg", "X"),
            query: Query::from_node_means(M, W, &[9100.0]),
        }];
        relearn_app(&mut d, "cg", &new_obs);
        let q = Query::from_node_means(M, W, &[6800.0]);
        assert_eq!(
            d.recognize(&q).verdict,
            Verdict::Unknown,
            "old cg forgotten"
        );
        let q = Query::from_node_means(M, W, &[9100.0]);
        assert_eq!(d.recognize(&q).best(), Some("cg"));
        let q = Query::from_node_means(M, W, &[6000.0]);
        assert_eq!(d.recognize(&q).best(), Some("ft"), "other apps untouched");
    }

    // ---- AgingDictionary: aging / eviction ordering -------------------

    fn labeled(app: &str, mean: f64) -> LabeledObservation {
        LabeledObservation {
            label: AppLabel::new(app, "X"),
            query: Query::from_node_means(M, W, &[mean]),
        }
    }

    #[test]
    fn aging_evicts_only_stale_keys() {
        use crate::engine::{Learn, Recognize};
        let mut aging = AgingDictionary::new(RoundingDepth::new(2), 1);
        aging.learn(&labeled("old", 6000.0)); // epoch 0
        aging.advance(); // epoch 1
        aging.learn(&labeled("new", 8100.0)); // epoch 1
        let report = aging.advance(); // epoch 2: "old" is 2 > max_age=1
        assert_eq!(report.epoch, 2);
        assert_eq!(report.evicted_keys(), 1);
        let q = Query::from_node_means(M, W, &[6000.0]);
        assert_eq!(aging.recognize(&q).verdict, Verdict::Unknown, "old evicted");
        let q = Query::from_node_means(M, W, &[8100.0]);
        assert_eq!(aging.recognize(&q).best(), Some("new"));
        assert_eq!(aging.len(), 1);
    }

    #[test]
    fn relearning_refreshes_the_stamp() {
        use crate::engine::{Learn, Recognize};
        let mut aging = AgingDictionary::new(RoundingDepth::new(2), 1);
        aging.learn(&labeled("ft", 6000.0)); // epoch 0
        aging.advance(); // epoch 1: age 1, still alive
        aging.learn(&labeled("ft", 6000.0)); // refresh at epoch 1
        let report = aging.advance(); // epoch 2: age 1 again
        assert!(report.evicted.is_empty(), "refreshed key must survive");
        let q = Query::from_node_means(M, W, &[6000.0]);
        assert_eq!(aging.recognize(&q).best(), Some("ft"));
    }

    #[test]
    fn eviction_order_is_oldest_first_and_deterministic() {
        use crate::engine::Learn;
        let build = || {
            let mut aging = AgingDictionary::new(RoundingDepth::new(2), 2);
            aging.learn(&labeled("a", 9900.0)); // epoch 0 — oldest
            aging.advance();
            // Two keys in epoch 1: tie broken by packed key bytes.
            aging.learn(&labeled("b", 8100.0));
            aging.learn(&labeled("c", 1200.0));
            aging.advance(); // epoch 2
            let r3 = aging.advance(); // epoch 3: "a" at age 3 falls out
            let r4 = aging.advance(); // epoch 4: "b"/"c" at age 3 fall out
            (r3, r4)
        };
        let (run1, run2) = (build(), build());
        assert_eq!(run1, run2, "eviction audit must be deterministic");
        let (r3, r4) = run1;
        // Oldest stamp falls out first, in its own epoch.
        assert_eq!(r3.evicted_keys(), 1);
        assert_eq!(r3.evicted[0].mean(), 9900.0);
        // Equal stamps: tie broken by the packed key bytes.
        assert_eq!(r4.evicted_keys(), 2);
        assert!(r4.evicted[0].pack() < r4.evicted[1].pack());
    }

    #[test]
    fn shared_key_survives_through_either_apps_refresh() {
        use crate::engine::{Learn, Recognize};
        let mut aging = AgingDictionary::new(RoundingDepth::new(2), 1);
        aging.learn(&labeled("sp", 7500.0));
        aging.learn(&labeled("bt", 7500.0)); // same key, second label
        aging.advance();
        aging.learn(&labeled("sp", 7500.0)); // only sp refreshes
        aging.advance();
        aging.advance();
        // The key aged out (last refresh 2 epochs ago with max_age 1)…
        let q = Query::from_node_means(M, W, &[7500.0]);
        assert_eq!(aging.recognize(&q).verdict, Verdict::Unknown);
        // …but while alive, one app's refresh kept *both* labels voting.
        let mut aging = AgingDictionary::new(RoundingDepth::new(2), 1);
        aging.learn(&labeled("sp", 7500.0));
        aging.learn(&labeled("bt", 7500.0));
        aging.advance();
        aging.learn(&labeled("sp", 7500.0));
        let report = aging.advance();
        assert!(report.evicted.is_empty());
        let r = aging.recognize(&q);
        assert_eq!(
            r.verdict,
            Verdict::Ambiguous(vec!["bt".into(), "sp".into()])
        );
    }

    #[test]
    fn eviction_during_online_relearning_never_resurrects_forgotten_keys() {
        use crate::engine::{Learn, Recognize};
        // The in-memory mirror of the PR 6 WAL no-resurrect property:
        // forget an app, keep relearning others (the online-relearning
        // loop), advance epochs — the forgotten footprint must never
        // come back, not even transiently through an eviction rebuild.
        let mut aging = AgingDictionary::new(RoundingDepth::new(2), 1);
        aging.learn(&labeled("miner", 23_000.0)); // exclusive key
        aging.learn(&labeled("miner", 7500.0)); // shared with sp below
        aging.learn(&labeled("sp", 7500.0));
        aging.learn(&labeled("ft", 6000.0));
        let dropped = aging.forget_app("miner");
        assert_eq!(dropped, 1, "only the miner-exclusive key disappears");

        for round in 0..4 {
            aging.learn(&labeled("sp", 7500.0));
            aging.learn(&labeled("ft", 6000.0));
            let report = aging.advance();
            assert!(
                report.evicted.is_empty(),
                "round {round}: refreshed keys must not age out"
            );
            let q = Query::from_node_means(M, W, &[23_000.0]);
            assert_eq!(aging.recognize(&q).verdict, Verdict::Unknown);
            let q = Query::from_node_means(M, W, &[7500.0]);
            let r = aging.recognize(&q);
            assert_eq!(r.verdict, Verdict::Recognized("sp".into()));
            assert!(
                r.label_votes.iter().all(|(l, _)| l.app != "miner"),
                "forgotten app resurrected in round {round}: {:?}",
                r.label_votes
            );
        }
    }
}
