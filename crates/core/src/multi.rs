//! Combinatorial fingerprints (paper future work, §6).
//!
//! > "Going forward, we can make fingerprints more exclusive by combining
//! > multiple system metrics and / or multiple time intervals."
//!
//! Two composition modes exist and differ sharply:
//!
//! * **Disjunctive (voting)** — what [`crate::dictionary::EfdDictionary`]
//!   already does when configured with several metrics/intervals: each
//!   point is looked up independently and votes. More data per execution,
//!   but a *collision on any single metric* still contributes votes.
//! * **Conjunctive (combo keys)** — this module: one key per (node,
//!   interval) is the *tuple of rounded means across all configured
//!   metrics*. Two applications collide only if they collide on **every**
//!   metric simultaneously — the Shazam "combinatorial hash" idea, maximal
//!   exclusiveness at the cost of higher sensitivity to per-metric noise
//!   (one noisy metric breaks the whole key).
//!
//! The `ablation_multimetric` bench quantifies the trade-off.

use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
use efd_util::hash::FxHasher;
use efd_util::FxHashMap;

use crate::dictionary::{Recognition, Verdict};
use crate::observation::{LabeledObservation, Query};
use crate::rounding::RoundingDepth;

use std::hash::{Hash, Hasher};

/// A conjunctive key: node, interval, and the hash of all (metric,
/// rounded-mean) pairs in configuration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ComboKey {
    node: NodeId,
    interval: Interval,
    means_hash: u64,
}

/// Dictionary over conjunctive multi-metric fingerprints.
#[derive(Debug, Clone)]
pub struct ComboDictionary {
    depth: RoundingDepth,
    metrics: Vec<MetricId>,
    map: FxHashMap<ComboKey, Vec<u32>>,
    labels: Vec<AppLabel>,
    label_ids: FxHashMap<AppLabel, u32>,
    apps: Vec<String>,
}

impl ComboDictionary {
    /// Empty combo dictionary over `metrics` (order matters and must match
    /// between learning and lookup), pruning at `depth`.
    pub fn new(metrics: Vec<MetricId>, depth: RoundingDepth) -> Self {
        assert!(!metrics.is_empty(), "combo dictionary needs >= 1 metric");
        Self {
            depth,
            metrics,
            map: FxHashMap::default(),
            labels: Vec::new(),
            label_ids: FxHashMap::default(),
            apps: Vec::new(),
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Build the combo keys of a query: one per (node, interval) that has
    /// a finite mean for *every* configured metric.
    fn combo_keys(&self, query: &Query) -> Vec<ComboKey> {
        // Group means by (node, interval) in configured metric order.
        let mut groups: FxHashMap<(NodeId, Interval), Vec<Option<f64>>> = FxHashMap::default();
        for p in &query.points {
            let Some(pos) = self.metrics.iter().position(|&m| m == p.metric) else {
                continue;
            };
            let slot = groups
                .entry((p.node, p.interval))
                .or_insert_with(|| vec![None; self.metrics.len()]);
            slot[pos] = Some(p.mean).filter(|m| m.is_finite());
        }
        let mut keys: Vec<(NodeId, Interval, u64)> = Vec::new();
        for ((node, interval), means) in groups {
            if means.iter().any(|m| m.is_none()) {
                continue; // conjunctive: every metric must be present
            }
            let mut h = FxHasher::default();
            for m in means.into_iter().flatten() {
                let rounded = self.depth.round(m);
                let rounded = if rounded == 0.0 { 0.0 } else { rounded };
                h.write_u64(rounded.to_bits());
            }
            keys.push((node, interval, h.finish()));
        }
        // Deterministic order for reproducible vote traversal.
        keys.sort_by_key(|&(n, iv, _)| (n, iv));
        keys.into_iter()
            .map(|(node, interval, means_hash)| ComboKey {
                node,
                interval,
                means_hash,
            })
            .collect()
    }

    fn intern(&mut self, label: &AppLabel) -> u32 {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let id = self.labels.len() as u32;
        self.labels.push(label.clone());
        self.label_ids.insert(label.clone(), id);
        if !self.apps.contains(&label.app) {
            self.apps.push(label.app.clone());
        }
        id
    }

    /// Rebuild a learned **single-metric** [`crate::EfdDictionary`] as
    /// conjunctive combo keys: one observation per stored
    /// `(fingerprint, label)` pair (re-rounding an already-rounded mean is
    /// idempotent, so the key set is preserved). On single-metric queries
    /// the result is answer-equivalent to the source dictionary.
    ///
    /// Returns `None` unless the dictionary spans exactly one metric —
    /// reconstructing *joint* multi-metric observations from a
    /// disjunctive store is ill-posed (the per-metric entries no longer
    /// record which means co-occurred).
    ///
    /// ```
    /// use efd_core::multi::ComboDictionary;
    /// use efd_core::{EfdDictionary, Query, RoundingDepth};
    /// use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
    ///
    /// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
    /// dict.insert_raw(MetricId(0), NodeId(0), Interval::PAPER_DEFAULT, 6020.0,
    ///                 &AppLabel::new("ft", "X"));
    /// let combo = ComboDictionary::from_single_metric(&dict).unwrap();
    /// let q = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[6004.0]);
    /// assert_eq!(combo.recognize(&q).best(), dict.recognize(&q).best());
    /// ```
    pub fn from_single_metric(dict: &crate::dictionary::EfdDictionary) -> Option<Self> {
        let mut metrics: Vec<MetricId> = Vec::new();
        for (fp, _) in dict.entries() {
            if !metrics.contains(&fp.metric) {
                metrics.push(fp.metric);
            }
        }
        let [metric] = metrics.as_slice() else {
            return None;
        };
        let mut combo = Self::new(vec![*metric], dict.depth());
        for (fp, labels) in dict.entries() {
            for label in labels {
                combo.learn(&LabeledObservation {
                    label: label.clone(),
                    query: Query {
                        points: vec![crate::observation::ObsPoint {
                            metric: fp.metric,
                            node: fp.node,
                            interval: fp.interval,
                            mean: fp.mean(),
                        }],
                    },
                });
            }
        }
        Some(combo)
    }

    /// Learn one labeled observation.
    pub fn learn(&mut self, obs: &LabeledObservation) {
        let keys = self.combo_keys(&obs.query);
        let id = self.intern(&obs.label);
        for key in keys {
            let list = self.map.entry(key).or_default();
            if !list.contains(&id) {
                list.push(id);
            }
        }
    }

    /// Learn a batch.
    pub fn learn_all(&mut self, observations: &[LabeledObservation]) {
        for o in observations {
            self.learn(o);
        }
    }

    /// Recognize with conjunctive keys; same vote/tie/unknown semantics as
    /// the base dictionary.
    pub fn recognize(&self, query: &Query) -> Recognition {
        let keys = self.combo_keys(query);
        let total_points = keys.len();
        let mut app_votes: Vec<(String, u32)> = Vec::new();
        let mut label_votes: Vec<(AppLabel, u32)> = Vec::new();
        let mut matched = 0usize;
        for key in keys {
            let Some(ids) = self.map.get(&key) else {
                continue;
            };
            matched += 1;
            let mut apps_here: Vec<&str> = Vec::new();
            for &id in ids {
                let label = &self.labels[id as usize];
                match label_votes.iter_mut().find(|(l, _)| l == label) {
                    Some((_, v)) => *v += 1,
                    None => label_votes.push((label.clone(), 1)),
                }
                if !apps_here.contains(&label.app.as_str()) {
                    apps_here.push(&label.app);
                    match app_votes.iter_mut().find(|(a, _)| a == &label.app) {
                        Some((_, v)) => *v += 1,
                        None => app_votes.push((label.app.clone(), 1)),
                    }
                }
            }
        }
        // Stable sort keeps first-learned order among ties.
        app_votes.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
        label_votes.sort_by_key(|&(_, v)| std::cmp::Reverse(v));

        let verdict = match app_votes.as_slice() {
            [] => Verdict::Unknown,
            [(a, _)] => Verdict::Recognized(a.clone()),
            [(a, top), rest @ ..] => {
                let mut tied = vec![a.clone()];
                tied.extend(
                    rest.iter()
                        .take_while(|(_, v)| v == top)
                        .map(|(x, _)| x.clone()),
                );
                if tied.len() == 1 {
                    Verdict::Recognized(tied.pop().unwrap())
                } else {
                    Verdict::Ambiguous(tied)
                }
            }
        };
        Recognition {
            verdict,
            app_votes,
            label_votes,
            matched_points: matched,
            total_points,
        }
    }
}

/// Conjunctive keys as an engine backend.
///
/// The combo path groups points into per-(node, interval) tuples before
/// voting, so it has its own aggregation structure and ignores the dense
/// scratch; answers are returned in [`Recognition::normalized`] order per
/// the engine contract. Note `total_points` counts *complete metric
/// combinations*, not raw points — identical to the raw point count only
/// when every configured metric is present and finite.
impl crate::engine::Recognize for ComboDictionary {
    fn recognize_into(
        &self,
        query: &Query,
        _scratch: &mut crate::engine::VoteScratch,
    ) -> Recognition {
        self.recognize(query).normalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M0: MetricId = MetricId(0);
    const M1: MetricId = MetricId(1);
    const W: Interval = Interval::PAPER_DEFAULT;

    fn obs(app: &str, m0: [f64; 2], m1: [f64; 2]) -> LabeledObservation {
        let mut q = Query::default();
        for (n, (&a, &b)) in m0.iter().zip(m1.iter()).enumerate() {
            q.points.push(crate::observation::ObsPoint {
                metric: M0,
                node: NodeId(n as u16),
                interval: W,
                mean: a,
            });
            q.points.push(crate::observation::ObsPoint {
                metric: M1,
                node: NodeId(n as u16),
                interval: W,
                mean: b,
            });
        }
        LabeledObservation {
            label: AppLabel::new(app, "X"),
            query: q,
        }
    }

    /// sp and bt collide on metric 0 (both ~7500) but differ on metric 1
    /// (4000 vs 9000): conjunctive keys must separate them.
    fn train() -> Vec<LabeledObservation> {
        vec![
            obs("sp", [7520.0, 7520.0], [4010.0, 4010.0]),
            obs("bt", [7520.0, 7520.0], [9020.0, 9020.0]),
        ]
    }

    #[test]
    fn conjunction_separates_single_metric_collisions() {
        let mut combo = ComboDictionary::new(vec![M0, M1], RoundingDepth::new(2));
        combo.learn_all(&train());

        let r = combo.recognize(&obs("?", [7530.0, 7510.0], [4020.0, 3990.0]).query);
        assert_eq!(r.verdict, Verdict::Recognized("sp".into()));
        let r = combo.recognize(&obs("?", [7530.0, 7510.0], [9010.0, 8990.0]).query);
        assert_eq!(r.verdict, Verdict::Recognized("bt".into()));

        // The disjunctive base dictionary with the same data ties instead.
        let mut base = crate::dictionary::EfdDictionary::new(RoundingDepth::new(2));
        base.learn_all(&train());
        let r = base.recognize(&obs("?", [7530.0, 7510.0], [4020.0, 3990.0]).query);
        // base: metric0 matches both, metric1 matches sp only → sp wins by
        // votes (sp 4, bt 2) — voting *can* still separate, but the combo
        // is exclusive at the key level:
        assert_eq!(r.best(), Some("sp"));
        let stats_collide = base
            .lookup_raw(M0, NodeId(0), W, 7520.0)
            .map(|l| l.len())
            .unwrap();
        assert_eq!(stats_collide, 2, "base dictionary key is shared");
    }

    #[test]
    fn mismatched_combination_is_unknown() {
        let mut combo = ComboDictionary::new(vec![M0, M1], RoundingDepth::new(2));
        combo.learn_all(&train());
        // sp's metric0 with an unseen metric1 level: no conjunctive key.
        let r = combo.recognize(&obs("?", [7520.0, 7520.0], [6000.0, 6000.0]).query);
        assert_eq!(r.verdict, Verdict::Unknown);
    }

    #[test]
    fn missing_metric_skips_the_point() {
        let mut combo = ComboDictionary::new(vec![M0, M1], RoundingDepth::new(2));
        combo.learn_all(&train());
        // Query carries only metric 0: no complete combination exists.
        let mut q = Query::default();
        q.points.push(crate::observation::ObsPoint {
            metric: M0,
            node: NodeId(0),
            interval: W,
            mean: 7520.0,
        });
        let r = combo.recognize(&q);
        assert_eq!(r.total_points, 0);
        assert_eq!(r.verdict, Verdict::Unknown);
    }

    #[test]
    fn from_single_metric_is_answer_equivalent() {
        use crate::dictionary::EfdDictionary;

        let mut dict = EfdDictionary::new(RoundingDepth::new(2));
        for (app, means) in [("ft", [6020.0, 6019.0]), ("sp", [7520.0, 7121.0])] {
            for (n, &mean) in means.iter().enumerate() {
                dict.insert_raw(M0, NodeId(n as u16), W, mean, &AppLabel::new(app, "X"));
            }
        }
        let combo = ComboDictionary::from_single_metric(&dict).expect("one metric");
        assert_eq!(combo.len(), dict.len());
        for means in [[6001.0, 5995.0], [7511.0, 7102.0], [1.0, 2.0]] {
            let q = crate::observation::Query::from_node_means(M0, W, &means);
            assert_eq!(
                combo.recognize(&q).normalized(),
                dict.recognize(&q).normalized()
            );
        }
    }

    #[test]
    fn from_single_metric_rejects_empty_and_multi_metric() {
        use crate::dictionary::EfdDictionary;

        let empty = EfdDictionary::new(RoundingDepth::new(2));
        assert!(ComboDictionary::from_single_metric(&empty).is_none());

        let mut two = EfdDictionary::new(RoundingDepth::new(2));
        two.insert_raw(M0, NodeId(0), W, 6020.0, &AppLabel::new("ft", "X"));
        two.insert_raw(M1, NodeId(0), W, 4010.0, &AppLabel::new("ft", "X"));
        assert!(ComboDictionary::from_single_metric(&two).is_none());
    }

    #[test]
    fn key_count_is_per_node() {
        let mut combo = ComboDictionary::new(vec![M0, M1], RoundingDepth::new(2));
        combo.learn_all(&train());
        // 2 apps × 2 nodes, all distinct conjunctions.
        assert_eq!(combo.len(), 4);
    }
}
