//! Temporal alignment (paper future work, §6).
//!
//! Shazam does not match isolated hashes: it histograms the *time offset*
//! between query hashes and database hashes, and a true match shows up as
//! many hashes agreeing on one offset. The EFD analogue: populate the
//! dictionary with a whole tiling of intervals (`[0:60]`, `[60:120]`, …)
//! and, when recognizing a stream whose start time is unknown (monitoring
//! attached mid-execution), try every alignment of observed windows against
//! dictionary windows and score each application by its best-aligned vote
//! count.
//!
//! This also strengthens recognition of time-varying applications: miniAMR
//! ramps, so its `[60:120]` and `[180:240]` fingerprints differ — alignment
//! exploits that sequence instead of being confused by it.

use efd_telemetry::{Interval, NodeId};
use efd_util::FxHashMap;

use crate::dictionary::EfdDictionary;
use crate::fingerprint::Fingerprint;
use crate::observation::Query;

/// An application's best temporal alignment against the dictionary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignedMatch {
    /// Application name.
    pub app: String,
    /// Votes at the best offset.
    pub votes: u32,
    /// Best offset in *windows* (dictionary window index − query window
    /// index): 0 means the stream started at execution start.
    pub offset_windows: i32,
}

/// Recognizer that aligns query windows against a dictionary built over an
/// interval tiling.
#[derive(Debug, Clone)]
pub struct AlignedRecognizer<'d> {
    dict: &'d EfdDictionary,
    tiling: Vec<Interval>,
}

impl<'d> AlignedRecognizer<'d> {
    /// Wrap a dictionary whose keys use intervals from `tiling` (window
    /// index = position in `tiling`).
    pub fn new(dict: &'d EfdDictionary, tiling: Vec<Interval>) -> Self {
        assert!(!tiling.is_empty(), "empty tiling");
        Self { dict, tiling }
    }

    /// Recognize a query whose points use *local* window indices (the
    /// query's intervals are positions in the same tiling geometry but
    /// with an unknown global offset). Returns matches sorted by votes
    /// (descending), each at its best offset.
    pub fn recognize(&self, query: &Query) -> Vec<AlignedMatch> {
        // votes[(app, offset)] → count
        let mut votes: FxHashMap<(String, i32), u32> = FxHashMap::default();

        for p in &query.points {
            // Local window index of this point.
            let Some(qi) = self.tiling.iter().position(|iv| *iv == p.interval) else {
                continue;
            };
            if !p.mean.is_finite() {
                continue;
            }
            // Try every dictionary window this mean could correspond to.
            for (di, &div) in self.tiling.iter().enumerate() {
                let fp = Fingerprint::from_raw(p.metric, p.node, div, p.mean, self.dict.depth());
                let Some(fp) = fp else { continue };
                if let Some(labels) = self.dict.lookup(&fp) {
                    let offset = di as i32 - qi as i32;
                    let mut apps_here: Vec<&str> = Vec::new();
                    for l in labels {
                        if !apps_here.contains(&l.app.as_str()) {
                            apps_here.push(&l.app);
                            *votes.entry((l.app.clone(), offset)).or_default() += 1;
                        }
                    }
                }
            }
        }

        // Best offset per app.
        let mut best: FxHashMap<String, (u32, i32)> = FxHashMap::default();
        for ((app, offset), v) in votes {
            let e = best.entry(app).or_insert((0, 0));
            if v > e.0 || (v == e.0 && offset.abs() < e.1.abs()) {
                *e = (v, offset);
            }
        }
        let mut out: Vec<AlignedMatch> = best
            .into_iter()
            .map(|(app, (votes, offset_windows))| AlignedMatch {
                app,
                votes,
                offset_windows,
            })
            .collect();
        out.sort_by(|a, b| b.votes.cmp(&a.votes).then(a.app.cmp(&b.app)));
        out
    }
}

/// Build a query whose intervals are the first `n` windows of `tiling`,
/// from per-window means (single metric, one node) — convenience for the
/// mid-execution attachment scenario.
pub fn query_from_windows(
    metric: efd_telemetry::MetricId,
    node: NodeId,
    tiling: &[Interval],
    means: &[f64],
) -> Query {
    let mut q = Query::default();
    for (i, &mean) in means.iter().enumerate() {
        if i >= tiling.len() {
            break;
        }
        q.points.push(crate::observation::ObsPoint {
            metric,
            node,
            interval: tiling[i],
            mean,
        });
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::LabeledObservation;
    use crate::rounding::RoundingDepth;
    use efd_telemetry::{AppLabel, MetricId};

    const M: MetricId = MetricId(0);

    /// miniAMR-like app: mean grows window over window (7800, 8000, 8200,
    /// 8400, …). A constant app sits at 6000 in every window.
    fn train_dict(tiling: &[Interval]) -> EfdDictionary {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        let ramp: Vec<f64> = (0..tiling.len())
            .map(|i| 7800.0 + 200.0 * i as f64)
            .collect();
        let mut q = Query::default();
        for (i, &iv) in tiling.iter().enumerate() {
            q.points.push(crate::observation::ObsPoint {
                metric: M,
                node: NodeId(0),
                interval: iv,
                mean: ramp[i],
            });
        }
        d.learn(&LabeledObservation {
            label: AppLabel::new("miniAMR", "X"),
            query: q,
        });
        let mut q = Query::default();
        for &iv in tiling {
            q.points.push(crate::observation::ObsPoint {
                metric: M,
                node: NodeId(0),
                interval: iv,
                mean: 6000.0,
            });
        }
        d.learn(&LabeledObservation {
            label: AppLabel::new("ft", "X"),
            query: q,
        });
        d
    }

    #[test]
    fn zero_offset_alignment() {
        let tiling = Interval::tiling(60, 360); // 6 windows
        let d = train_dict(&tiling);
        let rec = AlignedRecognizer::new(&d, tiling.clone());
        let q = query_from_windows(M, NodeId(0), &tiling, &[7810.0, 7990.0, 8190.0]);
        let m = rec.recognize(&q);
        assert_eq!(m[0].app, "miniAMR");
        assert_eq!(m[0].offset_windows, 0);
        assert_eq!(m[0].votes, 3);
    }

    #[test]
    fn late_attachment_found_at_positive_offset() {
        let tiling = Interval::tiling(60, 360);
        let d = train_dict(&tiling);
        let rec = AlignedRecognizer::new(&d, tiling.clone());
        // We attached two windows late: our local windows 0..3 hold what
        // the dictionary stored at windows 2..5 (8200, 8400, 8600).
        let q = query_from_windows(M, NodeId(0), &tiling, &[8210.0, 8390.0, 8590.0]);
        let m = rec.recognize(&q);
        assert_eq!(m[0].app, "miniAMR");
        assert_eq!(m[0].offset_windows, 2);
        assert_eq!(m[0].votes, 3);
    }

    #[test]
    fn constant_app_matches_any_offset_without_penalty() {
        let tiling = Interval::tiling(60, 360);
        let d = train_dict(&tiling);
        let rec = AlignedRecognizer::new(&d, tiling.clone());
        let q = query_from_windows(M, NodeId(0), &tiling, &[6010.0, 5990.0]);
        let m = rec.recognize(&q);
        assert_eq!(m[0].app, "ft");
        // A constant signature aligns everywhere; ties prefer |offset|
        // closest to zero.
        assert_eq!(m[0].offset_windows, 0);
        assert_eq!(m[0].votes, 2);
    }

    #[test]
    fn ramp_beats_constant_in_exclusiveness() {
        // A wrong ramp (downward) must not align with miniAMR.
        let tiling = Interval::tiling(60, 360);
        let d = train_dict(&tiling);
        let rec = AlignedRecognizer::new(&d, tiling.clone());
        let q = query_from_windows(M, NodeId(0), &tiling, &[8600.0, 8400.0, 8200.0]);
        let m = rec.recognize(&q);
        // Each window matches *some* miniAMR key but at inconsistent
        // offsets → best aligned count is 1, not 3.
        let amr = m.iter().find(|x| x.app == "miniAMR").unwrap();
        assert_eq!(amr.votes, 1);
    }

    #[test]
    fn unknown_stream_yields_no_matches() {
        let tiling = Interval::tiling(60, 360);
        let d = train_dict(&tiling);
        let rec = AlignedRecognizer::new(&d, tiling.clone());
        let q = query_from_windows(M, NodeId(0), &tiling, &[123.0, 456.0]);
        assert!(rec.recognize(&q).is_empty());
    }
}
