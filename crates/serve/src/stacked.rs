//! First-confident-verdict-wins stacking of recognizer backends.
//!
//! A `recognizer.v1` manifest ([`crate::manifest`]) declares an
//! ordered stack — typically exact dictionary → combo → ml fallback —
//! and [`StackedRecognizer`] is its served form: one [`Recognize`]
//! whose answer is the first stage's verdict that clears that stage's
//! confidence bar.
//!
//! ## Precedence semantics
//!
//! Stages evaluate top to bottom. A stage **wins** when its verdict is
//! `Recognized` *and* its matched-point fraction
//! (`matched_points / total_points`) is at least the stage's
//! `min_confidence`. The first winner's recognition is returned
//! unchanged — later stages are not even consulted, so stacking adds
//! zero cost to the common case where the primary dictionary knows the
//! answer.
//!
//! If **no** stage wins, the *primary* (first) stage's recognition is
//! returned. Falling back to the last stage's guess would turn every
//! never-seen execution into whatever the ml fallback hallucinates;
//! returning the primary's `Unknown`/`Ambiguous` keeps the paper's
//! abstention safeguard — and makes the stack *conformant*: wherever the
//! primary is confident, the stack answers exactly as the primary (the
//! `stacked.rs` conformance test pins this).
//!
//! Scratch discipline: stages share the caller's [`VoteScratch`]
//! sequentially; [`VoteScratch::finish`] resets it, so reuse across
//! stages is safe by the engine-API contract.

use std::sync::Arc;

use efd_core::engine::{Recognize, VoteScratch};
use efd_core::{Query, Recognition, Verdict};

/// One stage of a stack: a named engine plus its confidence bar.
#[derive(Clone)]
pub struct StackedStage {
    /// Display name (`exact`, `combo`, `knn(k=3)`, ...) for status
    /// surfaces.
    pub name: String,
    /// The engine this stage answers through.
    pub engine: Arc<dyn Recognize + Send + Sync>,
    /// Minimum matched-point fraction for this stage's `Recognized`
    /// verdict to end evaluation (`0.0` = any recognition wins).
    pub min_confidence: f64,
}

impl std::fmt::Debug for StackedStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StackedStage")
            .field("name", &self.name)
            .field("min_confidence", &self.min_confidence)
            .finish()
    }
}

/// A precedence-ordered recognizer stack (see module docs).
#[derive(Debug, Clone)]
pub struct StackedRecognizer {
    stages: Vec<StackedStage>,
}

impl StackedRecognizer {
    /// Build from stages in precedence order.
    ///
    /// # Panics
    ///
    /// Panics on an empty stack — a manifest is validated to have at
    /// least one stage before it gets here.
    pub fn new(stages: Vec<StackedStage>) -> Self {
        assert!(
            !stages.is_empty(),
            "a recognizer stack needs at least one stage"
        );
        Self { stages }
    }

    /// The stages, precedence order.
    pub fn stages(&self) -> &[StackedStage] {
        &self.stages
    }

    /// `name(conf) > name(conf) > ...` — the status-line rendering.
    pub fn describe(&self) -> String {
        self.stages
            .iter()
            .map(|s| format!("{}({})", s.name, s.min_confidence))
            .collect::<Vec<_>>()
            .join(" > ")
    }

    /// Does `rec` clear `min_confidence` as a winning verdict?
    fn confident(rec: &Recognition, min_confidence: f64) -> bool {
        if !matches!(rec.verdict, Verdict::Recognized(_)) {
            return false;
        }
        if rec.total_points == 0 {
            return false;
        }
        rec.matched_points as f64 / rec.total_points as f64 >= min_confidence
    }
}

impl Recognize for StackedRecognizer {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        let mut primary = None;
        for (i, stage) in self.stages.iter().enumerate() {
            let rec = stage.engine.recognize_into(query, scratch);
            if Self::confident(&rec, stage.min_confidence) {
                return rec;
            }
            if i == 0 {
                primary = Some(rec);
            }
        }
        primary.expect("stack is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_core::dictionary::EfdDictionary;
    use efd_core::observation::{LabeledObservation, ObsPoint};
    use efd_core::rounding::RoundingDepth;
    use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};

    const W: Interval = Interval::PAPER_DEFAULT;

    fn learn(dict: &mut EfdDictionary, app: &str, means: &[f64]) {
        let points = means
            .iter()
            .enumerate()
            .map(|(n, m)| ObsPoint {
                metric: MetricId(0),
                node: NodeId(n as u16),
                interval: W,
                mean: *m,
            })
            .collect();
        dict.learn(&LabeledObservation {
            label: AppLabel::new(app, "X"),
            query: Query { points },
        });
    }

    fn query(means: &[f64]) -> Query {
        Query {
            points: means
                .iter()
                .enumerate()
                .map(|(n, m)| ObsPoint {
                    metric: MetricId(0),
                    node: NodeId(n as u16),
                    interval: W,
                    mean: *m,
                })
                .collect(),
        }
    }

    fn stage(name: &str, dict: EfdDictionary, min_confidence: f64) -> StackedStage {
        StackedStage {
            name: name.into(),
            engine: Arc::new(dict),
            min_confidence,
        }
    }

    #[test]
    fn first_confident_stage_wins() {
        let mut primary = EfdDictionary::new(RoundingDepth::new(2));
        learn(&mut primary, "ft", &[1000.0, 1000.0]);
        let mut fallback = EfdDictionary::new(RoundingDepth::new(2));
        learn(&mut fallback, "sp", &[1000.0, 1000.0]);
        let stack = StackedRecognizer::new(vec![
            stage("exact", primary, 0.5),
            stage("fallback", fallback, 0.0),
        ]);
        // Primary knows the answer: fallback must never flip it.
        assert_eq!(
            stack.recognize(&query(&[1000.0, 1000.0])).best(),
            Some("ft")
        );
    }

    #[test]
    fn falls_through_below_the_confidence_bar() {
        // Primary matches only 1 of 2 points: 0.5 < 0.6 bar.
        let mut primary = EfdDictionary::new(RoundingDepth::new(2));
        learn(&mut primary, "ft", &[1000.0]);
        let mut fallback = EfdDictionary::new(RoundingDepth::new(2));
        learn(&mut fallback, "sp", &[1000.0, 2000.0]);
        let stack = StackedRecognizer::new(vec![
            stage("exact", primary, 0.6),
            stage("fallback", fallback, 0.0),
        ]);
        assert_eq!(
            stack.recognize(&query(&[1000.0, 2000.0])).best(),
            Some("sp")
        );
    }

    #[test]
    fn unconfident_everywhere_returns_primary_abstention() {
        let mut primary = EfdDictionary::new(RoundingDepth::new(2));
        learn(&mut primary, "ft", &[9999.0]);
        let mut fallback = EfdDictionary::new(RoundingDepth::new(2));
        learn(&mut fallback, "sp", &[8888.0]);
        let stack = StackedRecognizer::new(vec![
            stage("exact", primary, 0.0),
            stage("fallback", fallback, 0.9),
        ]);
        // Neither knows the query; the answer is the PRIMARY's Unknown,
        // not the fallback's.
        let rec = stack.recognize(&query(&[1000.0]));
        assert!(matches!(rec.verdict, Verdict::Unknown), "{rec:?}");
    }

    #[test]
    fn describe_renders_precedence() {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        learn(&mut d, "ft", &[1.0]);
        let stack = StackedRecognizer::new(vec![
            stage("exact", d.clone(), 0.6),
            stage("knn(k=3)", d, 0.0),
        ]);
        assert_eq!(stack.describe(), "exact(0.6) > knn(k=3)(0)");
    }
}
