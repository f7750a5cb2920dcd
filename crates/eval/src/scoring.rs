//! Abstention-quality scoring for scenario evaluation.
//!
//! Plain accuracy/F1 hides the verdicts that matter most in deployment:
//! the EFD's whole safety story is that out-of-dictionary executions come
//! back [`efd_core::Verdict::Unknown`] and contested keys come back
//! [`efd_core::Verdict::Ambiguous`]. This module scores those explicitly,
//! per scenario × backend cell:
//!
//! * **Unknown detection** — treating "should abstain" as the positive
//!   class: precision (`of the Unknowns we emitted, how many were truly
//!   out-of-dictionary?`) and recall (`of the truly out-of-dictionary
//!   queries, how many did we abstain on?`). Zero-division conventions
//!   are explicit and NaN-free (see [`score`]).
//! * **Ambiguity calibration** — expected calibration error over the
//!   per-query confidence (`matched_points / total_points`), binned into
//!   five equal-width bins: a well-calibrated recognizer's confidence
//!   should track its empirical correctness.
//! * **Tie coverage** — among `Ambiguous` verdicts with a known truth,
//!   how often the truth is *inside* the tie array (the paper prints the
//!   array precisely so an operator can inspect it).
//!
//! All of it folds into one [`AbstentionReport`] per cell, next to the
//! usual macro-F1/accuracy, plus the verdict histogram the conformance
//! suite pins across backends.

use efd_core::{Recognition, Verdict, VerdictKind};
use efd_ml::metrics::{evaluate, UNKNOWN_LABEL};

/// One scored query: ground truth vs what the backend answered.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredQuery {
    /// Ground-truth application, or [`UNKNOWN_LABEL`] when the correct
    /// behavior is to abstain (out-of-dictionary execution).
    pub truth: String,
    /// Scored prediction: [`Recognition::best`], or [`UNKNOWN_LABEL`].
    pub predicted: String,
    /// Which verdict variant was produced.
    pub verdict: VerdictKind,
    /// Matched-point fraction in `[0, 1]` (`matched / total`; `0` for an
    /// empty query) — the confidence signal calibration is scored on.
    pub confidence: f64,
    /// The tie array of an `Ambiguous` verdict (empty otherwise).
    pub tie: Vec<String>,
}

impl ScoredQuery {
    /// Score one recognition against its ground truth (`None` = the
    /// backend should have abstained).
    pub fn from_recognition(truth: Option<&str>, r: &Recognition) -> ScoredQuery {
        let tie = match &r.verdict {
            Verdict::Ambiguous(tie) => tie.clone(),
            _ => Vec::new(),
        };
        let confidence = if r.total_points == 0 {
            0.0
        } else {
            r.matched_points as f64 / r.total_points as f64
        };
        ScoredQuery {
            truth: truth.unwrap_or(UNKNOWN_LABEL).to_string(),
            predicted: r.best().unwrap_or(UNKNOWN_LABEL).to_string(),
            verdict: r.verdict.kind(),
            confidence,
            tie,
        }
    }
}

/// Verdict counts over a cell (the conformance suite pins these across
/// every dictionary-family backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerdictHistogram {
    /// `Recognized` verdicts.
    pub recognized: usize,
    /// `Ambiguous` verdicts.
    pub ambiguous: usize,
    /// `Unknown` verdicts.
    pub unknown: usize,
}

impl std::fmt::Display for VerdictHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recognized={} ambiguous={} unknown={}",
            self.recognized, self.ambiguous, self.unknown
        )
    }
}

/// Number of equal-width confidence bins in the calibration error.
pub const CALIBRATION_BINS: usize = 5;

/// Per-cell scores: classification quality plus abstention quality.
///
/// Every field is a finite number for every input, including the
/// all-Unknown and zero-Unknown edge cases — the zero-division
/// conventions are spelled out on [`score`].
#[derive(Debug, Clone, PartialEq)]
pub struct AbstentionReport {
    /// Queries scored.
    pub n: usize,
    /// Macro F1 over classes present in the truth (sklearn-compatible,
    /// [`UNKNOWN_LABEL`] participates as its own class).
    pub macro_f1: f64,
    /// Plain accuracy: `predicted == truth`.
    pub accuracy: f64,
    /// Of the emitted Unknowns, the fraction that truly required
    /// abstention.
    pub unknown_precision: f64,
    /// Of the queries requiring abstention, the fraction that got it.
    pub unknown_recall: f64,
    /// Harmonic mean of the two (0 when both are 0).
    pub unknown_f1: f64,
    /// Expected calibration error over [`CALIBRATION_BINS`] confidence
    /// bins (0 = perfectly calibrated; empty bins contribute nothing).
    pub calibration_error: f64,
    /// Among `Ambiguous` verdicts with a known truth, the fraction whose
    /// tie array contains the truth (1.0 when there are none).
    pub tie_coverage: f64,
    /// Verdict counts.
    pub verdicts: VerdictHistogram,
}

/// Score a cell of queries.
///
/// Zero-division conventions (all chosen so a report never contains NaN):
///
/// * `unknown_precision` with zero emitted Unknowns: `1.0` if nothing
///   required abstention (vacuously precise), else `0.0` (it missed all
///   of them and claimed nothing).
/// * `unknown_recall` with zero truth-Unknowns: `1.0` (vacuous recall).
/// * `unknown_f1` when precision + recall is `0`: `0.0`.
/// * `tie_coverage` with no qualifying `Ambiguous` verdicts: `1.0`.
/// * Empty input: `n = 0`, every rate `1.0` except `macro_f1`,
///   `accuracy`, and `calibration_error`, which are `0.0`.
pub fn score(queries: &[ScoredQuery]) -> AbstentionReport {
    let n = queries.len();
    let mut verdicts = VerdictHistogram::default();
    for q in queries {
        match q.verdict {
            VerdictKind::Recognized => verdicts.recognized += 1,
            VerdictKind::Ambiguous => verdicts.ambiguous += 1,
            VerdictKind::Unknown => verdicts.unknown += 1,
        }
    }

    let truth: Vec<String> = queries.iter().map(|q| q.truth.clone()).collect();
    let predicted: Vec<String> = queries.iter().map(|q| q.predicted.clone()).collect();
    let macro_f1 = if n == 0 {
        0.0
    } else {
        evaluate(&truth, &predicted).macro_f1_present()
    };
    let correct = queries.iter().filter(|q| q.predicted == q.truth).count();
    let accuracy = if n == 0 {
        0.0
    } else {
        correct as f64 / n as f64
    };

    // Unknown detection: "should abstain" is the positive class.
    let truth_unknown = queries.iter().filter(|q| q.truth == UNKNOWN_LABEL).count();
    let pred_unknown = queries
        .iter()
        .filter(|q| q.predicted == UNKNOWN_LABEL)
        .count();
    let hit_unknown = queries
        .iter()
        .filter(|q| q.truth == UNKNOWN_LABEL && q.predicted == UNKNOWN_LABEL)
        .count();
    let unknown_precision = if pred_unknown > 0 {
        hit_unknown as f64 / pred_unknown as f64
    } else if truth_unknown == 0 {
        1.0
    } else {
        0.0
    };
    let unknown_recall = if truth_unknown > 0 {
        hit_unknown as f64 / truth_unknown as f64
    } else {
        1.0
    };
    let unknown_f1 = if unknown_precision + unknown_recall > 0.0 {
        2.0 * unknown_precision * unknown_recall / (unknown_precision + unknown_recall)
    } else {
        0.0
    };

    // Expected calibration error over equal-width confidence bins.
    let mut bin_conf = [0.0f64; CALIBRATION_BINS];
    let mut bin_hits = [0usize; CALIBRATION_BINS];
    let mut bin_n = [0usize; CALIBRATION_BINS];
    for q in queries {
        let c = q.confidence.clamp(0.0, 1.0);
        let b = ((c * CALIBRATION_BINS as f64) as usize).min(CALIBRATION_BINS - 1);
        bin_conf[b] += c;
        bin_n[b] += 1;
        if q.predicted == q.truth {
            bin_hits[b] += 1;
        }
    }
    let calibration_error = if n == 0 {
        0.0
    } else {
        (0..CALIBRATION_BINS)
            .filter(|&b| bin_n[b] > 0)
            .map(|b| {
                let avg_conf = bin_conf[b] / bin_n[b] as f64;
                let avg_acc = bin_hits[b] as f64 / bin_n[b] as f64;
                (avg_conf - avg_acc).abs() * bin_n[b] as f64 / n as f64
            })
            .sum()
    };

    // Tie coverage over Ambiguous verdicts with a known truth.
    let mut tied = 0usize;
    let mut covered = 0usize;
    for q in queries {
        if q.verdict == VerdictKind::Ambiguous && q.truth != UNKNOWN_LABEL {
            tied += 1;
            if q.tie.iter().any(|a| a == &q.truth) {
                covered += 1;
            }
        }
    }
    let tie_coverage = if tied > 0 {
        covered as f64 / tied as f64
    } else {
        1.0
    };

    let report = AbstentionReport {
        n,
        macro_f1,
        accuracy,
        unknown_precision,
        unknown_recall,
        unknown_f1,
        calibration_error,
        tie_coverage,
        verdicts,
    };
    debug_assert!(
        [
            report.macro_f1,
            report.accuracy,
            report.unknown_precision,
            report.unknown_recall,
            report.unknown_f1,
            report.calibration_error,
            report.tie_coverage,
        ]
        .iter()
        .all(|v| v.is_finite()),
        "abstention report contains a non-finite value: {report:?}"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(truth: &str, predicted: &str, verdict: VerdictKind, confidence: f64) -> ScoredQuery {
        ScoredQuery {
            truth: truth.into(),
            predicted: predicted.into(),
            verdict,
            confidence,
            tie: Vec::new(),
        }
    }

    // ---- hand-computed golden fixtures on a tiny 3-app dictionary ----
    //
    // 8 queries over apps {ft, cg, lu} plus two out-of-dictionary runs:
    //
    //   # truth    predicted  verdict     conf
    //   1 ft       ft         Recognized  1.00   correct
    //   2 ft       cg         Recognized  0.75   wrong
    //   3 cg       cg         Recognized  1.00   correct
    //   4 lu       unknown    Unknown     0.00   missed (false abstain)
    //   5 lu       lu         Ambiguous   0.50   correct via tie-break
    //   6 unknown  unknown    Unknown     0.00   true abstain
    //   7 unknown  ft         Recognized  0.25   masquerade fooled it
    //   8 cg       cg         Recognized  0.80   correct
    fn golden() -> Vec<ScoredQuery> {
        let mut v = vec![
            q("ft", "ft", VerdictKind::Recognized, 1.0),
            q("ft", "cg", VerdictKind::Recognized, 0.75),
            q("cg", "cg", VerdictKind::Recognized, 1.0),
            q("lu", UNKNOWN_LABEL, VerdictKind::Unknown, 0.0),
            q("lu", "lu", VerdictKind::Ambiguous, 0.5),
            q(UNKNOWN_LABEL, UNKNOWN_LABEL, VerdictKind::Unknown, 0.0),
            q(UNKNOWN_LABEL, "ft", VerdictKind::Recognized, 0.25),
            q("cg", "cg", VerdictKind::Recognized, 0.8),
        ];
        v[4].tie = vec!["lu".into(), "sp".into()];
        v
    }

    #[test]
    fn golden_unknown_detection() {
        let r = score(&golden());
        // Emitted Unknowns: #4 and #6 → precision 1/2. Truth-unknowns:
        // #6 and #7 → recall 1/2. F1 = 0.5.
        assert_eq!(r.unknown_precision, 0.5);
        assert_eq!(r.unknown_recall, 0.5);
        assert_eq!(r.unknown_f1, 0.5);
    }

    #[test]
    fn golden_accuracy_and_histogram() {
        let r = score(&golden());
        // Correct: #1 #3 #5 #6 #8 → 5/8.
        assert_eq!(r.accuracy, 5.0 / 8.0);
        assert_eq!(
            r.verdicts,
            VerdictHistogram {
                recognized: 5,
                ambiguous: 1,
                unknown: 2,
            }
        );
        assert_eq!(r.n, 8);
    }

    #[test]
    fn golden_macro_f1() {
        // Per-class F1 (classes present in truth: cg, ft, lu, unknown):
        //   cg: P=2/3, R=1   → 0.8
        //   ft: P=1/2, R=1/2 → 0.5
        //   lu: P=1,   R=1/2 → 2/3
        //   unknown: P=1/2, R=1/2 → 0.5
        // macro = (0.8 + 0.5 + 2/3 + 0.5) / 4 = 37/60
        let r = score(&golden());
        assert!((r.macro_f1 - 37.0 / 60.0).abs() < 1e-12, "{}", r.macro_f1);
    }

    #[test]
    fn golden_calibration_error() {
        // Bins of width 0.2 over (conf, correct):
        //   bin0 [0,.2):   #4(0,✓ as unknown? no: predicted=unknown, truth=lu ✗)
        //                  #6(0,✓) → conf̄=0, acc=1/2 → |0-0.5|·2/8
        //   bin1 [.2,.4):  #7(.25,✗) → |0.25-0|·1/8
        //   bin2 [.4,.6):  #5(.5,✓)  → |0.5-1|·1/8
        //   bin3 [.6,.8):  #2(.75,✗) → |0.75-0|·1/8
        //   bin4 [.8,1]:   #1(1,✓) #3(1,✓) #8(.8,✓) → |2.8/3-1|·3/8
        // ECE = (1 + 0.25 + 0.5 + 0.75)/8 + (0.2/3)·(3/8) = 0.3375
        let r = score(&golden());
        assert!(
            (r.calibration_error - 0.3375).abs() < 1e-12,
            "{}",
            r.calibration_error
        );
    }

    #[test]
    fn golden_tie_coverage() {
        let mut queries = golden();
        let r = score(&queries);
        assert_eq!(r.tie_coverage, 1.0, "the one tie contains its truth");
        // Break the tie array: coverage drops to 0.
        queries[4].tie = vec!["sp".into(), "bt".into()];
        let r = score(&queries);
        assert_eq!(r.tie_coverage, 0.0);
    }

    #[test]
    fn all_unknown_edge_case_has_no_nan() {
        // Every query abstained, and every truth required it.
        let queries: Vec<ScoredQuery> = (0..4)
            .map(|_| q(UNKNOWN_LABEL, UNKNOWN_LABEL, VerdictKind::Unknown, 0.0))
            .collect();
        let r = score(&queries);
        assert_eq!(r.unknown_precision, 1.0);
        assert_eq!(r.unknown_recall, 1.0);
        assert_eq!(r.unknown_f1, 1.0);
        assert_eq!(r.accuracy, 1.0);
        assert_eq!(r.tie_coverage, 1.0);
        // Every abstain was right but carried confidence 0: maximally
        // miscalibrated, and still a finite, meaningful number.
        assert_eq!(r.calibration_error, 1.0);
    }

    #[test]
    fn zero_unknown_edge_case_has_no_nan() {
        // Nothing abstained and nothing needed to.
        let queries = vec![
            q("ft", "ft", VerdictKind::Recognized, 1.0),
            q("cg", "cg", VerdictKind::Recognized, 1.0),
        ];
        let r = score(&queries);
        assert_eq!(r.unknown_precision, 1.0, "vacuously precise");
        assert_eq!(r.unknown_recall, 1.0, "vacuous recall");
        assert_eq!(r.unknown_f1, 1.0);
        assert_eq!(r.macro_f1, 1.0);
        assert_eq!(r.calibration_error, 0.0);
    }

    #[test]
    fn abstains_emitted_but_never_required() {
        // Unknowns emitted on in-dictionary queries only: precision 0,
        // vacuous recall 1, f1 well-defined.
        let queries = vec![
            q("ft", UNKNOWN_LABEL, VerdictKind::Unknown, 0.0),
            q("cg", "cg", VerdictKind::Recognized, 1.0),
        ];
        let r = score(&queries);
        assert_eq!(r.unknown_precision, 0.0);
        assert_eq!(r.unknown_recall, 1.0);
        assert_eq!(r.unknown_f1, 0.0);
    }

    #[test]
    fn required_but_never_emitted() {
        let queries = vec![
            q(UNKNOWN_LABEL, "ft", VerdictKind::Recognized, 1.0),
            q("cg", "cg", VerdictKind::Recognized, 1.0),
        ];
        let r = score(&queries);
        assert_eq!(
            r.unknown_precision, 0.0,
            "abstention existed but was never claimed"
        );
        assert_eq!(r.unknown_recall, 0.0);
        assert_eq!(r.unknown_f1, 0.0);
    }

    #[test]
    fn empty_input_is_all_finite() {
        let r = score(&[]);
        assert_eq!(r.n, 0);
        assert_eq!(r.macro_f1, 0.0);
        assert_eq!(r.accuracy, 0.0);
        assert_eq!(r.unknown_precision, 1.0);
        assert_eq!(r.unknown_recall, 1.0);
        assert_eq!(r.calibration_error, 0.0);
    }

    #[test]
    fn from_recognition_maps_verdicts_and_confidence() {
        use efd_core::Verdict;
        let r = Recognition {
            verdict: Verdict::Ambiguous(vec!["bt".into(), "sp".into()]),
            app_votes: vec![("bt".into(), 2), ("sp".into(), 2)],
            label_votes: vec![],
            matched_points: 2,
            total_points: 4,
        };
        let s = ScoredQuery::from_recognition(Some("sp"), &r);
        assert_eq!(s.verdict, VerdictKind::Ambiguous);
        assert_eq!(s.predicted, "bt", "best() tie-break is lexicographic");
        assert_eq!(s.confidence, 0.5);
        assert_eq!(s.tie, vec!["bt".to_string(), "sp".to_string()]);
        assert_eq!(s.truth, "sp");

        let r = Recognition {
            verdict: Verdict::Unknown,
            app_votes: vec![],
            label_votes: vec![],
            matched_points: 0,
            total_points: 0,
        };
        let s = ScoredQuery::from_recognition(None, &r);
        assert_eq!(s.truth, UNKNOWN_LABEL);
        assert_eq!(s.predicted, UNKNOWN_LABEL);
        assert_eq!(s.confidence, 0.0, "empty query must not divide by zero");
    }
}
