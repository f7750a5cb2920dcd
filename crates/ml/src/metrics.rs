//! Classification metrics with scikit-learn semantics.
//!
//! The paper: "F-score and cross-fold validation are implemented using the
//! sci-kit learn library." This module reproduces `sklearn.metrics`
//! definitions exactly (verified against hand-computed sklearn outputs in
//! the tests):
//!
//! * class set = sorted union of truth and prediction labels,
//! * per-class precision/recall/F1 with `zero_division=0`,
//! * `macro` = unweighted class mean, `weighted` = support-weighted,
//!   `micro` = global counts,
//! * "unknown" ([`UNKNOWN_LABEL`]) is an ordinary class label, which is
//!   how the soft/hard-unknown experiments score "no matching fingerprints"
//!   as correct for removed applications.

use efd_util::FxHashMap;

/// The pseudo-class for "no matching fingerprints" / "below confidence
/// threshold".
pub const UNKNOWN_LABEL: &str = "unknown";

/// Per-class and aggregate classification scores.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationReport {
    /// Sorted class names (union of truth and predictions).
    pub classes: Vec<String>,
    /// `confusion[t][p]` = #samples of true class `t` predicted as `p`
    /// (indices into [`ClassificationReport::classes`]).
    pub confusion: Vec<Vec<usize>>,
    /// Per-class precision.
    pub precision: Vec<f64>,
    /// Per-class recall.
    pub recall: Vec<f64>,
    /// Per-class F1.
    pub f1: Vec<f64>,
    /// Per-class support (#true samples).
    pub support: Vec<usize>,
    /// Overall accuracy.
    pub accuracy: f64,
}

impl ClassificationReport {
    /// Unweighted mean F1 over all classes in the truth∪prediction union
    /// (sklearn `average='macro'` with `labels=None`).
    pub fn macro_f1(&self) -> f64 {
        mean(&self.f1)
    }

    /// Unweighted mean F1 over classes *present in the ground truth*
    /// (sklearn `average='macro'` with `labels=<the known label set>`,
    /// which is how the paper's evaluation fixes its class list to the
    /// applications under test). Spurious predicted-only labels still
    /// cost precision of the real classes but do not enter the average
    /// as zero-F pseudo-classes.
    pub fn macro_f1_present(&self) -> f64 {
        let scores: Vec<f64> = self
            .f1
            .iter()
            .zip(&self.support)
            .filter(|(_, &s)| s > 0)
            .map(|(f, _)| *f)
            .collect();
        mean(&scores)
    }

    /// Support-weighted mean F1 (sklearn `average='weighted'`).
    pub fn weighted_f1(&self) -> f64 {
        let total: usize = self.support.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.f1
            .iter()
            .zip(&self.support)
            .map(|(f, &s)| f * s as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Micro-averaged F1 (= accuracy for single-label classification).
    pub fn micro_f1(&self) -> f64 {
        self.accuracy
    }

    /// Unweighted mean precision over classes.
    pub fn macro_precision(&self) -> f64 {
        mean(&self.precision)
    }

    /// Unweighted mean recall over classes.
    pub fn macro_recall(&self) -> f64 {
        mean(&self.recall)
    }

    /// F1 of one class by name.
    pub fn class_f1(&self, class: &str) -> Option<f64> {
        self.classes
            .iter()
            .position(|c| c == class)
            .map(|i| self.f1[i])
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Score predictions against ground truth (both as label strings; use
/// [`UNKNOWN_LABEL`] for unknown predictions/expectations).
///
/// Panics if lengths differ or inputs are empty.
pub fn evaluate<T: AsRef<str>, P: AsRef<str>>(truth: &[T], pred: &[P]) -> ClassificationReport {
    assert_eq!(truth.len(), pred.len(), "truth/pred length mismatch");
    assert!(!truth.is_empty(), "nothing to evaluate");

    let mut classes: Vec<String> = truth
        .iter()
        .map(|t| t.as_ref().to_string())
        .chain(pred.iter().map(|p| p.as_ref().to_string()))
        .collect();
    classes.sort();
    classes.dedup();
    let index: FxHashMap<&str, usize> = classes
        .iter()
        .enumerate()
        .map(|(i, c)| (c.as_str(), i))
        .collect();

    let k = classes.len();
    let mut confusion = vec![vec![0usize; k]; k];
    let mut correct = 0usize;
    for (t, p) in truth.iter().zip(pred) {
        let ti = index[t.as_ref()];
        let pi = index[p.as_ref()];
        confusion[ti][pi] += 1;
        if ti == pi {
            correct += 1;
        }
    }

    let mut precision = vec![0.0; k];
    let mut recall = vec![0.0; k];
    let mut f1 = vec![0.0; k];
    let mut support = vec![0usize; k];
    for c in 0..k {
        let tp = confusion[c][c];
        let pred_c: usize = (0..k).map(|t| confusion[t][c]).sum();
        let true_c: usize = confusion[c].iter().sum();
        support[c] = true_c;
        precision[c] = if pred_c == 0 {
            0.0
        } else {
            tp as f64 / pred_c as f64
        };
        recall[c] = if true_c == 0 {
            0.0
        } else {
            tp as f64 / true_c as f64
        };
        f1[c] = if precision[c] + recall[c] == 0.0 {
            0.0
        } else {
            2.0 * precision[c] * recall[c] / (precision[c] + recall[c])
        };
    }

    ClassificationReport {
        classes,
        confusion,
        precision,
        recall,
        f1,
        support,
        accuracy: correct as f64 / truth.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn perfect_predictions() {
        let truth = ["a", "b", "c", "a"];
        let r = evaluate(&truth, &truth);
        assert_eq!(r.accuracy, 1.0);
        assert_eq!(r.macro_f1(), 1.0);
        assert_eq!(r.weighted_f1(), 1.0);
        assert_eq!(r.micro_f1(), 1.0);
    }

    #[test]
    fn sklearn_reference_binary() {
        // sklearn: y_true = [0,1,0,1,0], y_pred = [0,1,1,1,0]
        // precision = [1.0, 0.6666...], recall = [0.6666..., 1.0]
        // f1 = [0.8, 0.8], macro = 0.8, accuracy = 0.8
        let truth = ["0", "1", "0", "1", "0"];
        let pred = ["0", "1", "1", "1", "0"];
        let r = evaluate(&truth, &pred);
        assert!(close(r.precision[0], 1.0));
        assert!(close(r.precision[1], 2.0 / 3.0));
        assert!(close(r.recall[0], 2.0 / 3.0));
        assert!(close(r.recall[1], 1.0));
        assert!(close(r.f1[0], 0.8));
        assert!(close(r.f1[1], 0.8));
        assert!(close(r.macro_f1(), 0.8));
        assert!(close(r.accuracy, 0.8));
    }

    #[test]
    fn sklearn_reference_multiclass_with_absent_prediction() {
        // sklearn: y_true = [a,a,b,b,c,c], y_pred = [a,a,a,b,b,c]
        // per class: a: P=2/3 R=1 F=0.8 ; b: P=1/2 R=1/2 F=0.5 ;
        //            c: P=1 R=1/2 F=2/3
        // macro = (0.8+0.5+2/3)/3 = 0.6555..., weighted same (equal support)
        let truth = ["a", "a", "b", "b", "c", "c"];
        let pred = ["a", "a", "a", "b", "b", "c"];
        let r = evaluate(&truth, &pred);
        assert!(close(r.f1[0], 0.8));
        assert!(close(r.f1[1], 0.5));
        assert!(close(r.f1[2], 2.0 / 3.0));
        assert!(close(r.macro_f1(), (0.8 + 0.5 + 2.0 / 3.0) / 3.0));
        assert!(close(r.weighted_f1(), (0.8 + 0.5 + 2.0 / 3.0) / 3.0));
        assert!(close(r.accuracy, 4.0 / 6.0));
    }

    #[test]
    fn predicted_only_class_drags_macro_down() {
        // A class that appears only in predictions gets P=0 (it has
        // predictions but no TPs), R=0 (support 0, zero_division=0) → F=0,
        // and is still averaged into macro — sklearn behavior with the
        // union label set.
        let truth = ["a", "a", "a", "a"];
        let pred = ["a", "a", "a", "b"];
        let r = evaluate(&truth, &pred);
        assert_eq!(r.classes, vec!["a".to_string(), "b".to_string()]);
        // a: P=1, R=3/4, F=6/7 ; b: F=0
        assert!(close(r.f1[0], 6.0 / 7.0));
        assert!(close(r.f1[1], 0.0));
        assert!(close(r.macro_f1(), 3.0 / 7.0));
        // weighted ignores the support-0 class entirely.
        assert!(close(r.weighted_f1(), 6.0 / 7.0));
    }

    #[test]
    fn unknown_as_correct_class() {
        // The hard-unknown experiment: all truth is "unknown"; predicting
        // unknown is correct, predicting an app is wrong.
        let truth = [UNKNOWN_LABEL; 4];
        let pred = [UNKNOWN_LABEL, UNKNOWN_LABEL, UNKNOWN_LABEL, "sp"];
        let r = evaluate(&truth, &pred);
        let unknown_f1 = r.class_f1(UNKNOWN_LABEL).unwrap();
        // P=1, R=3/4 → F = 6/7.
        assert!(close(unknown_f1, 6.0 / 7.0));
        assert!(close(r.accuracy, 0.75));
    }

    #[test]
    fn all_wrong_is_zero() {
        let truth = ["a", "a"];
        let pred = ["b", "b"];
        let r = evaluate(&truth, &pred);
        assert_eq!(r.accuracy, 0.0);
        assert_eq!(r.macro_f1(), 0.0);
    }

    #[test]
    fn confusion_matrix_layout() {
        let truth = ["a", "b", "a"];
        let pred = ["b", "b", "a"];
        let r = evaluate(&truth, &pred);
        // classes = [a, b]; confusion[true][pred]
        assert_eq!(r.confusion[0][0], 1); // a→a
        assert_eq!(r.confusion[0][1], 1); // a→b
        assert_eq!(r.confusion[1][1], 1); // b→b
        assert_eq!(r.confusion[1][0], 0);
        assert_eq!(r.support, vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        evaluate(&["a"], &["a", "b"]);
    }
}
