//! Prediction accuracy scoring: true-positive rate `A_T` and false-alarm
//! rate `A_F` (paper Eq. 3), used throughout Figs. 10–13.

use prepare_metrics::{debug_assert_finite, Label};

/// Confusion matrix over predicted-vs-true labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// Predicted abnormal, truly abnormal.
    pub true_positives: usize,
    /// Predicted normal, truly abnormal.
    pub false_negatives: usize,
    /// Predicted abnormal, truly normal.
    pub false_positives: usize,
    /// Predicted normal, truly normal.
    pub true_negatives: usize,
}

impl ConfusionMatrix {
    /// Empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one (predicted, truth) pair.
    pub fn record(&mut self, predicted: Label, truth: Label) {
        match (predicted.is_abnormal(), truth.is_abnormal()) {
            (true, true) => self.true_positives += 1,
            (false, true) => self.false_negatives += 1,
            (true, false) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Total number of scored predictions.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_negatives + self.false_positives + self.true_negatives
    }

    /// `A_T = N_tp / (N_tp + N_fn)` — Eq. 3. Returns 1.0 when there were
    /// no truly abnormal samples (nothing to miss).
    pub fn true_positive_rate(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            debug_assert_finite!(self.true_positives as f64 / denom as f64)
        }
    }

    /// `A_F = N_fp / (N_fp + N_tn)` — Eq. 3. Returns 0.0 when there were
    /// no truly normal samples.
    pub fn false_alarm_rate(&self) -> f64 {
        let denom = self.false_positives + self.true_negatives;
        if denom == 0 {
            0.0
        } else {
            debug_assert_finite!(self.false_positives as f64 / denom as f64)
        }
    }
}

impl std::fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tp={} fn={} fp={} tn={} (A_T={:.1}%, A_F={:.1}%)",
            self.true_positives,
            self.false_negatives,
            self.false_positives,
            self.true_negatives,
            self.true_positive_rate() * 100.0,
            self.false_alarm_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_match_eq3() {
        let mut m = ConfusionMatrix::new();
        // 8 tp, 2 fn → A_T = 0.8; 1 fp, 9 tn → A_F = 0.1
        for _ in 0..8 {
            m.record(Label::Abnormal, Label::Abnormal);
        }
        for _ in 0..2 {
            m.record(Label::Normal, Label::Abnormal);
        }
        m.record(Label::Abnormal, Label::Normal);
        for _ in 0..9 {
            m.record(Label::Normal, Label::Normal);
        }
        assert!((m.true_positive_rate() - 0.8).abs() < 1e-12);
        assert!((m.false_alarm_rate() - 0.1).abs() < 1e-12);
        assert_eq!(m.total(), 20);
    }

    #[test]
    fn empty_matrix_degenerate_rates() {
        let m = ConfusionMatrix::new();
        assert_eq!(m.true_positive_rate(), 1.0);
        assert_eq!(m.false_alarm_rate(), 0.0);
    }

    #[test]
    fn display_contains_rates() {
        let mut m = ConfusionMatrix::new();
        m.record(Label::Abnormal, Label::Abnormal);
        let s = m.to_string();
        assert!(s.contains("A_T=100.0%"));
    }
}
