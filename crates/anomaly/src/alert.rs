//! Prediction results.

use prepare_metrics::{AttributeKind, Duration, Label, Timestamp};
use prepare_tan::AttributeStrength;

/// The outcome of one prediction step of a per-VM model.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// When the prediction was made (time of the latest observed sample).
    pub at: Timestamp,
    /// How far into the future the classified state lies.
    pub look_ahead: Duration,
    /// Predicted label of the system state at `at + look_ahead`.
    pub label: Label,
    /// TAN decision score (Eq. 1 LHS); positive ⇒ abnormal.
    pub score: f64,
    /// Logistic transform of `score` into an abnormality probability.
    pub probability: f64,
    /// Per-attribute impact strengths `L_i` ranked most-blamed first.
    pub strengths: Vec<AttributeStrength>,
    /// The predicted (most likely) discretized state per attribute, in
    /// canonical attribute order.
    pub predicted_states: Vec<usize>,
}

impl Prediction {
    /// True when the prediction is an anomaly alert.
    pub fn is_alert(&self) -> bool {
        self.label.is_abnormal()
    }

    /// The most-blamed attribute, when the model covers the standard 13
    /// per-VM attributes (`None` for monolithic-model indices ≥ 13 or an
    /// empty ranking).
    pub fn top_attribute(&self) -> Option<AttributeKind> {
        self.strengths
            .first()
            .and_then(|s| AttributeKind::from_index(s.attribute))
    }

    /// Blamed attributes in rank order, restricted to real per-VM
    /// attributes.
    pub fn ranked_attributes(&self) -> Vec<AttributeKind> {
        self.strengths
            .iter()
            .filter_map(|s| AttributeKind::from_index(s.attribute))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prediction(label: Label) -> Prediction {
        Prediction {
            at: Timestamp::from_secs(100),
            look_ahead: Duration::from_secs(30),
            label,
            score: if label.is_abnormal() { 1.0 } else { -1.0 },
            probability: 0.5,
            strengths: vec![
                AttributeStrength {
                    attribute: 3,
                    strength: 2.0,
                },
                AttributeStrength {
                    attribute: 0,
                    strength: 0.5,
                },
                AttributeStrength {
                    attribute: 99,
                    strength: 0.1,
                },
            ],
            predicted_states: vec![0; 13],
        }
    }

    #[test]
    fn alert_flag_follows_label() {
        assert!(prediction(Label::Abnormal).is_alert());
        assert!(!prediction(Label::Normal).is_alert());
    }

    #[test]
    fn top_attribute_resolves_kind() {
        let p = prediction(Label::Abnormal);
        assert_eq!(p.top_attribute(), Some(AttributeKind::FreeMem)); // index 3
    }

    #[test]
    fn ranked_attributes_skip_unknown_indices() {
        let p = prediction(Label::Abnormal);
        let ranked = p.ranked_attributes();
        assert_eq!(ranked.len(), 2); // index 99 dropped
        assert_eq!(ranked[0], AttributeKind::FreeMem);
    }
}
