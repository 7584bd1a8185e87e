//! Prediction results.

use prepare_metrics::{AttributeKind, Duration, Fingerprint64, Label, Timestamp};
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

    /// Streams every field of the prediction into `fp`, giving the
    /// determinism audits an allocation-free identity (floats by bit
    /// pattern, so signed zeros and NaN payloads are distinguished;
    /// variable-length fields length-prefixed so adjacent predictions
    /// cannot alias). Two predictions fingerprint equal iff they are
    /// bit-identical field for field.
    // xtask: hot-path
    pub fn fingerprint_into(&self, fp: &mut Fingerprint64) {
        fp.write_u64(self.at.as_secs());
        fp.write_u64(self.look_ahead.as_secs());
        fp.write_u8(self.label.is_abnormal() as u8);
        fp.write_f64(self.score);
        fp.write_f64(self.probability);
        fp.write_usize(self.strengths.len());
        for s in &self.strengths {
            fp.write_usize(s.attribute);
            fp.write_f64(s.strength);
        }
        fp.write_usize(self.predicted_states.len());
        for &state in &self.predicted_states {
            fp.write_usize(state);
        }
    }

    /// The FNV-1a 64 fingerprint of the whole prediction — the
    /// replacement for `format!("{self:?}")`-based audit strings on the
    /// predict leg.
    // xtask: hot-path
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint64::new();
        self.fingerprint_into(&mut fp);
        fp.finish()
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

    #[test]
    fn fingerprint_tracks_field_identity() {
        let base = prediction(Label::Abnormal);
        assert_eq!(
            base.fingerprint(),
            prediction(Label::Abnormal).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            prediction(Label::Normal).fingerprint(),
            "label (and the score it flips) must feed the hash"
        );
        let mut shifted = prediction(Label::Abnormal);
        shifted.at = Timestamp::from_secs(101);
        assert_ne!(base.fingerprint(), shifted.fingerprint());
        let mut rescored = prediction(Label::Abnormal);
        rescored.score = -0.0; // signed zero vs zero must differ from 0.0
        let mut zeroed = prediction(Label::Abnormal);
        zeroed.score = 0.0;
        assert_ne!(rescored.fingerprint(), zeroed.fingerprint());
        let mut truncated = prediction(Label::Abnormal);
        truncated.predicted_states.pop();
        assert_ne!(base.fingerprint(), truncated.fingerprint());
    }
}
