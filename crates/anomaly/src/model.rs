//! Selection between the two attribute value predictors.

use prepare_markov::{SimpleMarkov, StateDistribution, TwoDependentMarkov, ValuePredictor};
use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};

/// Which Markov model to use for attribute value prediction — the axis of
/// the Fig. 11 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MarkovKind {
    /// First-order chain (the authors' earlier system \[10\]).
    Simple,
    /// The paper's 2-dependent (combined-state) chain.
    #[default]
    TwoDependent,
}

/// A value predictor of either kind, chosen at model-build time.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueModel {
    /// First-order chain.
    Simple(SimpleMarkov),
    /// Combined-state second-order chain.
    TwoDependent(TwoDependentMarkov),
}

impl ValueModel {
    /// Creates an untrained model of `kind` over `n` states.
    pub fn new(kind: MarkovKind, n: usize) -> Self {
        match kind {
            MarkovKind::Simple => ValueModel::Simple(SimpleMarkov::new(n)),
            MarkovKind::TwoDependent => ValueModel::TwoDependent(TwoDependentMarkov::new(n)),
        }
    }

    /// The kind of this model.
    pub fn kind(&self) -> MarkovKind {
        match self {
            ValueModel::Simple(_) => MarkovKind::Simple,
            ValueModel::TwoDependent(_) => MarkovKind::TwoDependent,
        }
    }

    /// The underlying model's naive (non-snapshot) prediction path —
    /// bit-identical to [`ValuePredictor::predict`] but re-deriving every
    /// transition row per step. The referee of
    /// `AnomalyPredictor::predict_horizons_reference`.
    #[cfg(test)]
    pub fn predict_reference(&self, steps: usize) -> StateDistribution {
        let d = match self {
            ValueModel::Simple(m) => m.predict_reference(steps),
            ValueModel::TwoDependent(m) => m.predict_reference(steps),
        };
        prepare_metrics::debug_assert_all_finite!(d.as_slice());
        d
    }
}

impl Persist for MarkovKind {
    fn store(&self, w: &mut Writer) {
        w.put_u8(match self {
            MarkovKind::Simple => 0,
            MarkovKind::TwoDependent => 1,
        });
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(MarkovKind::Simple),
            1 => Ok(MarkovKind::TwoDependent),
            tag => Err(PersistError::BadTag {
                what: "MarkovKind",
                tag,
            }),
        }
    }
}

impl Persist for ValueModel {
    fn store(&self, w: &mut Writer) {
        match self {
            ValueModel::Simple(m) => {
                w.put_u8(0);
                m.store(w);
            }
            ValueModel::TwoDependent(m) => {
                w.put_u8(1);
                m.store(w);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(ValueModel::Simple(Persist::load(r)?)),
            1 => Ok(ValueModel::TwoDependent(Persist::load(r)?)),
            tag => Err(PersistError::BadTag {
                what: "ValueModel",
                tag,
            }),
        }
    }
}

impl ValuePredictor for ValueModel {
    fn n_states(&self) -> usize {
        match self {
            ValueModel::Simple(m) => m.n_states(),
            ValueModel::TwoDependent(m) => m.n_states(),
        }
    }

    fn observe(&mut self, state: usize) {
        match self {
            ValueModel::Simple(m) => m.observe(state),
            ValueModel::TwoDependent(m) => m.observe(state),
        }
    }

    fn predict_multi(&self, steps: &[usize]) -> Vec<StateDistribution> {
        match self {
            ValueModel::Simple(m) => m.predict_multi(steps),
            ValueModel::TwoDependent(m) => m.predict_multi(steps),
        }
    }

    fn reset_position(&mut self) {
        match self {
            ValueModel::Simple(m) => m.reset_position(),
            ValueModel::TwoDependent(m) => m.reset_position(),
        }
    }

    fn observations(&self) -> usize {
        match self {
            ValueModel::Simple(m) => m.observations(),
            ValueModel::TwoDependent(m) => m.observations(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips() {
        assert_eq!(
            ValueModel::new(MarkovKind::Simple, 3).kind(),
            MarkovKind::Simple
        );
        assert_eq!(
            ValueModel::new(MarkovKind::TwoDependent, 3).kind(),
            MarkovKind::TwoDependent
        );
    }

    #[test]
    fn delegates_observe_and_predict() {
        for kind in [MarkovKind::Simple, MarkovKind::TwoDependent] {
            let mut m = ValueModel::new(kind, 4);
            for i in 0..40 {
                m.observe(i % 4);
            }
            assert_eq!(m.observations(), 40);
            assert!(m.predict(3).is_valid());
            m.reset_position();
            assert!(m.predict(0).is_valid());
        }
    }

    #[test]
    fn default_kind_is_two_dependent() {
        assert_eq!(MarkovKind::default(), MarkovKind::TwoDependent);
    }

    #[test]
    fn persist_round_trips_both_kinds_with_anchor() {
        for kind in [MarkovKind::Simple, MarkovKind::TwoDependent] {
            let mut m = ValueModel::new(kind, 5);
            for i in 0..60 {
                m.observe((i * 2 + i / 7) % 5);
            }
            let bytes = prepare_metrics::persist::to_bytes(&m);
            let mut restored: ValueModel = prepare_metrics::persist::from_bytes(&bytes).unwrap();
            assert_eq!(restored, m, "kind {kind:?}");
            // Persist keeps the mid-stream anchor: predictions continue
            // identically without re-observing.
            assert_eq!(
                restored.predict(2).as_slice(),
                m.predict(2).as_slice(),
                "kind {kind:?}"
            );
            restored.observe(3);
            m.observe(3);
            assert_eq!(restored, m);
        }
    }

    #[test]
    fn persist_rejects_unknown_model_tag() {
        let m = ValueModel::new(MarkovKind::Simple, 3);
        let mut bytes = prepare_metrics::persist::to_bytes(&m);
        bytes[0] = 7;
        assert!(prepare_metrics::persist::from_bytes::<ValueModel>(&bytes).is_err());
    }
}
