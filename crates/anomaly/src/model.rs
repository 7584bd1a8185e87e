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

    /// Serializes the chain's state; its kind and state count are the
    /// owner's to supply on load.
    pub fn store_state(&self, w: &mut Writer) {
        match self {
            ValueModel::Simple(m) => m.store_state(w),
            ValueModel::TwoDependent(m) => m.store_state(w),
        }
    }

    /// Restores a chain of `kind` over `n` states written by
    /// [`ValueModel::store_state`].
    ///
    /// # Errors
    ///
    /// The chain loader's.
    pub fn load_state(
        r: &mut Reader<'_>,
        kind: MarkovKind,
        n: usize,
    ) -> Result<Self, PersistError> {
        Ok(match kind {
            MarkovKind::Simple => ValueModel::Simple(SimpleMarkov::load_state(r, n)?),
            MarkovKind::TwoDependent => {
                ValueModel::TwoDependent(TwoDependentMarkov::load_state(r, n)?)
            }
        })
    }

    /// Serializes the chain's trained half: its count rows and `alpha`.
    pub fn store_trained(&self, w: &mut Writer) {
        match self {
            ValueModel::Simple(m) => m.store_trained(w),
            ValueModel::TwoDependent(m) => m.store_trained(w),
        }
    }

    /// Serializes the chain's live half: its position, observation count
    /// and, when `touched_rows` is set, the count rows bumped since
    /// [`ValueModel::clear_marks`].
    pub fn store_live(&self, w: &mut Writer, touched_rows: bool) {
        match self {
            ValueModel::Simple(m) => m.store_live(w, touched_rows),
            ValueModel::TwoDependent(m) => m.store_live(w, touched_rows),
        }
    }

    /// Restores a chain's trained half of `kind` over `n` states written
    /// by [`ValueModel::store_trained`].
    ///
    /// # Errors
    ///
    /// The chain loader's.
    pub fn load_trained(
        r: &mut Reader<'_>,
        kind: MarkovKind,
        n: usize,
    ) -> Result<Self, PersistError> {
        Ok(match kind {
            MarkovKind::Simple => ValueModel::Simple(SimpleMarkov::load_trained(r, n)?),
            MarkovKind::TwoDependent => {
                ValueModel::TwoDependent(TwoDependentMarkov::load_trained(r, n)?)
            }
        })
    }

    /// Reads a live half written by [`ValueModel::store_live`] over this
    /// trained half.
    ///
    /// # Errors
    ///
    /// The chain loader's.
    pub fn load_live(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        match self {
            ValueModel::Simple(m) => m.load_live(r),
            ValueModel::TwoDependent(m) => m.load_live(r),
        }
    }

    /// Clears the marks of the chain's count rows.
    pub fn clear_marks(&mut self) {
        match self {
            ValueModel::Simple(m) => m.clear_marks(),
            ValueModel::TwoDependent(m) => m.clear_marks(),
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

impl ValuePredictor for ValueModel {
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
    fn state_round_trips_both_kinds_with_anchor() {
        for kind in [MarkovKind::Simple, MarkovKind::TwoDependent] {
            let mut m = ValueModel::new(kind, 5);
            for i in 0..60 {
                m.observe((i * 2 + i / 7) % 5);
            }
            let mut w = Writer::new();
            m.store_state(&mut w);
            let mut r = Reader::new(w.bytes());
            let mut restored = ValueModel::load_state(&mut r, kind, 5).unwrap();
            assert!(r.is_exhausted(), "kind {kind:?}");
            assert_eq!(restored, m, "kind {kind:?}");
            // The state keeps the mid-stream anchor: predictions continue
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
}
