//! Attribute value prediction via Markov chain models (paper §II-B, Fig. 2).
//!
//! PREPARE predicts each monitored attribute's *future* value distribution
//! and then classifies the predicted values. Two predictors are provided:
//!
//! - [`SimpleMarkov`]: the first-order baseline from the authors' earlier
//!   work \[10\] — the next state depends only on the current state.
//! - [`TwoDependentMarkov`]: the paper's contribution — transitions depend
//!   on the *current and previous* state (a second-order chain realized as
//!   a first-order chain over combined `(prev, cur)` states, Fig. 2). This
//!   converts non-Markovian attributes (e.g. a sinusoid, where the slope
//!   disambiguates the future) into Markovian ones.
//!
//! Both implement [`ValuePredictor`]: feed discretized observations with
//! [`ValuePredictor::observe`], then ask for the state distributions at
//! one or more horizons with [`ValuePredictor::predict_multi`]
//! ([`ValuePredictor::predict`] is its one-horizon form).
//!
//! # Example
//!
//! ```
//! use prepare_markov::{TwoDependentMarkov, ValuePredictor};
//!
//! // A period-2 oscillation: 0,1,0,1,...
//! let mut m = TwoDependentMarkov::new(3);
//! for i in 0..100 {
//!     m.observe(i % 2);
//! }
//! let dist = m.predict(1);
//! assert_eq!(dist.most_likely(), 0); // last seen 1 → next 0
//! ```

mod distribution;
mod invariants;
mod simple;
mod snapshot;
mod two_dep;

pub use distribution::StateDistribution;
pub use simple::SimpleMarkov;
pub use two_dep::TwoDependentMarkov;

/// A discretized-value predictor for a single attribute.
///
/// Implementations learn online from a stream of bin indices and predict
/// the distribution over bins a configurable number of sampling steps into
/// the future — the "attribute value prediction" half of PREPARE's anomaly
/// predictor.
pub trait ValuePredictor {
    /// Feeds the next observed state, updating both the transition
    /// statistics and the predictor's current position.
    ///
    /// # Panics
    ///
    /// Implementations panic if `state` is not below the state count.
    fn observe(&mut self, state: usize);

    /// Distributions over states after each of several step counts from
    /// the current position, one per entry in the order given (duplicates
    /// allowed, empty in → empty out). `0` steps is a point mass on the
    /// current state (uniform if nothing has been observed yet).
    ///
    /// The one propagation path of a chain: a single pass emits each
    /// requested horizon's marginal as the iteration passes it, instead of
    /// restarting from step 0 per horizon.
    fn predict_multi(&self, steps: &[usize]) -> Vec<StateDistribution>;

    /// Distribution over states after `steps` transitions from the current
    /// position: [`ValuePredictor::predict_multi`] with one horizon.
    fn predict(&self, steps: usize) -> StateDistribution {
        self.predict_multi(&[steps]).swap_remove(0)
    }

    /// Forgets the current position (history) while keeping the learned
    /// transition statistics. Used when a model is re-anchored onto a new
    /// stream (e.g. trace-driven replay).
    fn reset_position(&mut self);

    /// Number of observations consumed so far.
    fn observations(&self) -> usize;
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn simple_predictions_are_distributions(
            seq in proptest::collection::vec(0usize..5, 1..200),
            steps in 0usize..20,
        ) {
            let mut m = SimpleMarkov::new(5);
            for &s in &seq {
                m.observe(s);
            }
            let d = m.predict(steps);
            prop_assert!(d.is_valid());
        }

        #[test]
        fn two_dep_predictions_are_distributions(
            seq in proptest::collection::vec(0usize..4, 1..200),
            steps in 0usize..20,
        ) {
            let mut m = TwoDependentMarkov::new(4);
            for &s in &seq {
                m.observe(s);
            }
            let d = m.predict(steps);
            prop_assert!(d.is_valid());
        }

        #[test]
        fn zero_steps_is_point_mass_on_current(
            seq in proptest::collection::vec(0usize..6, 1..50),
        ) {
            let mut m = SimpleMarkov::new(6);
            let mut m2 = TwoDependentMarkov::new(6);
            for &s in &seq {
                m.observe(s);
                m2.observe(s);
            }
            let last = *seq.last().unwrap();
            prop_assert_eq!(m.predict(0).most_likely(), last);
            prop_assert_eq!(m2.predict(0).most_likely(), last);
            prop_assert!((m.predict(0).probability(last) - 1.0).abs() < 1e-12);
        }

        // Tentpole referee: the snapshot-based hot path must be
        // bit-for-bit equal to the kept naive reference — same f64s, not
        // merely close — across random chains, positions, and step
        // counts. Low state visit probability plus n=5 guarantees many
        // never-seen (prev, cur) fallback rows are exercised.
        #[test]
        fn simple_snapshot_predict_is_bit_identical_to_reference(
            seq in proptest::collection::vec(0usize..5, 0..120),
            steps in 0usize..25,
        ) {
            let mut m = SimpleMarkov::new(5);
            for &s in &seq {
                m.observe(s);
            }
            prop_assert_eq!(m.predict(steps), m.predict_reference(steps));
        }

        #[test]
        fn two_dep_snapshot_predict_is_bit_identical_to_reference(
            seq in proptest::collection::vec(0usize..5, 0..120),
            steps in 0usize..25,
        ) {
            let mut m = TwoDependentMarkov::new(5);
            for &s in &seq {
                m.observe(s);
            }
            prop_assert_eq!(m.predict(steps), m.predict_reference(steps));
        }

        // The single-pass multi-horizon propagation must emit exactly the
        // per-horizon `predict` results (which are themselves proven
        // against the reference above) — including duplicate and unsorted
        // horizons, the 0-step edge, and the 1-observation anchor. The
        // horizon strategy draws 0 about a third of the time, so the
        // shared loop's edge cases come up: an empty horizon list, and 0
        // repeated among (or without) later horizons.
        #[test]
        fn predict_multi_matches_per_horizon_predict(
            seq in proptest::collection::vec(0usize..4, 0..80),
            steps in proptest::collection::vec(
                (0usize..30).prop_map(|s| s.saturating_sub(10)),
                0..6,
            ),
        ) {
            let mut simple = SimpleMarkov::new(4);
            let mut twodep = TwoDependentMarkov::new(4);
            for &s in &seq {
                simple.observe(s);
                twodep.observe(s);
            }
            let expect_simple: Vec<_> =
                steps.iter().map(|&s| simple.predict_reference(s)).collect();
            let expect_twodep: Vec<_> =
                steps.iter().map(|&s| twodep.predict_reference(s)).collect();
            prop_assert_eq!(simple.predict_multi(&steps), expect_simple);
            prop_assert_eq!(twodep.predict_multi(&steps), expect_twodep);
        }

        // A jump into a never-trained state anchors prediction on unseen
        // (prev, cur) rows — the fallback-heavy path must stay
        // bit-identical too.
        #[test]
        fn unseen_anchor_rows_are_bit_identical(
            seq in proptest::collection::vec(0usize..2, 1..60),
            steps in 0usize..15,
        ) {
            let mut m = TwoDependentMarkov::new(4);
            for &s in &seq {
                m.observe(s);
            }
            m.observe(3); // (seen, 3) never trained
            prop_assert_eq!(m.predict(steps), m.predict_reference(steps));
            let horizons = [0usize, steps, steps / 2];
            let expect: Vec<_> =
                horizons.iter().map(|&s| m.predict_reference(s)).collect();
            prop_assert_eq!(m.predict_multi(&horizons), expect);
        }

        #[test]
        fn deterministic_cycle_predicted_exactly(
            n in 2usize..6,
            steps in 1usize..12,
        ) {
            // 0,1,..,n-1,0,1,... A deterministic cycle is first-order
            // Markovian; both models must predict it with certainty.
            let mut m = SimpleMarkov::new(n);
            let mut m2 = TwoDependentMarkov::new(n);
            let mut last = 0;
            for i in 0..(n * 50) {
                last = i % n;
                m.observe(last);
                m2.observe(last);
            }
            let expected = (last + steps) % n;
            prop_assert_eq!(m.predict(steps).most_likely(), expected);
            prop_assert_eq!(m2.predict(steps).most_likely(), expected);
            prop_assert!(m.predict(steps).probability(expected) > 0.9);
            prop_assert!(m2.predict(steps).probability(expected) > 0.9);
        }
    }
}
