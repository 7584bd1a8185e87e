//! Probability distributions over discretized attribute states.

use prepare_metrics::{debug_assert_all_finite, debug_assert_finite};
use std::fmt;

/// A probability distribution over the discrete states (bins) of one
/// attribute — the output of a [`crate::ValuePredictor`].
#[derive(Debug, Clone, PartialEq)]
pub struct StateDistribution {
    probs: Vec<f64>,
}

impl StateDistribution {
    /// Uniform distribution over `n` states.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "distribution needs at least one state");
        let p = debug_assert_finite!(1.0 / n as f64);
        let d = StateDistribution { probs: vec![p; n] };
        crate::invariants::debug_assert_normalized(&d.probs, "StateDistribution::uniform");
        d
    }

    /// Point mass on `state` among `n` states.
    ///
    /// # Panics
    ///
    /// Panics if `state >= n`.
    pub fn point(n: usize, state: usize) -> Self {
        assert!(state < n, "state {state} out of range (n={n})");
        let mut probs: Vec<f64> = vec![0.0; n];
        probs[state] = 1.0;
        StateDistribution {
            probs: debug_assert_all_finite!(probs),
        }
    }

    /// Builds from raw weights, normalizing. Falls back to uniform when the
    /// weights sum to (near) zero.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains a negative/non-finite value.
    pub fn from_weights(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        if total < 1e-12 {
            return StateDistribution::uniform(weights.len());
        }
        let d = StateDistribution {
            probs: weights.into_iter().map(|w| w / total).collect(),
        };
        crate::invariants::debug_assert_normalized(&d.probs, "StateDistribution::from_weights");
        d
    }

    /// Wraps an already-normalized probability vector without dividing
    /// again. The snapshot propagation path keeps its scratch buffer
    /// normalized with [`crate::snapshot::normalize_in_place`] (the exact
    /// [`StateDistribution::from_weights`] arithmetic); renormalizing here
    /// would divide by a sum of ≈ 1.0 and perturb the last bit, breaking
    /// bit-identity with the reference path.
    pub(crate) fn from_probs(probs: Vec<f64>) -> Self {
        let d = StateDistribution { probs };
        crate::invariants::debug_assert_normalized(&d.probs, "StateDistribution::from_probs");
        d
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Always false: distributions are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Probability of `state` (0 when out of range).
    pub fn probability(&self, state: usize) -> f64 {
        debug_assert_finite!(self.probs.get(state).copied().unwrap_or(0.0))
    }

    /// The raw probability vector.
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }

    /// Most likely state (smallest index wins ties).
    pub fn most_likely(&self) -> usize {
        let mut best = 0;
        let mut best_p = f64::NEG_INFINITY;
        for (i, &p) in self.probs.iter().enumerate() {
            if p > best_p {
                best_p = p;
                best = i;
            }
        }
        best
    }

    /// Expected state index.
    pub fn expected_state(&self) -> f64 {
        debug_assert_finite!(self
            .probs
            .iter()
            .enumerate()
            .map(|(i, p)| i as f64 * p)
            .sum::<f64>())
    }

    /// The discrete bin the expected state falls in: [`Self::expected_state`]
    /// rounded to the nearest index and clamped to `bins - 1`. Asserts
    /// (debug builds) that the expectation is finite before truncating,
    /// so a NaN can never silently collapse to bin 0.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn expected_bin(&self, bins: usize) -> usize {
        let e = debug_assert_finite!(self.expected_state());
        (e.round() as usize).min(bins - 1)
    }

    /// True when every probability is finite, non-negative, and the vector
    /// sums to 1 within tolerance.
    pub fn is_valid(&self) -> bool {
        let ok = self.probs.iter().all(|p| p.is_finite() && *p >= -1e-12);
        let sum: f64 = self.probs.iter().sum();
        ok && (sum - 1.0).abs() < 1e-6
    }

    /// Shannon entropy in bits — a confidence signal (0 for a point mass).
    pub fn entropy(&self) -> f64 {
        debug_assert_finite!(-self
            .probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.log2())
            .sum::<f64>())
    }
}

impl fmt::Display for StateDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, p) in self.probs.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{p:.3}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_valid() {
        let d = StateDistribution::uniform(4);
        assert!(d.is_valid());
        assert_eq!(d.probability(0), 0.25);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn point_mass() {
        let d = StateDistribution::point(5, 3);
        assert!(d.is_valid());
        assert_eq!(d.most_likely(), 3);
        assert_eq!(d.entropy(), 0.0);
        assert_eq!(d.expected_state(), 3.0);
    }

    #[test]
    fn from_weights_normalizes() {
        let d = StateDistribution::from_weights(vec![2.0, 2.0, 4.0]);
        assert!(d.is_valid());
        assert_eq!(d.probability(2), 0.5);
        assert_eq!(d.most_likely(), 2);
    }

    #[test]
    fn zero_weights_fall_back_to_uniform() {
        let d = StateDistribution::from_weights(vec![0.0, 0.0]);
        assert!(d.is_valid());
        assert_eq!(d.probability(0), 0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        let _ = StateDistribution::from_weights(vec![1.0, -1.0]);
    }

    #[test]
    fn entropy_of_uniform_is_log2_n() {
        let d = StateDistribution::uniform(8);
        assert!((d.entropy() - 3.0).abs() < 1e-12);
    }
}
