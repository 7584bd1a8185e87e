//! Runtime invariant checks for predicted state distributions, compiled
//! to no-ops in release builds (`debug_assert!`-backed). Tests always run
//! with `debug_assertions`, so every prediction made under test is
//! audited for probabilistic sanity.
//!
//! The single invariant: any probability vector a predictor hands out is
//! a genuine distribution — every entry finite and non-negative, and the
//! total mass equal to 1 within `1e-9`.

/// Tolerance on the total probability mass.
const MASS_EPS: f64 = 1e-9;

/// Asserts `probs` is a normalized probability vector. Debug builds only.
pub(crate) fn debug_assert_normalized(probs: &[f64], context: &str) {
    if !cfg!(debug_assertions) {
        return;
    }
    debug_assert!(
        !probs.is_empty(),
        "invariant[{context}]: empty distribution"
    );
    for (i, &p) in probs.iter().enumerate() {
        debug_assert!(
            p.is_finite() && p >= 0.0,
            "invariant[{context}]: probs[{i}] = {p} is not a probability"
        );
    }
    let sum: f64 = probs.iter().sum();
    debug_assert!(
        (sum - 1.0).abs() <= MASS_EPS,
        "invariant[{context}]: mass sums to {sum}, expected 1 ± {MASS_EPS}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_vector_passes() {
        debug_assert_normalized(&[0.25, 0.25, 0.5], "test");
    }

    // The assertion is a `debug_assert!`: a release build has none to trip.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "mass sums to")]
    fn unnormalized_vector_panics_in_debug() {
        debug_assert_normalized(&[0.5, 0.6], "test");
    }

    // The assertion is a `debug_assert!`: a release build has none to trip.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not a probability")]
    fn negative_mass_panics_in_debug() {
        debug_assert_normalized(&[1.5, -0.5], "test");
    }
}
