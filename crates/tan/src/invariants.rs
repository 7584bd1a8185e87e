//! Runtime invariant checks for fitted probability tables, compiled to
//! no-ops in release builds (`debug_assert!`-backed). Tests always run
//! with `debug_assertions`, so every classifier fitted under test has its
//! tables audited.
//!
//! The single invariant: every conditional probability table row —
//! `P(a_i = · | C)` for root attributes, `P(a_i = · | a_p = u, C)` for
//! tree edges — is row-stochastic: finite log-probabilities whose
//! exponentials sum to 1 within `1e-9`. Laplace smoothing guarantees this
//! analytically; the check catches regressions in the counting or
//! normalization code.

/// Tolerance on the row mass after exponentiation.
const MASS_EPS: f64 = 1e-9;

/// Asserts one CPT row (log-probabilities) is row-stochastic. Debug
/// builds only.
pub(crate) fn debug_assert_row_stochastic(log_row: &[f64], context: &str) {
    if !cfg!(debug_assertions) {
        return;
    }
    debug_assert!(!log_row.is_empty(), "invariant[{context}]: empty CPT row");
    for (v, &lp) in log_row.iter().enumerate() {
        debug_assert!(
            lp.is_finite() && lp <= 0.0 + MASS_EPS,
            "invariant[{context}]: log P(v={v}) = {lp} is not a log-probability"
        );
    }
    let mass: f64 = log_row.iter().map(|lp| lp.exp()).sum();
    debug_assert!(
        (mass - 1.0).abs() <= MASS_EPS,
        "invariant[{context}]: row mass is {mass}, expected 1 ± {MASS_EPS}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stochastic_row_passes() {
        debug_assert_row_stochastic(&[0.5f64.ln(), 0.25f64.ln(), 0.25f64.ln()], "test");
    }

    // The assertion is a `debug_assert!`: a release build has none to trip.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "row mass")]
    fn leaky_row_panics_in_debug() {
        debug_assert_row_stochastic(&[0.5f64.ln(), 0.25f64.ln()], "test");
    }

    // The assertion is a `debug_assert!`: a release build has none to trip.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not a log-probability")]
    fn non_finite_entry_panics_in_debug() {
        debug_assert_row_stochastic(&[f64::NEG_INFINITY, 0.0], "test");
    }
}
