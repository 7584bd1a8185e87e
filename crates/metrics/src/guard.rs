//! Debug-only finiteness guards for probability and score paths.
//!
//! PREPARE's control loop is built out of probabilities, entropies and
//! anomaly scores — all of which silently absorb an `inf`/`NaN` minted
//! by a zero denominator or a log of zero and then propagate it through
//! every downstream decision. The macros here make that failure loud in
//! debug and test builds while compiling to the bare expression in
//! release builds, so the benchmark hot paths pay nothing.
//!
//! Both macros evaluate to their argument's value, so they wrap tail
//! expressions in place:
//!
//! ```
//! use prepare_metrics::debug_assert_finite;
//!
//! fn mean(sum: f64, n: usize) -> f64 {
//!     debug_assert_finite!(sum / n.max(1) as f64)
//! }
//! assert_eq!(mean(6.0, 3), 2.0);
//! ```
//!
//! `cargo xtask lint`'s nan-safety rules recognise these guards: a
//! division, `.ln()` or float→int cast inside a function whose body
//! passes through `debug_assert_finite!`/`debug_assert_all_finite!`
//! (or an explicit `is_finite`/`is_nan` check) is considered guarded.

/// Asserts (debug builds only) that a scalar float expression is
/// finite, then evaluates to that value.
///
/// The message names the offending expression, so a failure points at
/// the exact normalization or score that went non-finite.
#[macro_export]
macro_rules! debug_assert_finite {
    ($e:expr) => {{
        let value = $e;
        debug_assert!(
            value.is_finite(),
            "non-finite value from `{}`: {}",
            stringify!($e),
            value,
        );
        value
    }};
}

/// Asserts (debug builds only) that every float yielded by an iterable
/// expression is finite, then evaluates to the iterable itself.
///
/// Works on anything with an `iter()` over `f64`s — slices, arrays,
/// `Vec`s — without consuming it.
#[macro_export]
macro_rules! debug_assert_all_finite {
    ($e:expr) => {{
        let value = $e;
        debug_assert!(
            value.iter().all(|v| v.is_finite()),
            "non-finite value in `{}`",
            stringify!($e),
        );
        value
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn passes_finite_values_through() {
        assert_eq!(debug_assert_finite!(1.5_f64 + 2.5), 4.0);
        let v = debug_assert_all_finite!(vec![0.0_f64, 1.0]);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn works_as_a_tail_expression() {
        fn mean(sum: f64, n: usize) -> f64 {
            debug_assert_finite!(sum / n.max(1) as f64)
        }
        assert_eq!(mean(9.0, 3), 3.0);
        assert_eq!(mean(0.0, 0), 0.0);
    }

    // The assertion is a `debug_assert!`: a release build has none to trip.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite value")]
    fn catches_nan_in_debug_builds() {
        let _ = debug_assert_finite!(f64::NAN);
    }

    // The assertion is a `debug_assert!`: a release build has none to trip.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite value in")]
    fn catches_inf_in_slices() {
        let _ = debug_assert_all_finite!([0.0_f64, f64::INFINITY]);
    }
}
