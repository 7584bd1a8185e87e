//! CPT normalization property tests: every conditional probability table
//! row of a trained TAN classifier is row-stochastic — the exponentials
//! of a `P(a_i | [a_p,] C)` log-probability row sum to exactly 1 within
//! `1e-9` — for arbitrary proptest-generated datasets. Laplace smoothing
//! must guarantee this even for `(class, parent value)` contexts the
//! training data never exercised.

use prepare_metrics::Label;
use prepare_tan::{Classifier, Dataset, TanClassifier};
use proptest::prelude::*;

/// Tolerance on each row's total probability mass.
const MASS_EPS: f64 = 1e-9;

#[expect(
    clippy::expect_used,
    reason = "the strategy draws every row within the schema"
)]
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (2usize..6, 2usize..5, 10usize..120).prop_flat_map(|(attrs, bins, rows)| {
        proptest::collection::vec(
            (
                proptest::collection::vec(0usize..bins, attrs),
                any::<bool>(),
            ),
            rows,
        )
        .prop_map(move |data| {
            let mut ds = Dataset::with_uniform_bins(attrs, bins);
            for (row, abnormal) in data {
                ds.push(row, Label::from_violation(abnormal))
                    .expect("rows generated within the schema");
            }
            ds
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Every CPT row — root tables P(a_i | C) and edge tables
    // P(a_i | a_p = u, C) for both classes and all parent values — holds
    // exactly one unit of probability mass.
    #[test]
    fn every_cpt_row_is_row_stochastic(ds in arb_dataset()) {
        prop_assume!(ds.has_both_classes());
        let tan = TanClassifier::train(&ds).expect("both classes present");
        let rows = tan.log_cpt_rows();
        prop_assert!(!rows.is_empty());
        for (i, row) in rows.iter().enumerate() {
            let mut mass = 0.0;
            for (v, &lp) in row.iter().enumerate() {
                let p = lp.exp();
                prop_assert!(
                    lp.is_finite() && lp <= 0.0 + MASS_EPS,
                    "row {i}: log-prob[{v}] = {lp} is not a log-probability"
                );
                prop_assert!(p > 0.0, "row {i}: smoothing must keep p[{v}] positive");
                mass += p;
            }
            prop_assert!(
                (mass - 1.0).abs() <= MASS_EPS,
                "row {i} mass sums to {mass}, expected 1 ± {MASS_EPS}"
            );
        }
    }

    // Row count accounting: one row per (attribute, class[, parent value])
    // combination. Guards the accessor itself against silently skipping
    // tables — a skipped table would vacuously pass the mass test above.
    #[test]
    fn cpt_row_count_matches_structure(ds in arb_dataset()) {
        prop_assume!(ds.has_both_classes());
        let tan = TanClassifier::train(&ds).expect("both classes present");
        let expected: usize = tan
            .parents()
            .iter()
            .map(|p| match p {
                None => 2,
                Some(parent) => 2 * ds.cardinality(*parent),
            })
            .sum();
        prop_assert_eq!(tan.log_cpt_rows().len(), expected);
    }
}
