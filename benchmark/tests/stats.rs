//! Percentile and quartile helpers on vectors whose answers are
//! known — the quartiles from Python's `statistics.quantiles(xs, n=4)`,
//! which the acceptance driver uses.

use prepare_benchmark::stats::{median, percentile, quartiles, Digest};

#[test]
fn median_averages_the_middle_pair() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn percentile_is_nearest_rank() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 0.0), 1.0);
    assert_eq!(percentile(&xs, 50.0), 51.0);
    assert_eq!(percentile(&xs, 95.0), 95.0);
    assert_eq!(percentile(&xs, 100.0), 100.0);
    // Order of the input does not matter.
    let mut shuffled = xs.clone();
    shuffled.reverse();
    assert_eq!(percentile(&shuffled, 95.0), 95.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
    assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
    // Two values: the exclusive method extrapolates past both.
    assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 15.0, 22.5));
    // >>> statistics.quantiles([3.1, 2.9, 3.0, 3.4, 2.7, 3.2, 3.3, 2.8, 3.0, 3.1], n=4)
    // [2.875, 3.05, 3.225]
    let (q1, q2, q3) = quartiles(&[3.1, 2.9, 3.0, 3.4, 2.7, 3.2, 3.3, 2.8, 3.0, 3.1]);
    assert!((q1 - 2.875).abs() < 1e-12, "{q1}");
    assert!((q2 - 3.05).abs() < 1e-12, "{q2}");
    assert!((q3 - 3.225).abs() < 1e-12, "{q3}");
}

#[test]
#[should_panic(expected = "at least two values")]
fn quartiles_of_one_value_panic() {
    quartiles(&[1.0]);
}

#[test]
fn digest_tells_order_and_boundaries_apart() {
    let of = |parts: &[&str]| {
        let mut d = Digest::new();
        for p in parts {
            d.debug(p);
        }
        d.finish()
    };
    assert_eq!(of(&["ab", "c"]), of(&["ab", "c"]));
    assert_ne!(of(&["ab", "c"]), of(&["a", "bc"]));
    assert_ne!(of(&["ab", "c"]), of(&["c", "ab"]));
    // f64 renders exactly: the smallest difference changes the digest.
    let mut a = Digest::new();
    a.debug(&0.1f64);
    let mut b = Digest::new();
    b.debug(&f64::from_bits(0.1f64.to_bits() + 1));
    assert_ne!(a.finish(), b.finish());
}
