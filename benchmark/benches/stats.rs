//! Order statistics for timing samples, and the run digest.
//!
//! Percentiles reuse the program's nearest-rank
//! [`prepare_metrics::percentile`]; the quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), which is
//! what the acceptance driver computes its spreads with, so the
//! quartiles a run prints can be held against the driver's.

use prepare_metrics::Fingerprint64;

pub use prepare_metrics::percentile;

/// Median with the middle pair averaged; `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// `(q1, q2, q3)` as `statistics.quantiles(xs, n=4)` gives them.
///
/// # Panics
///
/// Panics on fewer than two values (Python raises there too).
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two values");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ld = sorted.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// FNV-1a digest over rendered text: the correctness check every run
/// prints. Equal seeds must give equal digests across runs, passes and
/// worker counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Digest(Fingerprint64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest(Fingerprint64::new())
    }

    /// Folds the `Debug` rendering of `value` (exact for `f64`: the
    /// shortest round-trip form).
    pub fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.0.write_bytes(format!("{value:?}").as_bytes());
    }

    /// Folds one word.
    pub fn word(&mut self, w: u64) {
        self.0.write_u64(w);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}
