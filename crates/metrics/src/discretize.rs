//! Equal-width discretization of continuous metrics.
//!
//! Both learning components operate on discrete states: the Markov value
//! predictors model transitions between value bins (paper Fig. 2 shows an
//! attribute "discretized into three single states"), and the TAN
//! classifier estimates conditional probability tables over discrete
//! attribute values. The paper does not commit to a bin count; we default
//! to 10 and expose it as a parameter (swept in tests / ablations).

use crate::persist::{PersistError, Reader, Writer};
use crate::{AttributeKind, MetricVector, TimeSeries, ATTRIBUTE_COUNT};

/// A discretized metric vector: one bin index per attribute, in canonical
/// attribute order.
pub type DiscreteVector = Vec<usize>;

/// Equal-width binning for one attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Discretizer {
    lo: f64,
    hi: f64,
    bins: usize,
}

impl Discretizer {
    /// Creates a discretizer mapping `[lo, hi]` onto `bins` equal-width
    /// bins. Values outside the range clamp to the first/last bin, which is
    /// what lets a model trained on one fault generalize to slightly more
    /// extreme manifestations of the same fault.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo`/`hi` are not finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "bin count must be positive");
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        Discretizer { lo, hi, bins }
    }

    /// Fits the range from observed values, widened by `margin` times the
    /// observed span on each side. Unsupervised detectors need headroom:
    /// with a zero-margin fit, values beyond anything seen clamp into the
    /// outermost *occupied* bins and become indistinguishable from normal
    /// extremes.
    pub fn fit_with_margin(values: &[f64], bins: usize, margin: f64) -> Self {
        assert!(margin.is_finite() && margin >= 0.0, "margin must be >= 0");
        let base = Self::fit(values, bins);
        // xtask-allow: float-eq -- margin 0.0 is an exact caller-provided sentinel for "no widening"
        if margin == 0.0 {
            return base;
        }
        let span = base.hi - base.lo;
        Discretizer::new(base.lo - margin * span, base.hi + margin * span, bins)
    }

    /// Fits the range from observed values. Degenerate (constant or empty)
    /// inputs produce a single-width range centered on the constant.
    pub fn fit(values: &[f64], bins: usize) -> Self {
        let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return Discretizer::new(0.0, 1.0, bins);
        }
        let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if (hi - lo).abs() < f64::EPSILON {
            Discretizer::new(lo - 0.5, lo + 0.5, bins)
        } else {
            Discretizer::new(lo, hi, bins)
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Lower bound of the fitted range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the fitted range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Bin index of `value`, clamped into `[0, bins)`. Non-finite values
    /// map to bin 0.
    pub fn discretize(&self, value: f64) -> usize {
        if !value.is_finite() {
            return 0;
        }
        if value <= self.lo {
            return 0;
        }
        if value >= self.hi {
            return self.bins - 1;
        }
        let width = (self.hi - self.lo) / self.bins as f64;
        (((value - self.lo) / width) as usize).min(self.bins - 1)
    }
}

/// Per-attribute discretizers for a full [`MetricVector`].
#[derive(Debug, Clone, PartialEq)]
pub struct VectorDiscretizer {
    per_attr: Vec<Discretizer>,
}

impl VectorDiscretizer {
    /// Fits one equal-width discretizer per attribute from a training
    /// series.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn fit(series: &TimeSeries, bins: usize) -> Self {
        let per_attr = AttributeKind::ALL
            .iter()
            .map(|&a| Discretizer::fit(&series.attribute_values(a), bins))
            .collect();
        VectorDiscretizer { per_attr }
    }

    /// Fits from bare metric vectors (no timestamps) — the same
    /// per-attribute fit as [`VectorDiscretizer::fit`], for callers that
    /// hold labeled vectors rather than a series.
    pub fn fit_vectors<'a>(
        vectors: impl IntoIterator<Item = &'a MetricVector>,
        bins: usize,
    ) -> Self {
        let mut merged: Vec<Vec<f64>> = vec![Vec::new(); ATTRIBUTE_COUNT];
        for v in vectors {
            for (vals, a) in merged.iter_mut().zip(AttributeKind::ALL) {
                vals.push(v.get(a));
            }
        }
        let per_attr = merged
            .iter()
            .map(|vals| Discretizer::fit(vals, bins))
            .collect();
        VectorDiscretizer { per_attr }
    }

    /// Fits with per-attribute range margin (see
    /// [`Discretizer::fit_with_margin`]).
    pub fn fit_with_margin(series: &TimeSeries, bins: usize, margin: f64) -> Self {
        let per_attr = AttributeKind::ALL
            .iter()
            .map(|&a| Discretizer::fit_with_margin(&series.attribute_values(a), bins, margin))
            .collect();
        VectorDiscretizer { per_attr }
    }

    /// The discretizer for attribute `a`.
    pub fn attribute(&self, a: AttributeKind) -> &Discretizer {
        &self.per_attr[a.index()]
    }

    /// Discretizes a full vector into bin indices (canonical order).
    pub fn discretize(&self, v: &MetricVector) -> DiscreteVector {
        AttributeKind::ALL
            .iter()
            .map(|&a| self.per_attr[a.index()].discretize(v.get(a)))
            .collect()
    }
}

impl Discretizer {
    fn store_state(&self, w: &mut Writer) {
        let Self {
            lo,
            hi,
            bins: _, // supplied by PrepareConfig on load
        } = *self;
        w.put_f64(lo);
        w.put_f64(hi);
    }
}

impl VectorDiscretizer {
    /// Serializes each attribute's fitted range, `lo` then `hi`, in
    /// canonical order; the bin count is the owner's to supply on load.
    pub fn store_state(&self, w: &mut Writer) {
        let Self { per_attr } = self;
        for d in per_attr {
            d.store_state(w);
        }
    }

    /// Restores a discretizer of `bins` (> 0) bins per attribute written
    /// by [`VectorDiscretizer::store_state`].
    ///
    /// # Errors
    ///
    /// A torn buffer, or a bound that is not finite or a range with
    /// `lo > hi`.
    pub fn load_state(r: &mut Reader<'_>, bins: usize) -> Result<Self, PersistError> {
        let per_attr = (0..ATTRIBUTE_COUNT)
            .map(|_| {
                let (lo, hi) = (r.get_f64()?, r.get_f64()?);
                if lo.is_finite() && hi.is_finite() && lo <= hi {
                    Ok(Discretizer::new(lo, hi, bins))
                } else {
                    Err(PersistError::Invalid("Discretizer bounds"))
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(VectorDiscretizer { per_attr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricSample, Timestamp};

    #[test]
    fn discretize_clamps_to_range() {
        let d = Discretizer::new(0.0, 100.0, 10);
        assert_eq!(d.discretize(-5.0), 0);
        assert_eq!(d.discretize(0.0), 0);
        assert_eq!(d.discretize(55.0), 5);
        assert_eq!(d.discretize(99.9), 9);
        assert_eq!(d.discretize(100.0), 9);
        assert_eq!(d.discretize(1e9), 9);
        assert_eq!(d.discretize(f64::NAN), 0);
    }

    #[test]
    fn fit_handles_constant_input() {
        let d = Discretizer::fit(&[7.0, 7.0, 7.0], 5);
        let b = d.discretize(7.0);
        assert!(b < 5);
    }

    #[test]
    fn fit_handles_empty_input() {
        let d = Discretizer::fit(&[], 4);
        assert_eq!(d.bins(), 4);
        let _ = d.discretize(0.5);
    }

    #[test]
    fn reversed_bounds_are_normalized() {
        let d = Discretizer::new(10.0, 0.0, 2);
        assert_eq!(d.lo(), 0.0);
        assert_eq!(d.hi(), 10.0);
    }

    #[test]
    fn margin_reserves_headroom_bins() {
        let values: Vec<f64> = (0..50).map(|i| 40.0 + (i % 5) as f64).collect();
        let tight = Discretizer::fit(&values, 10);
        let wide = Discretizer::fit_with_margin(&values, 10, 1.0);
        // A far-out value is indistinguishable from the max under a tight
        // fit but lands in a reserved outer bin with margin.
        assert_eq!(tight.discretize(100.0), tight.discretize(44.0));
        assert!(wide.discretize(100.0) > wide.discretize(44.0));
        // Zero margin is identical to a plain fit.
        let zero = Discretizer::fit_with_margin(&values, 10, 0.0);
        assert_eq!(zero, tight);
    }

    #[test]
    fn fit_vectors_matches_series_fit() {
        let mut series = TimeSeries::new();
        for t in 0..40u64 {
            let v = MetricVector::from_fn(|a| ((a.index() as u64 + 5) * (t + 2)) as f64 % 53.0);
            series.push(MetricSample::new(Timestamp::from_secs(t), v));
        }
        let from_series = VectorDiscretizer::fit(&series, 9);
        let from_vectors = VectorDiscretizer::fit_vectors(series.iter().map(|s| &s.values), 9);
        assert_eq!(from_series, from_vectors);
    }

    #[test]
    fn state_round_trips_exact_bounds() {
        let mut series = TimeSeries::new();
        for t in 0..20u64 {
            let v = MetricVector::from_fn(|a| (a.index() as f64 + 0.5) * t as f64 / 3.0);
            series.push(MetricSample::new(Timestamp::from_secs(t), v));
        }
        let vd = VectorDiscretizer::fit(&series, 7);
        let mut w = Writer::new();
        vd.store_state(&mut w);
        assert_eq!(w.len(), ATTRIBUTE_COUNT * 16, "two bounds per attribute");
        let mut r = Reader::new(w.bytes());
        let back = VectorDiscretizer::load_state(&mut r, 7).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back, vd);
        for a in AttributeKind::ALL {
            assert_eq!(
                back.attribute(a).lo().to_bits(),
                vd.attribute(a).lo().to_bits()
            );
            assert_eq!(
                back.attribute(a).hi().to_bits(),
                vd.attribute(a).hi().to_bits()
            );
        }
        // A reversed or non-finite range is refused.
        let mut bytes = w.into_bytes();
        bytes[..8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let err = VectorDiscretizer::load_state(&mut Reader::new(&bytes), 7).unwrap_err();
        assert_eq!(err, PersistError::Invalid("Discretizer bounds"));
    }

    #[test]
    fn vector_discretizer_round_trip() {
        let mut series = TimeSeries::new();
        for t in 0..20u64 {
            let v = MetricVector::from_fn(|a| (a.index() as f64 + 1.0) * t as f64);
            series.push(MetricSample::new(Timestamp::from_secs(t), v));
        }
        let vd = VectorDiscretizer::fit(&series, 10);
        let dv = vd.discretize(&series[10].values);
        assert_eq!(dv.len(), ATTRIBUTE_COUNT);
        assert!(dv.iter().all(|&b| b < 10));
    }
}
