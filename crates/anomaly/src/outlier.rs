//! Unsupervised anomaly detection — the §V extension ("we plan to extend
//! PREPARE to handle unseen anomalies by developing unsupervised anomaly
//! prediction models").
//!
//! This detector needs no labels: it models each attribute's normal
//! operating range (mean ± std from an assumed-mostly-normal training
//! trace) and scores a sample by its largest per-attribute z-score. It is
//! deliberately simple — the point is the *hook*: when a supervised TAN
//! model cannot be trained yet (no recurrence of the anomaly), PREPARE can
//! fall back to outlier alerts, trading attribution quality for coverage.

use prepare_metrics::{AttributeKind, Label, MetricVector, TimeSeries, ATTRIBUTE_COUNT};

/// Distance-based (z-score) outlier detector over metric vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierDetector {
    means: Vec<f64>,
    stds: Vec<f64>,
    threshold: f64,
}

impl OutlierDetector {
    /// Default z-score alarm threshold.
    pub const DEFAULT_THRESHOLD: f64 = 3.0;

    /// Fits the detector on an unlabeled (assumed mostly normal) trace.
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty or `threshold` is not positive/finite.
    pub fn fit(series: &TimeSeries, threshold: f64) -> Self {
        assert!(!series.is_empty(), "outlier detector needs training data");
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "threshold must be positive"
        );
        let mut means = Vec::with_capacity(ATTRIBUTE_COUNT);
        let mut stds = Vec::with_capacity(ATTRIBUTE_COUNT);
        for a in AttributeKind::ALL {
            let vals = series.attribute_values(a);
            let m = prepare_metrics::mean(&vals);
            // Floor the std so constant attributes don't produce infinite
            // z-scores on the first wiggle.
            let s = prepare_metrics::std_dev(&vals).max(1e-6 + m.abs() * 0.01);
            means.push(m);
            stds.push(s);
        }
        OutlierDetector {
            means,
            stds,
            threshold,
        }
    }

    /// Fits with [`OutlierDetector::DEFAULT_THRESHOLD`].
    pub fn fit_default(series: &TimeSeries) -> Self {
        Self::fit(series, Self::DEFAULT_THRESHOLD)
    }

    /// The anomaly score: the largest absolute per-attribute z-score.
    pub fn score(&self, v: &MetricVector) -> f64 {
        prepare_metrics::debug_assert_finite!(AttributeKind::ALL
            .iter()
            .map(|&a| {
                let i = a.index();
                ((v.get(a) - self.means[i]) / self.stds[i]).abs()
            })
            .fold(0.0, f64::max))
    }

    /// Classifies a vector: abnormal when the score exceeds the threshold.
    pub fn classify(&self, v: &MetricVector) -> Label {
        Label::from_violation(self.score(v) > self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prepare_metrics::{MetricSample, Timestamp};

    fn normal_series() -> TimeSeries {
        let mut ts = TimeSeries::new();
        for i in 0..200u64 {
            let v = MetricVector::from_fn(|a| match a {
                AttributeKind::CpuTotal => 40.0 + ((i % 10) as f64 - 5.0),
                AttributeKind::FreeMem => 2000.0 + ((i % 7) as f64 - 3.0) * 10.0,
                _ => 10.0 + (i % 3) as f64,
            });
            ts.push(MetricSample::new(Timestamp::from_secs(i * 5), v));
        }
        ts
    }

    #[test]
    fn normal_samples_score_low() {
        let ts = normal_series();
        let d = OutlierDetector::fit_default(&ts);
        for s in ts.iter().skip(10) {
            assert_eq!(d.classify(&s.values), Label::Normal);
        }
    }

    #[test]
    fn extreme_sample_flagged() {
        let ts = normal_series();
        let d = OutlierDetector::fit_default(&ts);
        let mut v = ts.last().unwrap().values;
        v.set(AttributeKind::FreeMem, 50.0); // memory collapsed
        assert_eq!(d.classify(&v), Label::Abnormal);
    }

    #[test]
    fn score_is_monotone_in_deviation() {
        let ts = normal_series();
        let d = OutlierDetector::fit_default(&ts);
        let base = ts.last().unwrap().values;
        let mut worse = base;
        worse.set(AttributeKind::CpuTotal, 100.0);
        let mut worst = base;
        worst.set(AttributeKind::CpuTotal, 400.0);
        assert!(d.score(&worst) > d.score(&worse));
        assert!(d.score(&worse) > d.score(&base));
    }

    #[test]
    #[should_panic(expected = "training data")]
    fn empty_series_rejected() {
        let _ = OutlierDetector::fit_default(&TimeSeries::new());
    }

    #[test]
    fn constant_attributes_do_not_blow_up() {
        let mut ts = TimeSeries::new();
        for i in 0..50u64 {
            ts.push(MetricSample::new(
                Timestamp::from_secs(i),
                MetricVector::zeros(),
            ));
        }
        let d = OutlierDetector::fit_default(&ts);
        let v = MetricVector::zeros();
        assert!(d.score(&v).is_finite());
        assert_eq!(d.classify(&v), Label::Normal);
    }
}
