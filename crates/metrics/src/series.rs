//! Time-series storage and windowed statistics over metric samples.

use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::{mean, std_dev, AttributeKind, MetricSample, Timestamp};

/// An append-only sequence of [`MetricSample`]s for one VM.
///
/// Samples must be appended in non-decreasing timestamp order; this is the
/// shape a real dom0 monitor produces and everything downstream (labeling,
/// training, validation windows) relies on it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    samples: Vec<MetricSample>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `sample.time` precedes the last appended timestamp.
    pub fn push(&mut self, sample: MetricSample) {
        if let Some(last) = self.samples.last() {
            assert!(
                sample.time >= last.time,
                "samples must be appended in time order ({} < {})",
                sample.time,
                last.time
            );
        }
        self.samples.push(sample);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    /// Iterator over samples.
    pub fn iter(&self) -> std::slice::Iter<'_, MetricSample> {
        self.samples.iter()
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<&MetricSample> {
        self.samples.last()
    }

    /// Samples whose timestamps fall in `[from, to)`.
    pub fn range(&self, from: Timestamp, to: Timestamp) -> &[MetricSample] {
        let start = self.samples.partition_point(|s| s.time < from);
        let end = self.samples.partition_point(|s| s.time < to);
        &self.samples[start..end]
    }

    /// The values of one attribute across the whole series.
    pub fn attribute_values(&self, a: AttributeKind) -> Vec<f64> {
        self.samples.iter().map(|s| s.values.get(a)).collect()
    }

    /// Summary statistics of one attribute over `[from, to)`.
    pub fn stats(&self, a: AttributeKind, from: Timestamp, to: Timestamp) -> SeriesStats {
        let vals: Vec<f64> = self
            .range(from, to)
            .iter()
            .map(|s| s.values.get(a))
            .collect();
        SeriesStats::from_values(&vals)
    }
}

impl FromIterator<MetricSample> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = MetricSample>>(iter: I) -> Self {
        let mut ts = TimeSeries::new();
        for s in iter {
            ts.push(s);
        }
        ts
    }
}

impl Extend<MetricSample> for TimeSeries {
    fn extend<I: IntoIterator<Item = MetricSample>>(&mut self, iter: I) {
        for s in iter {
            self.push(s);
        }
    }
}

impl<'a> IntoIterator for &'a TimeSeries {
    type Item = &'a MetricSample;
    type IntoIter = std::slice::Iter<'a, MetricSample>;
    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

/// Summary statistics of a window of attribute values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SeriesStats {
    /// Number of values in the window.
    pub count: usize,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Population standard deviation (0 when empty).
    pub std_dev: f64,
    /// Minimum (0 when empty).
    pub min: f64,
    /// Maximum (0 when empty).
    pub max: f64,
}

impl SeriesStats {
    /// Computes statistics from raw values.
    pub fn from_values(vals: &[f64]) -> Self {
        if vals.is_empty() {
            return SeriesStats::default();
        }
        SeriesStats {
            count: vals.len(),
            mean: mean(vals),
            std_dev: std_dev(vals),
            min: vals.iter().copied().fold(f64::INFINITY, f64::min),
            max: vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

impl Persist for TimeSeries {
    fn store(&self, w: &mut Writer) {
        let Self { samples } = self;
        samples.store(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let samples: Vec<MetricSample> = Persist::load(r)?;
        if samples.windows(2).any(|p| p[1].time < p[0].time) {
            return Err(PersistError::Invalid("TimeSeries samples out of order"));
        }
        Ok(TimeSeries { samples })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricVector;

    fn sample(t: u64, cpu: f64) -> MetricSample {
        let mut v = MetricVector::zeros();
        v.set(AttributeKind::CpuTotal, cpu);
        MetricSample::new(Timestamp::from_secs(t), v)
    }

    #[test]
    fn push_and_range() {
        let ts: TimeSeries = (0..10).map(|t| sample(t * 5, t as f64)).collect();
        assert_eq!(ts.len(), 10);
        let r = ts.range(Timestamp::from_secs(10), Timestamp::from_secs(25));
        assert_eq!(r.len(), 3); // t = 10, 15, 20
        assert_eq!(r[0].time.as_secs(), 10);
        assert_eq!(r.last().unwrap().time.as_secs(), 20);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn push_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.push(sample(10, 0.0));
        ts.push(sample(5, 0.0));
    }

    #[test]
    fn stats_over_window() {
        let ts: TimeSeries = (0..5).map(|t| sample(t, 2.0 * t as f64)).collect();
        let st = ts.stats(
            AttributeKind::CpuTotal,
            Timestamp::ZERO,
            Timestamp::from_secs(5),
        );
        assert_eq!(st.count, 5);
        assert_eq!(st.mean, 4.0);
        assert_eq!(st.min, 0.0);
        assert_eq!(st.max, 8.0);
    }

    #[test]
    fn series_round_trip() {
        let ts: TimeSeries = (0..10).map(|t| sample(t * 5, t as f64)).collect();
        let back: TimeSeries = crate::persist::from_bytes(&crate::persist::to_bytes(&ts)).unwrap();
        assert_eq!(back, ts);
    }

    #[test]
    fn series_load_rejects_out_of_order_samples() {
        // Hand-craft a buffer with two samples whose times are inverted.
        let mut wtr = crate::persist::Writer::new();
        vec![sample(10, 0.0), sample(5, 0.0)].store(&mut wtr);
        let res: Result<TimeSeries, _> = crate::persist::from_bytes(&wtr.into_bytes());
        assert!(matches!(res, Err(PersistError::Invalid(_))));
    }
}
