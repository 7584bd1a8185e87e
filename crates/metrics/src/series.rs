//! Time-series storage and windowed statistics over metric samples.

use crate::persist::{bounded_capacity, Persist, PersistError, Reader, Writer};
use crate::{mean, std_dev, AttributeKind, MetricSample, MetricVector, Timestamp};

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

    /// Makes room for at least `additional` more samples.
    pub fn reserve(&mut self, additional: usize) {
        self.samples.reserve_exact(additional);
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

impl TimeSeries {
    /// Writes the samples from index `from` on — what a checkpoint's
    /// series frame holds of this series — in the whole-series layout,
    /// the first one's time delta-coded from the sample before it (from 0
    /// when there is none). The samples before `from` are in earlier
    /// frames; their count is the frame's to write.
    // xtask: hot-path
    pub fn store_since(&self, w: &mut Writer, from: usize) {
        let (sealed, new) = self.samples.split_at(from.min(self.samples.len()));
        let mut prev = sealed.last().map_or(0, |s| s.time.as_secs());
        for MetricSample { time, values } in new {
            // `push` and `load` keep the samples in time order.
            w.put_varint(time.as_secs() - prev);
            values.store(w);
            prev = time.as_secs();
        }
    }

    /// Appends `len` samples [`TimeSeries::store_since`] wrote, whose
    /// times continue from this series' last sample. The running time
    /// sum is checked, so a delta that would carry a time past
    /// `u64::MAX` is refused, not wrapped.
    ///
    /// # Errors
    ///
    /// A [`PersistError`] when the bytes run out or a time overflows.
    pub fn load_since(&mut self, r: &mut Reader<'_>, len: usize) -> Result<(), PersistError> {
        self.samples
            .reserve(bounded_capacity::<MetricSample>(len, r));
        let mut time = self.samples.last().map_or(0, |s| s.time.as_secs());
        for _ in 0..len {
            time = time
                .checked_add(r.get_varint()?)
                .ok_or(PersistError::Invalid("TimeSeries time overflows u64"))?;
            self.samples.push(MetricSample::new(
                Timestamp::from_secs(time),
                MetricVector::load(r)?,
            ));
        }
        Ok(())
    }
}

/// A series is its length, then its samples as [`TimeSeries::store_since`]
/// writes them from index 0 — per sample the time as a varint delta from
/// the previous sample's (the first from 0) and the 13 values as
/// [`MetricVector`]'s bit patterns. Samples are in time order, so no delta
/// is negative; on load the running sum is checked, so a delta that
/// would carry a time past `u64::MAX` is refused, not wrapped.
impl Persist for TimeSeries {
    fn store(&self, w: &mut Writer) {
        let Self { samples } = self;
        w.put_usize(samples.len());
        self.store_since(w, 0);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = r.get_usize()?;
        let mut series = TimeSeries::new();
        series.load_since(r, len)?;
        Ok(series)
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
    fn series_times_are_varint_deltas() {
        // Length, then per sample a one-byte delta and 13 values.
        let ts: TimeSeries = [0, 5, 10, 10, 200]
            .map(|t| sample(t, 1.0))
            .into_iter()
            .collect();
        let bytes = crate::persist::to_bytes(&ts);
        assert_eq!(bytes.len(), 8 + 5 * (1 + 13 * 8) + 1);
        let back: TimeSeries = crate::persist::from_bytes(&bytes).unwrap();
        assert_eq!(back, ts);
        // A first sample far from 0 and a repeated time round-trip too.
        let ts: TimeSeries = [u64::MAX - 1, u64::MAX, u64::MAX]
            .map(|t| sample(t, 2.0))
            .into_iter()
            .collect();
        let back: TimeSeries = crate::persist::from_bytes(&crate::persist::to_bytes(&ts)).unwrap();
        assert_eq!(back, ts);
    }

    /// Split at any point, a series written as its head and then its
    /// tail (the tail's first time delta-coded from the head's last)
    /// reads back whole, in the whole-series layout's bytes less its
    /// length.
    #[test]
    fn a_series_written_in_parts_reads_back_whole() {
        let ts: TimeSeries = [3, 5, 10, 10, 200, 1_000]
            .map(|t| sample(t, t as f64))
            .into_iter()
            .collect();
        let whole = crate::persist::to_bytes(&ts);
        for split in 0..=ts.len() {
            let mut w = crate::persist::Writer::new();
            let prefix: TimeSeries = ts.samples()[..split].iter().copied().collect();
            prefix.store_since(&mut w, 0);
            ts.store_since(&mut w, split);
            assert_eq!(w.bytes(), &whole[8..], "split {split}");
            let mut r = crate::persist::Reader::new(w.bytes());
            let mut back = TimeSeries::new();
            back.load_since(&mut r, split).expect("head");
            assert_eq!(back.samples(), &ts.samples()[..split]);
            back.load_since(&mut r, ts.len() - split).expect("tail");
            assert!(r.is_exhausted());
            assert_eq!(back, ts, "split {split}");
        }
        // Past the end, there is nothing new to write.
        let mut w = crate::persist::Writer::new();
        ts.store_since(&mut w, ts.len() + 3);
        assert!(w.is_empty());
    }

    #[test]
    fn a_tail_whose_times_overflow_is_refused() {
        let ts: TimeSeries = [u64::MAX - 1].map(|t| sample(t, 0.0)).into_iter().collect();
        let mut w = crate::persist::Writer::new();
        w.put_varint(2);
        MetricVector::zeros().store(&mut w);
        let mut back = ts.clone();
        assert_eq!(
            back.load_since(&mut crate::persist::Reader::new(w.bytes()), 1),
            Err(PersistError::Invalid("TimeSeries time overflows u64"))
        );
    }

    #[test]
    fn series_load_rejects_time_deltas_that_overflow() {
        // Two deltas that each fit a u64 but whose sum does not.
        let mut wtr = crate::persist::Writer::new();
        wtr.put_usize(2);
        for delta in [u64::MAX, 1] {
            wtr.put_varint(delta);
            MetricVector::zeros().store(&mut wtr);
        }
        let res: Result<TimeSeries, _> = crate::persist::from_bytes(&wtr.into_bytes());
        assert_eq!(
            res,
            Err(PersistError::Invalid("TimeSeries time overflows u64"))
        );
    }

    #[test]
    fn series_load_refuses_a_malformed_delta() {
        let ts: TimeSeries = (0..3).map(|t| sample(t * 5, 0.0)).collect();
        let mut bytes = crate::persist::to_bytes(&ts);
        // The second sample's delta (5) becomes the non-minimal 0x85 0x00.
        let at = 8 + 1 + 13 * 8;
        assert_eq!(bytes[at], 5);
        bytes[at] = 0x85;
        bytes.insert(at + 1, 0);
        let res: Result<TimeSeries, _> = crate::persist::from_bytes(&bytes);
        assert_eq!(res, Err(PersistError::Invalid("non-minimal varint")));
        // Cut anywhere, the series runs out of bytes.
        let bytes = crate::persist::to_bytes(&ts);
        for cut in 0..bytes.len() {
            let res: Result<TimeSeries, _> = crate::persist::from_bytes(&bytes[..cut]);
            assert!(
                matches!(res, Err(PersistError::Truncated { .. })),
                "cut {cut}"
            );
        }
    }
}
