//! Time-series storage and windowed statistics over metric samples.

use std::slice;

use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::{mean, std_dev, AttributeKind, MetricSample, MetricVector, Timestamp};

/// Samples per block of a [`TimeSeries`].
const BLOCK: usize = 32;

/// An append-only sequence of [`MetricSample`]s for one VM.
///
/// Samples must be appended in non-decreasing timestamp order; this is the
/// shape a real dom0 monitor produces and everything downstream (labeling,
/// training, validation windows) relies on it.
///
/// The samples live in fixed blocks of 32, each allocated once at its
/// full size: every block but the last is full, and the last holds at
/// least one sample. A push never moves a sample, and a series holds at
/// most 31 empty slots, where one doubling buffer would hold up to its
/// length again.
#[derive(Debug, Default, PartialEq)]
pub struct TimeSeries {
    blocks: Vec<Vec<MetricSample>>,
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
        if let Some(last) = self.last() {
            assert!(
                sample.time >= last.time,
                "samples must be appended in time order ({} < {})",
                sample.time,
                last.time
            );
        }
        match self.blocks.last_mut() {
            Some(block) if block.len() < BLOCK => block.push(sample),
            _ => {
                let mut block = Vec::with_capacity(BLOCK);
                block.push(sample);
                self.blocks.push(block);
            }
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.blocks
            .last()
            .map_or(0, |open| (self.blocks.len() - 1) * BLOCK + open.len())
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The sample at index `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<&MetricSample> {
        self.blocks.get(i / BLOCK)?.get(i % BLOCK)
    }

    /// Iterator over samples, in time order.
    pub fn iter(&self) -> SeriesIter<'_> {
        self.between(0, self.len())
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<&MetricSample> {
        self.blocks.last()?.last()
    }

    /// Samples whose timestamps fall in `[from, to)`.
    pub fn range(&self, from: Timestamp, to: Timestamp) -> SeriesIter<'_> {
        let start = self.before(from);
        self.between(start, self.before(to).max(start))
    }

    /// The values of one attribute across the whole series.
    pub fn attribute_values(&self, a: AttributeKind) -> Vec<f64> {
        self.iter().map(|s| s.values.get(a)).collect()
    }

    /// Summary statistics of one attribute over `[from, to)`.
    pub fn stats(&self, a: AttributeKind, from: Timestamp, to: Timestamp) -> SeriesStats {
        let vals: Vec<f64> = self.range(from, to).map(|s| s.values.get(a)).collect();
        SeriesStats::from_values(&vals)
    }

    /// How many samples are timed before `t`: a binary search over the
    /// blocks' last samples, then one inside the block that holds `t`.
    fn before(&self, t: Timestamp) -> usize {
        let full = self
            .blocks
            .partition_point(|block| block.last().is_some_and(|s| s.time < t));
        match self.blocks.get(full) {
            Some(block) => full * BLOCK + block.partition_point(|s| s.time < t),
            None => self.len(),
        }
    }

    /// The samples at indices `[start, end)`; `start <= end <= len`.
    fn between(&self, start: usize, end: usize) -> SeriesIter<'_> {
        let (first, last) = (start / BLOCK, end / BLOCK);
        let part = |b: usize, at: usize, to: usize| {
            self.blocks
                .get(b)
                .and_then(|block| block.get(at..to.min(block.len())))
                .unwrap_or_default()
        };
        let (front, blocks, back) = if first == last {
            (part(first, start % BLOCK, end % BLOCK), &[][..], &[][..])
        } else {
            (
                part(first, start % BLOCK, BLOCK),
                self.blocks.get(first + 1..last).unwrap_or_default(),
                part(last, 0, end % BLOCK),
            )
        };
        SeriesIter {
            front: front.iter(),
            blocks: blocks.iter(),
            back: back.iter(),
            len: end - start,
        }
    }

    /// Slots allocated for samples, filled or not: at most
    /// [`TimeSeries::len`] plus 31.
    pub fn capacity(&self) -> usize {
        self.blocks.iter().map(Vec::capacity).sum()
    }
}

/// A clone's blocks are full-sized too, so pushing to it moves no sample.
impl Clone for TimeSeries {
    fn clone(&self) -> Self {
        let blocks = self
            .blocks
            .iter()
            .map(|block| {
                let mut copy = Vec::with_capacity(BLOCK);
                copy.extend_from_slice(block);
                copy
            })
            .collect();
        TimeSeries { blocks }
    }
}

/// The samples of a [`TimeSeries`] (or of a window of one), in time
/// order: what is left of the first block, the whole blocks after it,
/// and what is taken of the last.
#[derive(Debug, Clone)]
pub struct SeriesIter<'a> {
    front: slice::Iter<'a, MetricSample>,
    blocks: slice::Iter<'a, Vec<MetricSample>>,
    back: slice::Iter<'a, MetricSample>,
    len: usize,
}

impl<'a> Iterator for SeriesIter<'a> {
    type Item = &'a MetricSample;

    fn next(&mut self) -> Option<&'a MetricSample> {
        let next = loop {
            if let Some(s) = self.front.next() {
                break Some(s);
            }
            match self.blocks.next() {
                Some(block) => self.front = block.iter(),
                None => break self.back.next(),
            }
        };
        self.len -= usize::from(next.is_some());
        next
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl<'a> DoubleEndedIterator for SeriesIter<'a> {
    fn next_back(&mut self) -> Option<&'a MetricSample> {
        let next = loop {
            if let Some(s) = self.back.next_back() {
                break Some(s);
            }
            match self.blocks.next_back() {
                Some(block) => self.back = block.iter(),
                None => break self.front.next_back(),
            }
        };
        self.len -= usize::from(next.is_some());
        next
    }
}

impl ExactSizeIterator for SeriesIter<'_> {}

/// Indexing reads like a slice's: an index past the end panics.
impl std::ops::Index<usize> for TimeSeries {
    type Output = MetricSample;
    fn index(&self, i: usize) -> &MetricSample {
        &self.blocks[i / BLOCK][i % BLOCK]
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
    type IntoIter = SeriesIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
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
        let len = self.len();
        let from = from.min(len);
        let mut prev = from
            .checked_sub(1)
            .and_then(|i| self.get(i))
            .map_or(0, |s| s.time.as_secs());
        for MetricSample { time, values } in self.between(from, len) {
            // `push` and `load` keep the samples in time order.
            w.put_varint(time.as_secs() - prev);
            values.store(w);
            prev = time.as_secs();
        }
    }

    /// Appends `len` samples [`TimeSeries::store_since`] wrote, whose
    /// times continue from this series' last sample. The running time
    /// sum is checked, so a delta that would carry a time past
    /// `u64::MAX` is refused, not wrapped — which also keeps the samples
    /// in time order, so they decode straight into the open block. A
    /// block is allocated only once a sample for it has decoded, so a
    /// damaged `len` reserves nothing.
    ///
    /// # Errors
    ///
    /// A [`PersistError`] when the bytes run out or a time overflows.
    pub fn load_since(&mut self, r: &mut Reader<'_>, len: usize) -> Result<(), PersistError> {
        let mut time = self.last().map_or(0, |s| s.time.as_secs());
        let mut left = len;
        while left > 0 {
            let mut block = match self.blocks.pop() {
                Some(open) if open.len() < BLOCK => open,
                full => {
                    self.blocks.extend(full);
                    Vec::new()
                }
            };
            let take = left.min(BLOCK - block.len());
            let decoded = (0..take).try_for_each(|_| {
                time = time
                    .checked_add(r.get_varint()?)
                    .ok_or(PersistError::Invalid("TimeSeries time overflows u64"))?;
                let values = MetricVector::load(r)?;
                block.reserve_exact(BLOCK - block.len());
                block.push(MetricSample::new(Timestamp::from_secs(time), values));
                Ok(())
            });
            if !block.is_empty() {
                self.blocks.push(block);
            }
            decoded?;
            left -= take;
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
        let Self { blocks: _ } = self;
        w.put_usize(self.len());
        self.store_since(w, 0);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = r.get_usize()?;
        let mut series = TimeSeries::new();
        series.load_since(r, len)?;
        Ok(series)
    }
}

/// The one-buffer series the block store replaced, kept verbatim as the
/// referee of its reads and its bytes.
#[cfg(test)]
mod reference {
    use crate::persist::{bounded_capacity, PersistError, Reader, Writer};
    use crate::{AttributeKind, MetricSample, MetricVector, Persist, SeriesStats, Timestamp};

    #[derive(Debug, Clone, Default, PartialEq)]
    pub(super) struct VecSeries {
        pub(super) samples: Vec<MetricSample>,
    }

    impl VecSeries {
        pub(super) fn push(&mut self, sample: MetricSample) {
            if let Some(last) = self.samples.last() {
                assert!(sample.time >= last.time);
            }
            self.samples.push(sample);
        }

        pub(super) fn range(&self, from: Timestamp, to: Timestamp) -> &[MetricSample] {
            let start = self.samples.partition_point(|s| s.time < from);
            let end = self.samples.partition_point(|s| s.time < to);
            &self.samples[start..end]
        }

        pub(super) fn attribute_values(&self, a: AttributeKind) -> Vec<f64> {
            self.samples.iter().map(|s| s.values.get(a)).collect()
        }

        pub(super) fn stats(
            &self,
            a: AttributeKind,
            from: Timestamp,
            to: Timestamp,
        ) -> SeriesStats {
            let vals: Vec<f64> = self
                .range(from, to)
                .iter()
                .map(|s| s.values.get(a))
                .collect();
            SeriesStats::from_values(&vals)
        }

        pub(super) fn store_since(&self, w: &mut Writer, from: usize) {
            let (sealed, new) = self.samples.split_at(from.min(self.samples.len()));
            let mut prev = sealed.last().map_or(0, |s| s.time.as_secs());
            for MetricSample { time, values } in new {
                w.put_varint(time.as_secs() - prev);
                values.store(w);
                prev = time.as_secs();
            }
        }

        pub(super) fn load_since(
            &mut self,
            r: &mut Reader<'_>,
            len: usize,
        ) -> Result<(), PersistError> {
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

        pub(super) fn store(&self, w: &mut Writer) {
            w.put_usize(self.samples.len());
            self.store_since(w, 0);
        }
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
        let r: Vec<_> = ts
            .range(Timestamp::from_secs(10), Timestamp::from_secs(25))
            .collect();
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
            let prefix: TimeSeries = ts.iter().take(split).copied().collect();
            prefix.store_since(&mut w, 0);
            ts.store_since(&mut w, split);
            assert_eq!(w.bytes(), &whole[8..], "split {split}");
            let mut r = crate::persist::Reader::new(w.bytes());
            let mut back = TimeSeries::new();
            back.load_since(&mut r, split).expect("head");
            assert_eq!(back, prefix);
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

    /// However a series grows — pushed one sample at a time, loaded in
    /// one run or in runs that end mid-block, or cloned and pushed to —
    /// it holds at most 31 empty slots: one block's worth less one. A
    /// doubling buffer holds up to its length again.
    #[test]
    fn a_series_holds_at_most_one_open_block_of_room() {
        let room = |ts: &TimeSeries| ts.capacity() - ts.len();
        let mut pushed = TimeSeries::new();
        assert_eq!(pushed.capacity(), 0);
        for t in 0..5 * BLOCK as u64 + 1 {
            pushed.push(sample(t, t as f64));
            assert!(room(&pushed) < BLOCK, "after {} pushes", t + 1);
            let mut clone = pushed.clone();
            assert!(room(&clone) < BLOCK, "clone of {}", t + 1);
            clone.push(sample(t + 1, 0.0));
            assert!(room(&clone) < BLOCK, "clone of {} pushed to", t + 1);
        }
        let bytes = crate::persist::to_bytes(&pushed);
        let loaded: TimeSeries = crate::persist::from_bytes(&bytes).unwrap();
        assert_eq!(loaded, pushed);
        assert!(room(&loaded) < BLOCK);
        for split in [0, 1, 31, 32, 33, 100] {
            let mut w = crate::persist::Writer::new();
            pushed.store_since(&mut w, split);
            let mut head: TimeSeries = pushed.iter().take(split).copied().collect();
            head.load_since(
                &mut crate::persist::Reader::new(w.bytes()),
                pushed.len() - split,
            )
            .unwrap();
            assert_eq!(head, pushed, "split {split}");
            assert!(room(&head) < BLOCK, "split {split}");
        }
    }

    /// A length the bytes cannot hold allocates no more than the samples
    /// that did decode: blocks open only as their first sample lands.
    #[test]
    fn a_damaged_length_allocates_only_what_decodes() {
        let ts: TimeSeries = (0..40).map(|t| sample(t, 0.0)).collect();
        let mut w = crate::persist::Writer::new();
        ts.store_since(&mut w, 0);
        let mut back = TimeSeries::new();
        let res = back.load_since(&mut crate::persist::Reader::new(w.bytes()), 1 << 40);
        assert!(matches!(res, Err(PersistError::Truncated { .. })));
        assert_eq!(back, ts);
        assert_eq!(back.capacity(), 2 * BLOCK);
        let mut empty = TimeSeries::new();
        let res = empty.load_since(&mut crate::persist::Reader::new(&[]), usize::MAX);
        assert!(matches!(res, Err(PersistError::Truncated { .. })));
        assert_eq!(empty.capacity(), 0);
    }
}

#[cfg(test)]
mod referee_proptests {
    use super::reference::VecSeries;
    use super::*;
    use crate::persist::{from_bytes, to_bytes};
    use crate::ATTRIBUTE_COUNT;
    use proptest::prelude::*;

    /// The `i`-th sample at time `t`: every value distinct.
    fn sample(i: usize, t: u64) -> MetricSample {
        MetricSample::new(
            Timestamp::from_secs(t),
            MetricVector::from_fn(|a| (i * ATTRIBUTE_COUNT + a.index()) as f64 + 0.5),
        )
    }

    fn store_since(ts: &TimeSeries, from: usize) -> Writer {
        let mut w = Writer::new();
        ts.store_since(&mut w, from);
        w
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        // A series of up to five blocks, with repeated times, reads,
        // writes, loads and clones exactly as the one-buffer referee does.
        #[test]
        fn the_block_store_reads_and_writes_as_the_referee(
            start in 0u64..1_000,
            gaps in proptest::collection::vec(0u64..3, 0..5 * BLOCK + 1),
            windows in proptest::collection::vec((0u64..400, 0u64..200), 8),
        ) {
            let times: Vec<u64> = gaps
                .iter()
                .scan(start, |t, &gap| {
                    *t += gap;
                    Some(*t)
                })
                .collect();
            let mut ts = TimeSeries::new();
            let mut referee = VecSeries::default();
            for (i, &t) in times.iter().enumerate() {
                ts.push(sample(i, t));
                referee.push(sample(i, t));
            }
            let want = &referee.samples;
            let n = want.len();
            prop_assert_eq!(ts.len(), n);
            prop_assert_eq!(ts.is_empty(), n == 0);
            for i in 0..n + 2 {
                prop_assert_eq!(ts.get(i), want.get(i), "get {}", i);
            }
            prop_assert_eq!(ts.last(), want.last());
            let forward: Vec<_> = ts.iter().copied().collect();
            prop_assert_eq!(&forward, want);
            let backward: Vec<_> = ts.iter().rev().copied().collect();
            let want_backward: Vec<_> = want.iter().rev().copied().collect();
            prop_assert_eq!(backward, want_backward);
            // Taken from both ends at once, the iterator meets in the
            // middle and counts down exactly.
            let (mut it, mut lo, mut hi) = (ts.iter(), 0, n);
            for k in 0..n {
                prop_assert_eq!(it.len(), n - k);
                if k % 3 == 0 {
                    hi -= 1;
                    prop_assert_eq!(it.next_back(), want.get(hi));
                } else {
                    prop_assert_eq!(it.next(), want.get(lo));
                    lo += 1;
                }
            }
            prop_assert_eq!((it.len(), it.next(), it.next_back()), (0, None, None));
            for a in AttributeKind::ALL {
                prop_assert_eq!(ts.attribute_values(a), referee.attribute_values(a));
            }
            for &(offset, width) in &windows {
                let from = Timestamp::from_secs(start + offset);
                let to = Timestamp::from_secs(start + offset + width);
                let got: Vec<_> = ts.range(from, to).copied().collect();
                prop_assert_eq!(&got[..], referee.range(from, to));
                let mut ends = ts.range(from, to);
                prop_assert_eq!(ends.next_back(), referee.range(from, to).last());
                for a in [AttributeKind::CpuTotal, AttributeKind::PageFaults] {
                    prop_assert_eq!(ts.stats(a, from, to), referee.stats(a, from, to));
                }
            }
            for from in 0..=n + 1 {
                let mut reference = Writer::new();
                referee.store_since(&mut reference, from);
                let bytes = store_since(&ts, from);
                prop_assert_eq!(bytes.bytes(), reference.bytes(), "store_since {}", from);
                // The tail loads onto the prefix it continues.
                let split = from.min(n);
                let mut head: TimeSeries = want[..split].iter().copied().collect();
                let mut head_ref = VecSeries { samples: want[..split].to_vec() };
                head.load_since(&mut Reader::new(bytes.bytes()), n - split).expect("tail");
                head_ref.load_since(&mut Reader::new(bytes.bytes()), n - split).expect("tail");
                let loaded: Vec<_> = head.iter().copied().collect();
                prop_assert_eq!(&loaded, &head_ref.samples, "load_since {}", split);
                prop_assert_eq!(&head, &ts, "load_since {}", split);
            }
            let mut reference = Writer::new();
            referee.store(&mut reference);
            let bytes = to_bytes(&ts);
            prop_assert_eq!(&bytes[..], reference.bytes());
            let back: TimeSeries = from_bytes(&bytes).expect("round trip");
            prop_assert_eq!(&back, &ts);
            let mut clone = ts.clone();
            let mut clone_ref = referee.clone();
            let next = sample(n, times.last().map_or(start, |&t| t + 1));
            clone.push(next);
            clone_ref.push(next);
            let pushed: Vec<_> = clone.iter().copied().collect();
            prop_assert_eq!(&pushed, &clone_ref.samples);
            prop_assert_eq!(ts.len(), n, "pushing to a clone leaves the original");
        }
    }
}
