//! On-demand training for a fleet of per-VM predictors.
//!
//! The paper trains a VM's model when that VM is implicated (§II-B), and
//! prices one training at milliseconds against a 5 s sampling interval
//! (Table I). A [`FleetTrainer`] therefore keeps, per slot (VM), only what
//! a training needs — the labeled samples, in arrival order — and counts
//! them when a model is asked for. Nothing is maintained between
//! trainings: a sample costs one append.
//!
//! # One route from window to model
//!
//! [`FleetTrainer::derive`] hands the slot's window to
//! [`AnomalyPredictor::train_labeled_par`], the routine every training
//! entry point funnels through, so a derived model *is* the model a
//! from-scratch training on the same labeled rows produces. The cost is
//! O(window) per derived slot; [`FleetTrainer::derive_cached_batch`]
//! memoizes results on a per-slot generation counter, so a slot whose
//! window did not change between two training rounds is not counted twice.
//!
//! # Durable image
//!
//! [`FleetTrainer::store_state`] writes the configuration and, per slot,
//! the window and its generation — everything the trainer holds except the
//! memo, which is re-derived on demand after a restore.

use crate::{AnomalyPredictor, PredictorConfig};
use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
use prepare_metrics::{Label, MetricVector, ATTRIBUTE_COUNT};
use prepare_tan::TrainError;
use std::collections::VecDeque;

/// The labeled training windows of a fleet of per-VM predictors, one
/// *slot* per VM.
///
/// Feed each slot its labeled samples with [`FleetTrainer::push`] (and
/// age bounded windows with [`FleetTrainer::retire_front`]); call
/// [`FleetTrainer::derive`] to train a predictor from the window as it
/// stands.
// xtask: checkpoint
#[derive(Debug, Clone)]
pub struct FleetTrainer {
    config: PredictorConfig,
    /// The labeled samples each slot trains on, in arrival order.
    windows: Vec<VecDeque<(MetricVector, Label)>>,
    /// Per-slot window-content generation: bumped by every
    /// [`push`](FleetTrainer::push) and
    /// [`retire_front`](FleetTrainer::retire_front). A cached derivation
    /// is valid exactly while the slot's generation is unchanged.
    generation: Vec<u64>,
    /// Memoized [`derive`](FleetTrainer::derive) results keyed on the
    /// generation they were derived at (successful derivations only).
    // xtask: ephemeral -- memo cache, re-derived on demand after restore
    cache: Vec<Option<(u64, AnomalyPredictor)>>,
}

/// Encoded size of one window sample: the metric vector's `f64`s and the
/// label's tag byte.
const SAMPLE_BYTES: usize = ATTRIBUTE_COUNT * 8 + 1;

/// Encoded size of the smallest slot: an empty window's length and the
/// generation.
const MIN_SLOT_BYTES: usize = 8 + 8;

impl FleetTrainer {
    /// Creates a trainer with `slots` empty per-VM windows.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or the configuration has zero bins.
    pub fn new(slots: usize, config: &PredictorConfig) -> Self {
        assert!(slots > 0, "trainer needs at least one slot");
        assert!(config.bins > 0, "bin count must be positive");
        FleetTrainer {
            config: config.clone(),
            windows: vec![VecDeque::new(); slots],
            generation: vec![0; slots],
            cache: vec![None; slots],
        }
    }

    /// Serializes the trainer: the configuration, the slot count, then per
    /// slot its window (length, then the labeled samples) and its
    /// generation.
    pub fn store_state(&self, w: &mut Writer) {
        self.config.store(w);
        w.put_usize(self.windows.len());
        for (window, generation) in self.windows.iter().zip(&self.generation) {
            window.store(w);
            generation.store(w);
        }
    }

    /// Restores a trainer written by [`FleetTrainer::store_state`].
    ///
    /// # Errors
    ///
    /// [`PersistError::Invalid`] when the image promises more slots or
    /// samples than its remaining bytes can hold (checked before anything
    /// is allocated for them); any other [`PersistError`] on a torn
    /// buffer, an unknown tag or a bin count [`PredictorConfig`] refuses
    /// to load.
    pub fn load_state(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let config = PredictorConfig::load(r)?;
        let slots = r.get_usize()?;
        if slots == 0 || slots > r.remaining() / MIN_SLOT_BYTES {
            return Err(PersistError::Invalid("FleetTrainer slot count"));
        }
        let mut trainer = FleetTrainer::new(slots, &config);
        for (window, generation) in trainer.windows.iter_mut().zip(&mut trainer.generation) {
            let len = r.get_usize()?;
            if len > r.remaining() / SAMPLE_BYTES {
                return Err(PersistError::Invalid("FleetTrainer window length"));
            }
            window.reserve(len);
            for _ in 0..len {
                window.push_back(Persist::load(r)?);
            }
            *generation = Persist::load(r)?;
        }
        Ok(trainer)
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.windows.len()
    }

    /// Number of retained samples in `slot`'s window.
    pub fn window_len(&self, slot: usize) -> usize {
        self.windows[slot].len()
    }

    /// Always `false`: no counts are maintained, so none can be stale. A
    /// shim for `benchmark/benches/shadow.rs:234`, the one caller left;
    /// the next change to `benchmark/` deletes that call and this.
    #[doc(hidden)]
    pub fn is_dirty(&self, _slot: usize) -> bool {
        false
    }

    /// Does nothing, for the reason [`FleetTrainer::is_dirty`] is `false`.
    /// A shim for `benchmark/benches/shadow.rs:239`; goes with that call.
    #[doc(hidden)]
    pub fn refresh(&mut self, _par: &prepare_par::ParConfig) {}

    /// Appends one labeled sample to `slot`'s window.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn push(&mut self, slot: usize, values: &MetricVector, label: Label) {
        self.windows[slot].push_back((*values, label));
        self.generation[slot] = self.generation[slot].wrapping_add(1);
    }

    /// Retires the oldest sample of `slot`'s window.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or its window is empty.
    pub fn retire_front(&mut self, slot: usize) {
        self.windows[slot]
            .pop_front()
            .expect("retiring from an empty window"); // xtask-allow: expect -- documented panic: the window must be non-empty
        self.generation[slot] = self.generation[slot].wrapping_add(1);
    }

    /// Trains a predictor from `slot`'s window as it stands, through
    /// [`AnomalyPredictor::train_labeled_par`] (serially: a training round
    /// shards over slots, not inside one).
    ///
    /// # Errors
    ///
    /// The same conditions as [`AnomalyPredictor::train`]: an empty
    /// window or single-class labels.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn derive(&self, slot: usize) -> Result<AnomalyPredictor, TrainError> {
        let rows: Vec<(MetricVector, Label)> = self.windows[slot].iter().copied().collect();
        AnomalyPredictor::train_labeled_par(&rows, &self.config, &prepare_par::ParConfig::serial())
    }

    /// Whether `slot` holds a cached derivation that is still valid (no
    /// [`push`](FleetTrainer::push) or
    /// [`retire_front`](FleetTrainer::retire_front) since it was
    /// derived). Serving a valid cache entry skips the training entirely.
    pub fn is_cached(&self, slot: usize) -> bool {
        self.cache
            .get(slot)
            .and_then(|c| c.as_ref())
            .is_some_and(|(gen, _)| Some(gen) == self.generation.get(slot))
    }

    /// Batch [`derive`](FleetTrainer::derive) with generation-keyed
    /// memoization: slots whose window is unchanged since their last
    /// derivation are served from the cache (a clone of the stored
    /// model, bit-identical to re-deriving); only stale slots re-derive,
    /// sharded over workers. Results come back in the order of `slots`
    /// and are exactly what [`derive`](FleetTrainer::derive) returns for
    /// each slot — error outcomes included.
    ///
    /// # Errors
    ///
    /// Per slot, the same conditions as [`FleetTrainer::derive`] (errors
    /// are recomputed each call, never cached — they are cheap).
    ///
    /// # Panics
    ///
    /// Panics if any slot is out of range.
    pub fn derive_cached_batch(
        &mut self,
        slots: &[usize],
        par: &prepare_par::ParConfig,
    ) -> Vec<Result<AnomalyPredictor, TrainError>> {
        let mut stale: Vec<usize> = Vec::new();
        for &slot in slots {
            if !self.is_cached(slot) && !stale.contains(&slot) {
                stale.push(slot);
            }
        }
        let derived: Vec<Result<AnomalyPredictor, TrainError>> =
            prepare_par::par_map(par, stale.clone(), |slot| self.derive(slot));
        let mut fresh: std::collections::BTreeMap<usize, Result<AnomalyPredictor, TrainError>> =
            std::collections::BTreeMap::new();
        for (slot, result) in stale.into_iter().zip(derived) {
            if let Some(entry) = self.cache.get_mut(slot) {
                *entry = match (&result, self.generation.get(slot)) {
                    (Ok(p), Some(&gen)) => Some((gen, p.clone())),
                    _ => None,
                };
            }
            fresh.insert(slot, result);
        }
        slots
            .iter()
            .map(|slot| {
                if let Some(r) = fresh.get(slot) {
                    r.clone()
                } else if let Some(Some((_, p))) = self.cache.get(*slot) {
                    Ok(p.clone())
                } else {
                    // Unreachable by construction: every requested slot
                    // was either just derived or was a valid cache hit.
                    Err(TrainError::EmptyDataset)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::ramp_fixture;
    use crate::MarkovKind;
    use prepare_metrics::{MetricSample, SloLog, TimeSeries, Timestamp};
    use proptest::prelude::*;

    fn labeled_stream(samples: usize, seed: u64) -> Vec<(MetricVector, Label)> {
        // A deterministic mixed-scale stream: values grow occasionally, so
        // a sliding window keeps gaining and losing its range endpoints.
        (0..samples)
            .map(|i| {
                let k = i as u64;
                let v = MetricVector::from_fn(|a| {
                    let x = (k * 37 + a.index() as u64 * 13 + seed) % 101;
                    if (k + seed).is_multiple_of(17) {
                        x as f64 * 3.0 // occasional range-widening spike
                    } else {
                        x as f64
                    }
                });
                let label = Label::from_violation((k * 7 + seed).is_multiple_of(5));
                (v, label)
            })
            .collect()
    }

    fn trainer_of(rows: &[(MetricVector, Label)], config: &PredictorConfig) -> FleetTrainer {
        let mut trainer = FleetTrainer::new(1, config);
        for (v, label) in rows {
            trainer.push(0, v, *label);
        }
        trainer
    }

    /// Pushes every sample of `series` into slot 0 under its SLO label.
    fn push_series(trainer: &mut FleetTrainer, series: &TimeSeries, slo: &SloLog) {
        for s in series.iter() {
            trainer.push(
                0,
                &s.values,
                Label::from_violation(slo.is_violated_at(s.time)),
            );
        }
    }

    fn assert_same_outcome(
        got: &Result<AnomalyPredictor, TrainError>,
        want: &Result<AnomalyPredictor, TrainError>,
        context: &str,
    ) {
        assert!(
            same_outcome(got, want),
            "{context}: outcomes diverged: {got:?} vs {want:?}"
        );
    }

    #[test]
    fn derive_equals_anomaly_train_on_a_series() {
        // The controller-integration premise: pushing each sample with
        // its ingest-time SLO label reproduces series+log training.
        let (series, slo) = ramp_fixture(400, 5, 40, 80.0);
        for kind in [MarkovKind::Simple, MarkovKind::TwoDependent] {
            let config = PredictorConfig {
                markov: kind,
                ..PredictorConfig::default()
            };
            let mut trainer = FleetTrainer::new(1, &config);
            push_series(&mut trainer, &series, &slo);
            let derived = trainer.derive(0).unwrap();
            let trained = AnomalyPredictor::train(&series, &slo, &config).unwrap();
            assert_eq!(derived, trained, "{kind:?}");
            assert_eq!(format!("{derived:?}"), format!("{trained:?}"));
        }
    }

    #[test]
    fn range_widening_push_then_derive_equals_anomaly_train() {
        // A sample outside every range seen so far moves the bin edges of
        // every earlier row; `derive` needs no step in between.
        let (mut series, mut slo) = ramp_fixture(400, 5, 40, 80.0);
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(1, &config);
        push_series(&mut trainer, &series, &slo);
        let at = Timestamp::from_secs(400 * 5);
        let spike = MetricVector::from_fn(|_| 1e6);
        series.push(MetricSample::new(at, spike));
        slo.record(at, true);
        trainer.push(0, &spike, Label::Abnormal);
        let derived = trainer.derive(0).unwrap();
        assert_eq!(
            derived,
            AnomalyPredictor::train(&series, &slo, &config).unwrap()
        );
    }

    #[test]
    fn sliding_window_equals_a_trainer_that_saw_only_the_survivors() {
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(1, &config);
        let stream = labeled_stream(200, 11);
        for (i, (v, label)) in stream.iter().enumerate() {
            trainer.push(0, v, *label);
            if i >= 80 {
                trainer.retire_front(0);
            }
            if i % 23 == 0 {
                let survivors = &stream[(i + 1).saturating_sub(80)..=i];
                assert_eq!(trainer.window_len(0), survivors.len());
                assert_same_outcome(
                    &trainer.derive(0),
                    &trainer_of(survivors, &config).derive(0),
                    &format!("step {i}"),
                );
            }
        }
    }

    #[test]
    fn empty_and_single_class_windows_are_training_errors() {
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(2, &config);
        assert_eq!(trainer.derive(0), Err(TrainError::EmptyDataset));
        trainer.push(0, &MetricVector::zeros(), Label::Normal);
        assert_eq!(
            trainer.derive(0),
            Err(TrainError::SingleClass(Label::Normal))
        );
        // Evicting everything is the empty state again.
        for (v, label) in labeled_stream(60, 5) {
            trainer.push(0, &v, label);
        }
        while trainer.window_len(0) > 0 {
            trainer.retire_front(0);
        }
        assert_eq!(trainer.derive(0), Err(TrainError::EmptyDataset));
    }

    #[test]
    #[should_panic(expected = "retiring from an empty window")]
    fn retire_from_empty_window_panics() {
        let mut trainer = FleetTrainer::new(1, &PredictorConfig::default());
        trainer.retire_front(0);
    }

    #[test]
    fn slots_are_independent() {
        let config = PredictorConfig::default();
        let mut fleet = FleetTrainer::new(3, &config);
        let streams: Vec<Vec<(MetricVector, Label)>> = (0..3)
            .map(|s| labeled_stream(90, s as u64 * 7 + 1))
            .collect();
        // Interleave pushes across slots.
        for i in 0..90 {
            for (slot, stream) in streams.iter().enumerate() {
                let (v, label) = &stream[i];
                fleet.push(slot, v, *label);
            }
        }
        for (slot, stream) in streams.iter().enumerate() {
            assert_same_outcome(
                &fleet.derive(slot),
                &trainer_of(stream, &config).derive(0),
                &format!("slot {slot}"),
            );
        }
    }

    #[test]
    fn trainer_matches_train_par_for_all_worker_counts() {
        let (series, slo): (TimeSeries, SloLog) = ramp_fixture(300, 5, 40, 80.0);
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(1, &config);
        push_series(&mut trainer, &series, &slo);
        let derived = trainer.derive(0).unwrap();
        for workers in [1usize, 2, 7] {
            let par = prepare_par::ParConfig::with_workers(workers);
            let trained = AnomalyPredictor::train_par(&series, &slo, &config, &par).unwrap();
            assert_eq!(derived, trained, "workers={workers}");
        }
    }

    #[test]
    fn cached_batch_is_bit_identical_to_eager_derive() {
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(4, &config);
        for slot in 0..4 {
            for (v, label) in labeled_stream(100, slot as u64 * 5 + 1) {
                trainer.push(slot, &v, label);
            }
        }
        let slots = [0usize, 1, 2, 3];
        let batch = trainer.derive_cached_batch(&slots, &prepare_par::ParConfig::serial());
        for (&slot, got) in slots.iter().zip(&batch) {
            assert_same_outcome(got, &trainer.derive(slot), &format!("cold slot {slot}"));
            assert!(trainer.is_cached(slot), "slot {slot} should be cached");
        }

        // Mutate only slots 1 and 3: the others must stay cached and the
        // re-derived ones must match eager derivation again.
        for (v, label) in labeled_stream(20, 99) {
            trainer.push(1, &v, label);
            trainer.push(3, &v, label);
        }
        assert!(trainer.is_cached(0) && trainer.is_cached(2));
        assert!(!trainer.is_cached(1) && !trainer.is_cached(3));
        let batch = trainer.derive_cached_batch(&slots, &prepare_par::ParConfig::serial());
        for (&slot, got) in slots.iter().zip(&batch) {
            assert_same_outcome(got, &trainer.derive(slot), &format!("warm slot {slot}"));
        }

        // Retiring also invalidates.
        trainer.retire_front(2);
        assert!(!trainer.is_cached(2));
    }

    #[test]
    fn cached_batch_is_worker_count_invariant() {
        let config = PredictorConfig::default();
        let mut base = FleetTrainer::new(5, &config);
        for slot in 0..5 {
            for (v, label) in labeled_stream(80, slot as u64 * 3 + 2) {
                base.push(slot, &v, label);
            }
        }
        let slots = [3usize, 0, 4, 1, 2];
        let mut serial = base.clone();
        let want = serial.derive_cached_batch(&slots, &prepare_par::ParConfig::serial());
        for workers in [2usize, 7] {
            let mut clone = base.clone();
            let got =
                clone.derive_cached_batch(&slots, &prepare_par::ParConfig::with_workers(workers));
            for ((&slot, g), w) in slots.iter().zip(&got).zip(&want) {
                assert_same_outcome(g, w, &format!("slot {slot} workers {workers}"));
            }
        }
    }

    #[test]
    fn cached_batch_preserves_error_outcomes() {
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(2, &config);
        for (v, label) in labeled_stream(60, 8) {
            trainer.push(0, &v, label);
        }
        // Slot 1 is empty: the batch must report EmptyDataset for it and
        // must not cache the error.
        let batch = trainer.derive_cached_batch(&[0, 1], &prepare_par::ParConfig::serial());
        assert!(batch[0].is_ok());
        assert_eq!(batch[1], Err(TrainError::EmptyDataset));
        assert!(trainer.is_cached(0));
        assert!(!trainer.is_cached(1));
        // Duplicate slots in one request are served consistently.
        let dup = trainer.derive_cached_batch(&[0, 0, 1], &prepare_par::ParConfig::serial());
        assert_same_outcome(&dup[0], &dup[1], "duplicate request");
        assert_eq!(dup[2], Err(TrainError::EmptyDataset));
    }

    fn image(trainer: &FleetTrainer) -> Vec<u8> {
        let mut w = Writer::new();
        trainer.store_state(&mut w);
        w.into_bytes()
    }

    fn restore(bytes: &[u8]) -> Result<FleetTrainer, PersistError> {
        let mut r = Reader::new(bytes);
        let trainer = FleetTrainer::load_state(&mut r)?;
        if !r.is_exhausted() {
            return Err(PersistError::Invalid("trailing bytes after trainer"));
        }
        Ok(trainer)
    }

    /// Encoded size of the configuration (bins, interval, chain tag) and
    /// the slot count that precede the slots.
    const HEADER_BYTES: usize = 8 + 8 + 1 + 8;

    /// A restored trainer is observationally identical: it derives the
    /// same models, and continuing the stream (pushes, retirements) on
    /// both copies keeps them in lockstep — the crash recovery contract
    /// for the training plane.
    #[test]
    fn persist_round_trip_continues_training_bit_identically() {
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(3, &config);
        let streams: Vec<Vec<(MetricVector, Label)>> = (0..3)
            .map(|s| labeled_stream(120, s as u64 * 7 + 1))
            .collect();
        for (slot, stream) in streams.iter().enumerate() {
            for (v, label) in &stream[..90] {
                trainer.push(slot, v, *label);
            }
        }

        let bytes = image(&trainer);
        let mut restored = restore(&bytes).unwrap();
        assert_eq!(image(&restored), bytes);
        assert_same_outcome(&restored.derive(0), &trainer.derive(0), "restored slot 0");

        for (slot, stream) in streams.iter().enumerate() {
            for (v, label) in &stream[90..] {
                trainer.push(slot, v, *label);
                restored.push(slot, v, *label);
            }
            trainer.retire_front(slot);
            restored.retire_front(slot);
        }
        assert_eq!(image(&restored), image(&trainer));
        for slot in 0..3 {
            assert_same_outcome(
                &restored.derive(slot),
                &trainer.derive(slot),
                &format!("continued slot {slot}"),
            );
        }
    }

    /// The image is the windows and little else: 16 bytes per slot until
    /// a sample arrives, then one encoded sample per push.
    #[test]
    fn image_size_follows_the_windows() {
        let fleet = FleetTrainer::new(4096, &PredictorConfig::default());
        assert_eq!(image(&fleet).len(), HEADER_BYTES + 4096 * 16);
        let mut trainer = FleetTrainer::new(8, &PredictorConfig::default());
        let empty = image(&trainer).len();
        assert_eq!(empty, HEADER_BYTES + 8 * MIN_SLOT_BYTES);
        let v = MetricVector::from_fn(|a| a.index() as f64);
        for k in 1..40 {
            trainer.push(3, &v, Label::from_violation(k % 3 == 0));
            assert_eq!(image(&trainer).len(), empty + k * SAMPLE_BYTES);
        }
    }

    #[test]
    fn load_rejects_inconsistent_images() {
        let mut trainer = FleetTrainer::new(2, &PredictorConfig::default());
        for (v, label) in labeled_stream(40, 6) {
            trainer.push(0, &v, label);
        }
        let good = image(&trainer);
        assert!(restore(&good).is_ok());
        let patched = |off: usize, word: u64| {
            let mut bytes = good.clone();
            bytes[off..off + 8].copy_from_slice(&word.to_le_bytes());
            restore(&bytes).map(|_| ())
        };
        // Layout: bins u64, sampling interval u64, markov tag, slot count,
        // then slot 0: window length, samples, generation.
        let slots_at = HEADER_BYTES - 8;
        let window_len_at = HEADER_BYTES;
        assert_eq!(
            patched(slots_at, 1),
            Err(PersistError::Invalid("trailing bytes after trainer"))
        );
        // Promised sizes the buffer cannot hold are refused up front, not
        // discovered by running off its end after allocating for them.
        assert!(patched(slots_at, 3).is_err());
        for huge in [1 << 40, u64::MAX - 38] {
            assert_eq!(
                patched(slots_at, huge),
                Err(PersistError::Invalid("FleetTrainer slot count"))
            );
            assert_eq!(
                patched(window_len_at, 38 + huge),
                Err(PersistError::Invalid("FleetTrainer window length"))
            );
        }
        for bins in [0, 65, 1 << 40] {
            assert_eq!(
                patched(0, bins),
                Err(PersistError::Invalid("PredictorConfig bins"))
            );
        }
    }

    /// No image makes the trainer panic, at load or afterwards: every
    /// truncation is an error, and every single-bit change either is one
    /// or yields a trainer that keeps working.
    #[test]
    fn damaged_images_error_or_load_a_working_trainer() {
        let config = PredictorConfig {
            bins: 3,
            markov: MarkovKind::TwoDependent,
            ..PredictorConfig::default()
        };
        let mut trainer = FleetTrainer::new(2, &config);
        for (v, label) in labeled_stream(7, 2) {
            trainer.push(0, &v, label);
        }
        trainer.push(1, &MetricVector::from_fn(|_| 4.0), Label::Abnormal);
        let good = image(&trainer);
        for cut in 0..good.len() {
            assert!(restore(&good[..cut]).is_err(), "cut at {cut}");
        }
        let mut loaded = 0;
        for bit in 0..good.len() * 8 {
            let mut bytes = good.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let Ok(mut t) = restore(&bytes) else {
                continue;
            };
            loaded += 1;
            for slot in 0..t.slots() {
                t.push(slot, &MetricVector::from_fn(|_| 2.5), Label::Normal);
                t.retire_front(slot);
                let rows: Vec<_> = t.windows[slot].iter().copied().collect();
                assert_same_outcome(
                    &t.derive(slot),
                    &trainer_of(&rows, &t.config).derive(0),
                    "damaged",
                );
            }
        }
        assert!(loaded > 0, "most flips only change a sample's value");
    }

    proptest! {
        // Random labeled streams with occasional unreadable values: after
        // an arbitrary interleaving of pushes and front-retirements, a
        // slot derives exactly what a fresh trainer fed only the
        // surviving rows derives — including which error it returns.
        #[test]
        fn derive_sees_exactly_the_surviving_rows(input in arb_ops()) {
            let (kind, ops) = input;
            let config = PredictorConfig {
                markov: kind,
                ..PredictorConfig::default()
            };
            let mut trainer = FleetTrainer::new(SLOTS, &config);
            let mut survivors: Vec<VecDeque<(MetricVector, Label)>> = vec![VecDeque::new(); SLOTS];
            for op in &ops {
                apply(&mut trainer, op);
                match op {
                    Op::Push(slot, v, label) => survivors[*slot].push_back((vector(v), *label)),
                    Op::Retire(slot) => drop(survivors[*slot].pop_front()),
                }
            }
            for (slot, rows) in survivors.iter().enumerate() {
                let rows: Vec<_> = rows.iter().copied().collect();
                prop_assert!(same_outcome(
                    &trainer.derive(slot),
                    &trainer_of(&rows, &config).derive(0)
                ));
            }
        }

        // Checkpoint anywhere in a random sequence (empty and one-sample
        // windows, fully evicted ones), restore, replay the tail on both
        // copies: the two trainers cannot be told apart, by their images
        // or by what they derive.
        #[test]
        fn restore_mid_sequence_then_replay_matches_the_uninterrupted_run(
            input in arb_ops(),
            cut in 0usize..60,
        ) {
            let (kind, ops) = input;
            let config = PredictorConfig {
                markov: kind,
                ..PredictorConfig::default()
            };
            let cut = cut.min(ops.len());
            let mut live = FleetTrainer::new(SLOTS, &config);
            for op in &ops[..cut] {
                apply(&mut live, op);
            }
            let bytes = image(&live);
            let mut restored = restore(&bytes).expect("own image loads");
            prop_assert_eq!(&image(&restored), &bytes);
            for op in &ops[cut..] {
                apply(&mut live, op);
                apply(&mut restored, op);
            }
            prop_assert_eq!(&restored.generation, &live.generation);
            prop_assert_eq!(image(&restored), image(&live));
            for slot in 0..SLOTS {
                prop_assert!(same_outcome(&restored.derive(slot), &live.derive(slot)));
            }
        }
    }

    const SLOTS: usize = 2;

    #[derive(Debug, Clone)]
    enum Op {
        Push(usize, Vec<f64>, Label),
        Retire(usize),
    }

    fn vector(v: &[f64]) -> MetricVector {
        MetricVector::from_fn(|a| v[a.index() % v.len()])
    }

    fn apply(trainer: &mut FleetTrainer, op: &Op) {
        match op {
            Op::Push(slot, v, label) => trainer.push(*slot, &vector(v), *label),
            Op::Retire(slot) => {
                if trainer.window_len(*slot) > 0 {
                    trainer.retire_front(*slot);
                }
            }
        }
    }

    /// Bit-level agreement of two training outcomes, error kind included.
    fn same_outcome(
        got: &Result<AnomalyPredictor, TrainError>,
        want: &Result<AnomalyPredictor, TrainError>,
    ) -> bool {
        match (got, want) {
            (Ok(a), Ok(b)) => a == b && format!("{a:?}") == format!("{b:?}"),
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }

    fn arb_ops() -> impl Strategy<Value = (MarkovKind, Vec<Op>)> {
        let value = proptest::collection::vec(0usize..200, 3);
        let op = (value, any::<bool>(), 0usize..8, 0usize..SLOTS).prop_map(
            |(vals, abnormal, choice, slot)| match choice {
                0 | 1 => Op::Retire(slot),
                _ => {
                    let label = Label::from_violation(abnormal);
                    // 199 stands for a sample the monitor could not read.
                    let value = |x: usize| if x == 199 { f64::NAN } else { x as f64 * 1.5 };
                    Op::Push(slot, vals.into_iter().map(value).collect(), label)
                }
            },
        );
        (any::<bool>(), proptest::collection::vec(op, 1..60)).prop_map(|(simple, ops)| {
            let kind = if simple {
                MarkovKind::Simple
            } else {
                MarkovKind::TwoDependent
            };
            (kind, ops)
        })
    }
}
