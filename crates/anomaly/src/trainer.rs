//! Labeled per-slot training windows — **not on the control path**.
//!
//! The controller trains from each VM's series and the SLO log
//! ([`AnomalyPredictor::train`]); it holds no [`FleetTrainer`]. The type
//! survives because `benchmark/benches/shadow.rs` builds and times its own
//! (push per sample, derive per training round), and files under
//! `benchmark/` could not change with the PR that took it off the loop. It
//! leaves with that file's next change.
//!
//! What it is: per slot (VM), the labeled samples in arrival order.
//! [`FleetTrainer::derive`] hands the slot's window to
//! [`AnomalyPredictor::train_labeled_par`], the routine every training
//! entry point funnels through, so a derived model *is* the model
//! [`AnomalyPredictor::train`] produces from the same samples under the
//! same labels (the tests below). [`FleetTrainer::derive_cached_batch`]
//! memoizes results on a per-slot generation counter.

use crate::{AnomalyPredictor, PredictorConfig};
use prepare_metrics::{Label, MetricVector};
use prepare_tan::TrainError;

/// The labeled training windows of a fleet of per-VM predictors, one
/// *slot* per VM. Not on the control path; named by `benchmark/`, leaves
/// with its next change (see the module docs).
///
/// Feed each slot its labeled samples with [`FleetTrainer::push`]; call
/// [`FleetTrainer::derive`] to train a predictor from the window as it
/// stands.
#[derive(Debug, Clone)]
pub struct FleetTrainer {
    config: PredictorConfig,
    /// The labeled samples each slot trains on, in arrival order.
    windows: Vec<Vec<(MetricVector, Label)>>,
    /// Per-slot window-content generation: bumped by every
    /// [`push`](FleetTrainer::push). A cached derivation is valid exactly
    /// while the slot's generation is unchanged.
    generation: Vec<u64>,
    /// Memoized [`derive`](FleetTrainer::derive) results keyed on the
    /// generation they were derived at (successful derivations only).
    cache: Vec<Option<(u64, AnomalyPredictor)>>,
}

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
            windows: vec![Vec::new(); slots],
            generation: vec![0; slots],
            cache: vec![None; slots],
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.windows.len()
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
        self.windows[slot].push((*values, label));
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
        AnomalyPredictor::train_labeled_par(
            &self.windows[slot],
            &self.config,
            &prepare_par::ParConfig::serial(),
        )
    }

    /// Whether `slot` holds a cached derivation that is still valid (no
    /// [`push`](FleetTrainer::push) since it was derived). Serving a valid
    /// cache entry skips the training entirely.
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

    fn labeled_stream(samples: usize, seed: u64) -> Vec<(MetricVector, Label)> {
        // A deterministic mixed-scale stream: values spike occasionally, so
        // later samples keep widening the ranges earlier ones were binned in.
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

    /// Bit-level agreement of two training outcomes, error kind included.
    fn assert_same_outcome(
        got: &Result<AnomalyPredictor, TrainError>,
        want: &Result<AnomalyPredictor, TrainError>,
        context: &str,
    ) {
        let same = match (got, want) {
            (Ok(a), Ok(b)) => a == b && format!("{a:?}") == format!("{b:?}"),
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        assert!(same, "{context}: outcomes diverged: {got:?} vs {want:?}");
    }

    #[test]
    fn derive_equals_anomaly_train_on_a_series() {
        // What the benchmark's shadow measures is the controller's
        // training: pushing each sample with its ingest-time SLO label
        // reproduces series + SLO log training.
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
    fn empty_and_single_class_windows_are_training_errors() {
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(2, &config);
        assert_eq!(trainer.derive(0), Err(TrainError::EmptyDataset));
        trainer.push(0, &MetricVector::zeros(), Label::Normal);
        assert_eq!(
            trainer.derive(0),
            Err(TrainError::SingleClass(Label::Normal))
        );
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
}
