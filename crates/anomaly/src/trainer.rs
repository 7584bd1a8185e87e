//! Incremental online training for a fleet of per-VM predictors.
//!
//! Retraining a [`AnomalyPredictor`] from scratch rescans the whole
//! training window: it re-fits the discretizer, re-discretizes every
//! sample, re-counts every Markov transition, and re-accumulates every
//! TAN sufficient statistic. All of those quantities are *additive* in
//! the samples, so a [`FleetTrainer`] maintains them across rounds and
//! turns a retrain into (a) applying the delta of samples that entered or
//! left the window since the last one and (b) deriving fresh model
//! objects from the maintained state — skipping the window rescan
//! entirely whenever the discretization basis is stable.
//!
//! # Arena layout
//!
//! Per-VM model state lives in contiguous struct-of-arrays arenas indexed
//! by slot (VM) id, not in per-VM heap objects:
//!
//! ```text
//! fallback: [ slot 0: attr 0 (n²) | attr 1 (n²) | … ][ slot 1: … ] …
//! combined: [ slot 0: attr 0 (n³) | attr 1 (n³) | … ][ slot 1: … ] …
//! ```
//!
//! so a parallel refresh shards the fleet over *contiguous* arena ranges
//! ([`prepare_par::chunk_ranges`]) and each worker streams one
//! cache-friendly block instead of chasing per-VM pointers.
//!
//! # Exactness contract
//!
//! [`FleetTrainer::derive`] is **bit-identical** to retraining from
//! scratch ([`FleetTrainer::train_reference`], which replays the retained
//! window through [`AnomalyPredictor::train_labeled_par`]) — equality,
//! not tolerance. The workspace's replay contract pins traces
//! byte-for-byte, so an "almost equal" incremental path would silently
//! fork the trace catalogue. The equality is structural, not numeric
//! luck: counts are integer-valued `f64` (exact up to 2⁵³, so ±1.0
//! deltas commute and cancel exactly), and every count→probability
//! derivation is shared with the from-scratch path rather than
//! re-implemented. When a new sample widens an attribute's observed
//! range the discretization basis shifts and every stored count is built
//! on the wrong bins — the slot is marked *dirty* and the next
//! [`FleetTrainer::refresh`] rebuilds it wholesale; there is no
//! incremental shortcut across a basis change.
//!
//! # Durable image
//!
//! The same contract sizes the checkpoint. Every count in the arenas is
//! a function of a slot's retained window and running ranges, so
//! [`FleetTrainer::store_state`] writes only those (plus the dirty flag
//! and the generation), and [`FleetTrainer::load_state`] recounts each
//! clean slot through the routine `refresh` uses for dirty ones. A seal
//! costs O(window) bytes per slot instead of the dense `n³` arenas, and
//! the restored counts are the live ones bit for bit because "delta
//! apply ≡ rebuild" is exactly what the contract above already proves.

use crate::{AnomalyPredictor, MarkovKind, PredictorConfig, ValueModel};
use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
use prepare_metrics::{
    AttributeKind, DiscreteVector, Discretizer, Label, MetricVector, VectorDiscretizer,
    ATTRIBUTE_COUNT,
};
use prepare_tan::{TanStats, TrainError};
use std::collections::VecDeque;

/// Incrementally maintained training state for a fleet of per-VM
/// predictors, one *slot* per VM.
///
/// Feed each slot its labeled samples with [`FleetTrainer::push`] (and
/// age bounded windows with [`FleetTrainer::retire_front`]); call
/// [`FleetTrainer::refresh`] to rebuild any slots whose discretization
/// basis shifted, then [`FleetTrainer::derive`] to materialize a trained
/// predictor — bit-identical to [`FleetTrainer::train_reference`], the
/// from-scratch rebuild of the same window.
// xtask: checkpoint
#[derive(Debug, Clone)]
pub struct FleetTrainer {
    config: PredictorConfig,
    slots: usize,
    /// Combined-state transition counts, `slots × ATTRIBUTE_COUNT × n³`
    /// (empty for [`MarkovKind::Simple`], which has no combined table).
    // xtask: ephemeral -- rebuilt from windows + ranges on load
    combined: Vec<f64>,
    /// First-order transition counts, `slots × ATTRIBUTE_COUNT × n²` —
    /// the whole model for [`MarkovKind::Simple`], the fallback table for
    /// [`MarkovKind::TwoDependent`].
    // xtask: ephemeral -- rebuilt from windows + ranges on load
    fallback: Vec<f64>,
    /// TAN sufficient statistics, one per slot.
    // xtask: ephemeral -- rebuilt from windows + ranges on load
    tan: Vec<TanStats>,
    /// Running per-attribute min/max over each slot's window
    /// (`slots × ATTRIBUTE_COUNT`); `None` until a finite value arrives.
    /// Always the left fold of [`Discretizer::fit`] over the window as it
    /// stands, dirty slot or not.
    ranges: Vec<Option<(f64, f64)>>,
    /// The per-attribute discretizers the counts were accumulated under
    /// (`slots × ATTRIBUTE_COUNT`). Valid only while the slot is clean,
    /// and then equal to `Discretizer::fit_span` of the slot's ranges.
    // xtask: ephemeral -- fit_span(ranges) for a clean slot; rebuilt from windows + ranges on load
    basis: Vec<Discretizer>,
    /// Retained training windows: the labeled samples the maintained
    /// statistics summarize, in arrival order.
    windows: Vec<VecDeque<(MetricVector, Label)>>,
    /// Each window row discretized under the slot's basis; in sync with
    /// `windows` only while the slot is clean.
    // xtask: ephemeral -- rebuilt from windows + ranges on load
    discrete: Vec<VecDeque<DiscreteVector>>,
    /// Slots whose basis shifted: counts are stale until the next
    /// [`FleetTrainer::refresh`].
    dirty: Vec<bool>,
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

/// Encoded size of the smallest slot: `ATTRIBUTE_COUNT` absent ranges (a
/// tag byte each), an empty window's length, the dirty flag, the
/// generation.
const MIN_SLOT_BYTES: usize = ATTRIBUTE_COUNT + 8 + 1 + 8;

/// A range as compared everywhere in this module: by bit pattern, so a
/// sign-of-zero change counts as a change.
fn range_bits(range: Option<(f64, f64)>) -> Option<(u64, u64)> {
    range.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
}

/// One slot's determinants (shared) and everything derived from them
/// (exclusive), borrowed out of the arenas for a from-rows recount.
struct SlotView<'a> {
    ranges: &'a [Option<(f64, f64)>],
    window: &'a VecDeque<(MetricVector, Label)>,
    basis: &'a mut [Discretizer],
    discrete: &'a mut VecDeque<DiscreteVector>,
    tan: &'a mut TanStats,
    fallback: &'a mut [f64],
    combined: &'a mut [f64],
}

impl SlotView<'_> {
    /// The count-from-rows routine: refits the basis from the ranges,
    /// re-discretizes the window and recounts the slot's arenas from
    /// zero, in place. `combined` is empty for [`MarkovKind::Simple`].
    fn recount(&mut self, n: usize) {
        for (d, range) in self.basis.iter_mut().zip(self.ranges) {
            *d = Discretizer::fit_span(*range, n);
        }
        self.tan.clear();
        self.discrete.clear();
        for (v, label) in self.window {
            let row: DiscreteVector = AttributeKind::ALL
                .iter()
                .zip(self.basis.iter())
                .map(|(&attr, d)| d.discretize(v.get(attr)))
                .collect();
            self.tan.add_row(&row, *label);
            self.discrete.push_back(row);
        }
        let two_dep = !self.combined.is_empty();
        self.fallback.fill(0.0);
        self.combined.fill(0.0);
        // The same flat addressing as the delta kernels: i walks
        // 1..len, rows are ATTRIBUTE_COUNT wide, symbols < n.
        for i in 1..self.discrete.len() {
            for a in 0..ATTRIBUTE_COUNT {
                // xtask-allow: index-in-loop -- i >= 1, rows ATTRIBUTE_COUNT wide
                let prev1 = self.discrete[i - 1][a];
                // xtask-allow: index-in-loop -- i < len
                let next = self.discrete[i][a];
                // xtask-allow: index-in-loop -- symbols < n from the discretizer
                self.fallback[a * n * n + prev1 * n + next] += 1.0;
                if two_dep && i >= 2 {
                    // xtask-allow: index-in-loop -- i >= 2 checked on this branch
                    let prev2 = self.discrete[i - 2][a];
                    // xtask-allow: index-in-loop -- symbols < n from the discretizer
                    self.combined[a * n * n * n + (prev2 * n + prev1) * n + next] += 1.0;
                }
            }
        }
    }
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
        let n = config.bins;
        let combined_len = match config.markov {
            MarkovKind::Simple => 0,
            MarkovKind::TwoDependent => slots * ATTRIBUTE_COUNT * n * n * n,
        };
        FleetTrainer {
            config: config.clone(),
            slots,
            combined: vec![0.0; combined_len],
            fallback: vec![0.0; slots * ATTRIBUTE_COUNT * n * n],
            tan: (0..slots)
                .map(|_| TanStats::with_uniform_bins(ATTRIBUTE_COUNT, n))
                .collect(),
            ranges: vec![None; slots * ATTRIBUTE_COUNT],
            basis: (0..slots * ATTRIBUTE_COUNT)
                .map(|_| Discretizer::fit_span(None, n))
                .collect(),
            windows: (0..slots).map(|_| VecDeque::new()).collect(),
            discrete: (0..slots).map(|_| VecDeque::new()).collect(),
            dirty: vec![false; slots],
            generation: vec![0; slots],
            cache: (0..slots).map(|_| None).collect(),
        }
    }

    /// Serializes what determines the trainer: the configuration, then per
    /// slot its `ATTRIBUTE_COUNT` ranges, its window (length, then the
    /// labeled samples), its dirty flag and its generation. No count
    /// travels; see the module docs.
    pub fn store_state(&self, w: &mut Writer) {
        self.config.store(w);
        w.put_usize(self.slots);
        let per_slot = self
            .ranges
            .chunks(ATTRIBUTE_COUNT)
            .zip(&self.windows)
            .zip(self.dirty.iter().zip(&self.generation));
        for ((ranges, window), (dirty, generation)) in per_slot {
            for range in ranges {
                range.store(w);
            }
            window.store(w);
            dirty.store(w);
            generation.store(w);
        }
    }

    /// Restores a trainer written by [`FleetTrainer::store_state`]. The
    /// counts are not in the image: every clean, non-empty slot is
    /// recounted from its window, sharded over the workers of `par`
    /// exactly like [`FleetTrainer::refresh`] (so the result does not
    /// depend on the worker count), and dirty slots stay dirty and
    /// uncounted, as they were in the process that wrote the image.
    ///
    /// # Errors
    ///
    /// [`PersistError::Invalid`] when the image promises more slots or
    /// samples than its remaining bytes can hold (checked before anything
    /// is allocated for them) or stores a range that is not the fold of
    /// its own window; any other [`PersistError`] on a torn buffer, an
    /// unknown tag or a bin count [`PredictorConfig`] refuses to load.
    pub fn load_state(
        r: &mut Reader<'_>,
        par: &prepare_par::ParConfig,
    ) -> Result<Self, PersistError> {
        let config = PredictorConfig::load(r)?;
        let slots = r.get_usize()?;
        if slots == 0 || slots > r.remaining() / MIN_SLOT_BYTES {
            return Err(PersistError::Invalid("FleetTrainer slot count"));
        }
        let mut trainer = FleetTrainer::new(slots, &config);
        let per_slot = trainer
            .ranges
            .chunks_mut(ATTRIBUTE_COUNT)
            .zip(&mut trainer.windows)
            .zip(trainer.dirty.iter_mut().zip(&mut trainer.generation));
        for ((ranges, window), (dirty, generation)) in per_slot {
            for range in ranges.iter_mut() {
                *range = Persist::load(r)?;
            }
            let len = r.get_usize()?;
            if len > r.remaining() / SAMPLE_BYTES {
                return Err(PersistError::Invalid("FleetTrainer window length"));
            }
            window.reserve(len);
            for _ in 0..len {
                window.push_back(Persist::load(r)?);
            }
            *dirty = Persist::load(r)?;
            *generation = Persist::load(r)?;
            // `retire_front` and the basis refit both trust the ranges to
            // be the fold of the window; hold the image to that.
            for (range, &attr) in ranges.iter().zip(&AttributeKind::ALL) {
                if range_bits(*range) != range_bits(Self::scan_range(window, attr)) {
                    return Err(PersistError::Invalid("FleetTrainer range"));
                }
            }
        }
        trainer.recount_slots(par, |dirty, window| !dirty && !window.is_empty());
        Ok(trainer)
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of retained samples in `slot`'s window.
    pub fn window_len(&self, slot: usize) -> usize {
        self.windows[slot].len()
    }

    /// Whether `slot`'s maintained counts are stale (its basis shifted
    /// since the last rebuild).
    pub fn is_dirty(&self, slot: usize) -> bool {
        self.dirty[slot]
    }

    fn fb_slice(&mut self, slot: usize, attr: usize) -> &mut [f64] {
        let n2 = self.config.bins * self.config.bins;
        let off = (slot * ATTRIBUTE_COUNT + attr) * n2;
        &mut self.fallback[off..off + n2]
    }

    fn comb_slice(&mut self, slot: usize, attr: usize) -> &mut [f64] {
        let n3 = self.config.bins * self.config.bins * self.config.bins;
        let off = (slot * ATTRIBUTE_COUNT + attr) * n3;
        &mut self.combined[off..off + n3]
    }

    /// Appends one labeled sample to `slot`'s window. If the sample stays
    /// inside the slot's observed value ranges the maintained counts are
    /// updated in place (the delta fast path); a range-widening sample
    /// shifts the discretization basis instead, marking the slot dirty
    /// for the next [`FleetTrainer::refresh`].
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn push(&mut self, slot: usize, values: &MetricVector, label: Label) {
        assert!(slot < self.slots, "slot {slot} out of range");
        if let Some(g) = self.generation.get_mut(slot) {
            *g = g.wrapping_add(1);
        }
        self.windows[slot].push_back((*values, label));

        // Running min/max update — the same left-fold `Discretizer::fit`
        // performs, one element at a time. A bit-level endpoint change
        // means the refit basis may differ: mark dirty.
        let mut range_changed = false;
        for (a, &attr) in AttributeKind::ALL.iter().enumerate() {
            let v = values.get(attr);
            if !v.is_finite() {
                continue;
            }
            // xtask-allow: index-in-loop -- arena offset: slot asserted in range, a < ATTRIBUTE_COUNT
            let r = &mut self.ranges[slot * ATTRIBUTE_COUNT + a];
            let (nlo, nhi) = match *r {
                None => (v, v),
                Some((lo, hi)) => (lo.min(v), hi.max(v)),
            };
            if range_bits(*r) != range_bits(Some((nlo, nhi))) {
                range_changed = true;
            }
            *r = Some((nlo, nhi));
        }
        if range_changed {
            self.dirty[slot] = true;
        }
        if self.dirty[slot] {
            return;
        }

        let row: DiscreteVector = AttributeKind::ALL
            .iter()
            .enumerate()
            .map(|(a, &attr)| self.basis[slot * ATTRIBUTE_COUNT + a].discretize(values.get(attr)))
            .collect();
        self.apply_push_deltas(slot, &row, label);
        self.discrete[slot].push_back(row);
    }

    /// The delta-apply kernel of [`FleetTrainer::push`]: adds the new
    /// row's TAN statistics and Markov transition counts (the leading
    /// first-order transition, plus the combined-state transition once
    /// two predecessors exist) directly into the arenas.
    // xtask: hot-path
    fn apply_push_deltas(&mut self, slot: usize, row: &DiscreteVector, label: Label) {
        self.tan[slot].add_row(row, label);
        let n = self.config.bins;
        let len = self.discrete[slot].len();
        if len == 0 {
            return;
        }
        let two_dep = self.config.markov == MarkovKind::TwoDependent;
        // Deliberate flat-arena addressing: rows are ATTRIBUTE_COUNT wide
        // by construction, symbols are < n from the discretizer, and slot
        // is asserted in range by the caller.
        for (a, &next) in row.iter().enumerate() {
            // xtask-allow: index-in-loop -- len = discrete[slot].len() >= 1 on this path
            let prev1 = self.discrete[slot][len - 1][a];
            // xtask-allow: index-in-loop -- symbols < n from the discretizer
            self.fb_slice(slot, a)[prev1 * n + next] += 1.0;
            if two_dep && len >= 2 {
                // xtask-allow: index-in-loop -- len >= 2 checked on this branch
                let prev2 = self.discrete[slot][len - 2][a];
                // xtask-allow: index-in-loop -- symbols < n from the discretizer
                self.comb_slice(slot, a)[(prev2 * n + prev1) * n + next] += 1.0;
            }
        }
    }

    /// Retires the oldest sample of `slot`'s window — the "samples that
    /// left the window" half of a delta retrain. On the fast path the
    /// sample's counts are subtracted exactly (integer-valued `f64`, so
    /// the arena returns to its pre-[`push`](FleetTrainer::push) bits);
    /// if the retired sample held an attribute's min or max the range is
    /// rescanned and a shrink marks the slot dirty.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or its window is empty.
    pub fn retire_front(&mut self, slot: usize) {
        assert!(slot < self.slots, "slot {slot} out of range");
        if let Some(g) = self.generation.get_mut(slot) {
            *g = g.wrapping_add(1);
        }
        let (values, label) = self.windows[slot]
            .pop_front()
            .expect("retiring from an empty window"); // xtask-allow: expect -- documented panic: the window must be non-empty

        let mut range_changed = false;
        for (a, &attr) in AttributeKind::ALL.iter().enumerate() {
            let v = values.get(attr);
            if !v.is_finite() {
                continue;
            }
            // xtask-allow: index-in-loop -- arena offset: slot asserted in range, a < ATTRIBUTE_COUNT
            let r = &mut self.ranges[slot * ATTRIBUTE_COUNT + a];
            let Some((lo, hi)) = *r else {
                // xtask-allow: unreachable -- a finite value was folded into this range at push time
                unreachable!("a finite value was pushed, the range cannot be empty")
            };
            // A value strictly inside the range cannot have been an
            // endpoint of the fold; only endpoint hits need a rescan.
            if lo < v && v < hi {
                continue;
            }
            // xtask-allow: index-in-loop -- slot asserted in range above
            let rescanned = Self::scan_range(&self.windows[slot], attr);
            if range_bits(rescanned) != range_bits(Some((lo, hi))) {
                range_changed = true;
            }
            *r = rescanned;
        }
        if range_changed {
            self.dirty[slot] = true;
        }
        if self.dirty[slot] {
            return;
        }

        let front = self.discrete[slot]
            .pop_front()
            .expect("clean slot keeps discrete rows in sync with the window"); // xtask-allow: expect -- clean-slot invariant: discrete mirrors the window
        self.apply_retire_deltas(slot, &front, label);
    }

    /// The delta-apply kernel of [`FleetTrainer::retire_front`]:
    /// subtracts the retired row's TAN statistics, its leading
    /// first-order transition, and (for the 2-dependent chain) the one
    /// combined-state transition that loses its full context. The
    /// second remaining row's first-order transition stays — it simply
    /// becomes the new leading transition.
    // xtask: hot-path
    fn apply_retire_deltas(&mut self, slot: usize, front: &DiscreteVector, label: Label) {
        self.tan[slot].retire_row(front, label);
        let n = self.config.bins;
        if self.discrete[slot].is_empty() {
            return;
        }
        let two_dep = self.config.markov == MarkovKind::TwoDependent;
        let remaining = self.discrete[slot].len();
        // Deliberate flat-arena addressing, mirroring `apply_push_deltas`.
        for (a, &d0) in front.iter().enumerate() {
            // xtask-allow: index-in-loop -- non-empty checked on this path
            let d1 = self.discrete[slot][0][a];
            // xtask-allow: index-in-loop -- symbols < n from the discretizer
            let cell = &mut self.fb_slice(slot, a)[d0 * n + d1];
            assert!(*cell >= 1.0, "retiring an unrecorded transition");
            *cell -= 1.0;
            if two_dep && remaining >= 2 {
                // xtask-allow: index-in-loop -- remaining >= 2 checked on this branch
                let d2 = self.discrete[slot][1][a];
                // xtask-allow: index-in-loop -- symbols < n from the discretizer
                let cell = &mut self.comb_slice(slot, a)[(d0 * n + d1) * n + d2];
                assert!(*cell >= 1.0, "retiring an unrecorded transition");
                *cell -= 1.0;
            }
        }
    }

    /// The exact range fold of [`Discretizer::fit`] over a window's
    /// remaining samples: filter to finite, left-fold min/max.
    fn scan_range(
        window: &VecDeque<(MetricVector, Label)>,
        attr: AttributeKind,
    ) -> Option<(f64, f64)> {
        let mut range: Option<(f64, f64)> = None;
        for (v, _) in window {
            let x = v.get(attr);
            if !x.is_finite() {
                continue;
            }
            range = Some(match range {
                None => (x, x),
                Some((lo, hi)) => (lo.min(x), hi.max(x)),
            });
        }
        range
    }

    /// Rebuilds every dirty slot from its retained window: refits the
    /// basis from the maintained ranges, re-discretizes the window, and
    /// re-counts the arenas. Dirty slots are sharded over contiguous
    /// chunks ([`prepare_par::chunk_ranges`]); each rebuild reads only
    /// its own slot's window, so the result is bit-identical for every
    /// worker count.
    pub fn refresh(&mut self, par: &prepare_par::ParConfig) {
        if self.dirty.contains(&true) {
            self.recount_slots(par, |dirty, _| dirty);
            self.dirty.fill(false);
        }
    }

    /// Recounts, in place, every slot whose dirty flag and window
    /// `select` accepts. The selected slots are split into at most
    /// `par.workers` contiguous runs; each worker owns the arena ranges
    /// of its run and nothing else.
    fn recount_slots(
        &mut self,
        par: &prepare_par::ParConfig,
        select: impl Fn(bool, &VecDeque<(MetricVector, Label)>) -> bool,
    ) {
        let n = self.config.bins;
        let fallback_len = ATTRIBUTE_COUNT * n * n;
        // `Simple` keeps no combined arena: its slots get empty slices.
        let mut combined = self.combined.chunks_mut((fallback_len * n).max(1));
        let views: Vec<SlotView<'_>> = self
            .ranges
            .chunks(ATTRIBUTE_COUNT)
            .zip(&self.windows)
            .zip(self.basis.chunks_mut(ATTRIBUTE_COUNT))
            .zip(self.discrete.iter_mut().zip(&mut self.tan))
            .zip(self.fallback.chunks_mut(fallback_len))
            .zip(&self.dirty)
            .filter_map(
                |(((((ranges, window), basis), (discrete, tan)), fallback), &dirty)| {
                    let combined = combined.next().unwrap_or_default();
                    select(dirty, window).then_some(SlotView {
                        ranges,
                        window,
                        basis,
                        discrete,
                        tan,
                        fallback,
                        combined,
                    })
                },
            )
            .collect();
        let mut views = views.into_iter();
        let mut shards: Vec<Vec<SlotView<'_>>> =
            prepare_par::chunk_ranges(views.len(), par.workers)
                .into_iter()
                .map(|run| views.by_ref().take(run.len()).collect())
                .collect();
        prepare_par::par_for_each_mut(par, &mut shards, |shard| {
            for view in shard {
                view.recount(n);
            }
        });
    }

    /// Materializes a trained predictor from `slot`'s maintained state:
    /// the basis becomes the discretizer, the arena slices become Markov
    /// models, and the TAN statistics become the classifier — every
    /// count→probability derivation shared with the from-scratch path,
    /// so the result is bit-identical to
    /// [`FleetTrainer::train_reference`].
    ///
    /// # Errors
    ///
    /// The same conditions as [`AnomalyPredictor::train`]: an empty
    /// window or single-class labels.
    ///
    /// # Panics
    ///
    /// Panics if the slot is dirty — call [`FleetTrainer::refresh`]
    /// first.
    pub fn derive(&self, slot: usize) -> Result<AnomalyPredictor, TrainError> {
        assert!(
            !self.dirty[slot],
            "deriving from a dirty slot; call refresh first"
        );
        if self.windows[slot].is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        let classifier = self.tan[slot].classifier()?;
        let discretizer = VectorDiscretizer::from_parts(
            self.basis[slot * ATTRIBUTE_COUNT..(slot + 1) * ATTRIBUTE_COUNT].to_vec(),
        );
        let n = self.config.bins;
        let n2 = n * n;
        let n3 = n2 * n;
        let observations = self.windows[slot].len();
        let value_models: Vec<ValueModel> = (0..ATTRIBUTE_COUNT)
            .map(|a| {
                let fb_off = (slot * ATTRIBUTE_COUNT + a) * n2;
                let comb: &[f64] = match self.config.markov {
                    MarkovKind::Simple => &[],
                    MarkovKind::TwoDependent => {
                        let off = (slot * ATTRIBUTE_COUNT + a) * n3;
                        &self.combined[off..off + n3]
                    }
                };
                ValueModel::from_parts(
                    self.config.markov,
                    n,
                    comb,
                    &self.fallback[fb_off..fb_off + n2],
                    observations,
                )
            })
            .collect();
        Ok(AnomalyPredictor::from_parts(
            self.config.clone(),
            discretizer,
            value_models,
            classifier,
        ))
    }

    /// Whether `slot` holds a cached derivation that is still valid (no
    /// [`push`](FleetTrainer::push) or
    /// [`retire_front`](FleetTrainer::retire_front) since it was
    /// derived). Serving a valid cache entry skips the count→probability
    /// derivation entirely.
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
    /// Panics if any slot is dirty or out of range — call
    /// [`FleetTrainer::refresh`] first.
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

    /// The from-scratch referee: retrains `slot` by replaying its
    /// retained window through the ordinary
    /// [`AnomalyPredictor::train_labeled_par`] path (serially), ignoring
    /// every maintained statistic. [`FleetTrainer::derive`] must equal
    /// this bit-for-bit; the differential suite and the equivalence
    /// proptests hold the two paths against each other.
    ///
    /// # Errors
    ///
    /// The same conditions as [`AnomalyPredictor::train`].
    pub fn train_reference(&self, slot: usize) -> Result<AnomalyPredictor, TrainError> {
        let rows: Vec<(MetricVector, Label)> = self.windows[slot].iter().copied().collect();
        AnomalyPredictor::train_labeled_par(&rows, &self.config, &prepare_par::ParConfig::serial())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::ramp_fixture;
    use prepare_metrics::{SloLog, TimeSeries};
    use proptest::prelude::*;

    fn labeled_stream(samples: usize, seed: u64) -> Vec<(MetricVector, Label)> {
        // A deterministic mixed-scale stream: values grow occasionally so
        // both the delta fast path and the dirty/rebuild path are hit.
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
    fn derive_equals_reference_after_pushes() {
        for kind in [MarkovKind::Simple, MarkovKind::TwoDependent] {
            let config = PredictorConfig {
                markov: kind,
                ..PredictorConfig::default()
            };
            let mut trainer = FleetTrainer::new(1, &config);
            for (v, label) in labeled_stream(120, 3) {
                trainer.push(0, &v, label);
            }
            trainer.refresh(&prepare_par::ParConfig::serial());
            assert_same_outcome(
                &trainer.derive(0),
                &trainer.train_reference(0),
                &format!("{kind:?}"),
            );
        }
    }

    #[test]
    fn derive_equals_anomaly_train_on_a_series() {
        // The controller-integration premise: pushing each sample with
        // its ingest-time SLO label reproduces series+log training.
        let (series, slo) = ramp_fixture(400, 5, 40, 80.0);
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(1, &config);
        for s in series.iter() {
            trainer.push(
                0,
                &s.values,
                Label::from_violation(slo.is_violated_at(s.time)),
            );
        }
        trainer.refresh(&prepare_par::ParConfig::serial());
        let derived = trainer.derive(0).unwrap();
        let trained = AnomalyPredictor::train(&series, &slo, &config).unwrap();
        assert_eq!(derived, trained);
        assert_eq!(format!("{derived:?}"), format!("{trained:?}"));
    }

    #[test]
    fn sliding_window_equals_reference() {
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(1, &config);
        let stream = labeled_stream(200, 11);
        for (i, (v, label)) in stream.iter().enumerate() {
            trainer.push(0, v, *label);
            if i >= 80 {
                trainer.retire_front(0);
            }
            if i % 23 == 0 {
                trainer.refresh(&prepare_par::ParConfig::serial());
                assert_same_outcome(
                    &trainer.derive(0),
                    &trainer.train_reference(0),
                    &format!("step {i}"),
                );
            }
        }
    }

    #[test]
    fn empty_window_is_empty_dataset_error() {
        let trainer = FleetTrainer::new(2, &PredictorConfig::default());
        assert_eq!(trainer.derive(0), Err(TrainError::EmptyDataset));
        assert_eq!(trainer.train_reference(0), Err(TrainError::EmptyDataset));
    }

    #[test]
    fn single_sample_matches_reference_error() {
        let mut trainer = FleetTrainer::new(1, &PredictorConfig::default());
        trainer.push(0, &MetricVector::zeros(), Label::Normal);
        trainer.refresh(&prepare_par::ParConfig::serial());
        assert_same_outcome(
            &trainer.derive(0),
            &trainer.train_reference(0),
            "single sample",
        );
        assert!(trainer.derive(0).is_err(), "one sample is single-class");
    }

    #[test]
    fn full_eviction_restores_the_empty_state() {
        let config = PredictorConfig::default();
        let fresh = FleetTrainer::new(1, &config);
        let mut trainer = FleetTrainer::new(1, &config);
        for (v, label) in labeled_stream(60, 5) {
            trainer.push(0, &v, label);
        }
        while trainer.window_len(0) > 0 {
            trainer.retire_front(0);
        }
        trainer.refresh(&prepare_par::ParConfig::serial());
        assert_eq!(trainer.derive(0), Err(TrainError::EmptyDataset));
        // The arenas are all-zero again, bit for bit.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&trainer.fallback), bits(&fresh.fallback));
        assert_eq!(bits(&trainer.combined), bits(&fresh.combined));
        assert_eq!(trainer.tan[0], fresh.tan[0]);
    }

    #[test]
    fn retiring_an_interior_sample_restores_the_arenas_bit_for_bit() {
        // T1 trains on [mid, lo, hi, tail…]; retiring `mid` (strictly
        // inside (lo, hi), so the clean delta fast path) must leave
        // exactly the arena bytes of T2, which never saw `mid` at all.
        let config = PredictorConfig::default();
        let mid = MetricVector::from_fn(|_| 250.0);
        let lo = MetricVector::from_fn(|_| 0.0);
        let hi = MetricVector::from_fn(|_| 500.0);
        let tail: Vec<(MetricVector, Label)> = labeled_stream(50, 4)
            .into_iter()
            .map(|(v, l)| (MetricVector::from_fn(|a| v.get(a).clamp(1.0, 499.0)), l))
            .collect();

        let mut t1 = FleetTrainer::new(1, &config);
        t1.push(0, &mid, Label::Normal);
        t1.push(0, &lo, Label::Normal);
        t1.push(0, &hi, Label::Abnormal);
        for (v, l) in &tail {
            t1.push(0, v, *l);
        }
        t1.refresh(&prepare_par::ParConfig::serial());
        assert!(!t1.is_dirty(0));
        t1.retire_front(0);
        assert!(
            !t1.is_dirty(0),
            "interior retire must stay on the fast path"
        );

        let mut t2 = FleetTrainer::new(1, &config);
        t2.push(0, &lo, Label::Normal);
        t2.push(0, &hi, Label::Abnormal);
        for (v, l) in &tail {
            t2.push(0, v, *l);
        }
        t2.refresh(&prepare_par::ParConfig::serial());

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&t1.fallback), bits(&t2.fallback));
        assert_eq!(bits(&t1.combined), bits(&t2.combined));
        assert_eq!(t1.tan[0], t2.tan[0]);
        assert_same_outcome(&t1.derive(0), &t2.derive(0), "post-retire");
    }

    #[test]
    #[should_panic(expected = "retiring from an empty window")]
    fn retire_from_empty_window_panics() {
        let mut trainer = FleetTrainer::new(1, &PredictorConfig::default());
        trainer.retire_front(0);
    }

    #[test]
    #[should_panic(expected = "dirty slot")]
    fn derive_on_dirty_slot_panics() {
        let mut trainer = FleetTrainer::new(1, &PredictorConfig::default());
        trainer.push(0, &MetricVector::zeros(), Label::Normal);
        assert!(trainer.is_dirty(0), "first push always shifts the basis");
        let _ = trainer.derive(0);
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
        for workers in [1usize, 2, 7] {
            let mut clone = fleet.clone();
            clone.refresh(&prepare_par::ParConfig::with_workers(workers));
            for (slot, stream) in streams.iter().enumerate() {
                let mut solo = FleetTrainer::new(1, &config);
                for (v, label) in stream {
                    solo.push(0, v, *label);
                }
                solo.refresh(&prepare_par::ParConfig::serial());
                assert_same_outcome(
                    &clone.derive(slot),
                    &solo.derive(0),
                    &format!("slot {slot} workers {workers}"),
                );
            }
        }
    }

    #[test]
    fn retire_that_shrinks_the_range_marks_dirty_and_rebuilds_exactly() {
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(1, &config);
        // The first sample is the global max; retiring it must shrink
        // the range and force a rebuild.
        let spike = MetricVector::from_fn(|_| 1000.0);
        trainer.push(0, &spike, Label::Abnormal);
        for (v, label) in labeled_stream(80, 2) {
            trainer.push(0, &v, label);
        }
        trainer.refresh(&prepare_par::ParConfig::serial());
        assert!(!trainer.is_dirty(0));
        trainer.retire_front(0);
        assert!(trainer.is_dirty(0), "range shrank: counts are stale");
        trainer.refresh(&prepare_par::ParConfig::serial());
        assert_same_outcome(
            &trainer.derive(0),
            &trainer.train_reference(0),
            "post-shrink rebuild",
        );
    }

    #[test]
    fn trainer_matches_train_par_for_all_worker_counts() {
        let (series, slo): (TimeSeries, SloLog) = ramp_fixture(300, 5, 40, 80.0);
        let config = PredictorConfig::default();
        let mut trainer = FleetTrainer::new(1, &config);
        for s in series.iter() {
            trainer.push(
                0,
                &s.values,
                Label::from_violation(slo.is_violated_at(s.time)),
            );
        }
        trainer.refresh(&prepare_par::ParConfig::serial());
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
        trainer.refresh(&prepare_par::ParConfig::serial());
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
        trainer.refresh(&prepare_par::ParConfig::serial());
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
        base.refresh(&prepare_par::ParConfig::serial());
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
        trainer.refresh(&prepare_par::ParConfig::serial());
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

    fn restore(bytes: &[u8], workers: usize) -> Result<FleetTrainer, PersistError> {
        let mut r = Reader::new(bytes);
        let par = prepare_par::ParConfig::with_workers(workers);
        let trainer = FleetTrainer::load_state(&mut r, &par)?;
        if !r.is_exhausted() {
            return Err(PersistError::Invalid("trailing bytes after trainer"));
        }
        Ok(trainer)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One slot's fallback bits, combined bits, TAN statistics and basis.
    type Derived = (Vec<u64>, Vec<u64>, TanStats, Vec<Discretizer>);

    /// Everything the image leaves out, for the slots that are clean (a
    /// dirty slot's counts are stale by definition and never read).
    fn derived_state(t: &FleetTrainer) -> Vec<Derived> {
        let n2 = ATTRIBUTE_COUNT * t.config.bins * t.config.bins;
        let n3 = n2 * t.config.bins;
        (0..t.slots)
            .filter(|&s| !t.dirty[s])
            .map(|s| {
                let combined = match t.config.markov {
                    MarkovKind::Simple => Vec::new(),
                    MarkovKind::TwoDependent => bits(&t.combined[s * n3..(s + 1) * n3]),
                };
                (
                    bits(&t.fallback[s * n2..(s + 1) * n2]),
                    combined,
                    t.tan[s].clone(),
                    t.basis[s * ATTRIBUTE_COUNT..(s + 1) * ATTRIBUTE_COUNT].to_vec(),
                )
            })
            .collect()
    }

    /// A restored trainer is observationally identical: it derives the
    /// same models, and continuing the stream (pushes, retirements,
    /// refreshes) on both copies keeps them in lockstep — the crash
    /// recovery contract for the training plane.
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
        // Leave slot 2 dirty on purpose: dirtiness must survive restore.
        trainer.refresh(&prepare_par::ParConfig::serial());
        trainer.push(2, &MetricVector::from_fn(|_| 9999.0), Label::Abnormal);
        assert!(trainer.is_dirty(2));

        let bytes = image(&trainer);
        let mut restored = restore(&bytes, 1).unwrap();
        assert!(restored.is_dirty(2));
        assert_eq!(image(&restored), bytes);
        assert_eq!(derived_state(&restored), derived_state(&trainer));
        assert_same_outcome(&restored.derive(0), &trainer.derive(0), "restored slot 0");

        for (slot, stream) in streams.iter().enumerate() {
            for (v, label) in &stream[90..] {
                trainer.push(slot, v, *label);
                restored.push(slot, v, *label);
            }
            trainer.retire_front(slot);
            restored.retire_front(slot);
        }
        trainer.refresh(&prepare_par::ParConfig::serial());
        restored.refresh(&prepare_par::ParConfig::serial());
        assert_eq!(image(&restored), image(&trainer));
        for slot in 0..3 {
            assert_same_outcome(
                &restored.derive(slot),
                &trainer.derive(slot),
                &format!("continued slot {slot}"),
            );
        }
    }

    /// The image is the windows and little else: nothing per slot until a
    /// sample arrives, then one encoded sample per push.
    #[test]
    fn image_size_follows_the_windows() {
        let mut trainer = FleetTrainer::new(8, &PredictorConfig::default());
        let empty = image(&trainer).len();
        // The configuration (bins, interval, chain tag), the slot count,
        // then the smallest possible slot eight times.
        assert_eq!(empty, 8 + 8 + 1 + 8 + 8 * MIN_SLOT_BYTES);
        assert!(empty < 8 * 1024, "{empty} bytes for 8 empty slots");
        // The first sample also materializes the slot's ranges.
        let v = MetricVector::from_fn(|a| a.index() as f64);
        trainer.push(3, &v, Label::Normal);
        let one = image(&trainer).len();
        assert_eq!(one - empty, SAMPLE_BYTES + ATTRIBUTE_COUNT * 16);
        for k in 1..40 {
            trainer.push(3, &v, Label::from_violation(k % 3 == 0));
            assert_eq!(image(&trainer).len(), one + k * SAMPLE_BYTES);
        }
    }

    #[test]
    fn load_rejects_inconsistent_images() {
        let mut trainer = FleetTrainer::new(2, &PredictorConfig::default());
        for (v, label) in labeled_stream(40, 6) {
            trainer.push(0, &v, label);
        }
        let good = image(&trainer);
        assert!(restore(&good, 1).is_ok());
        let patched = |off: usize, word: u64| {
            let mut bytes = good.clone();
            bytes[off..off + 8].copy_from_slice(&word.to_le_bytes());
            restore(&bytes, 1).map(|_| ())
        };
        // Layout: bins u64, sampling interval u64, markov tag, slot count,
        // then slot 0: 13 × (tag, lo, hi), window length, samples.
        let slots_at = 8 + 8 + 1;
        let range0_at = slots_at + 8;
        let window_len_at = range0_at + ATTRIBUTE_COUNT * 17;
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
        // A range that is not the fold of its window: nudged, or absent.
        assert_eq!(
            patched(range0_at + 1, (-1.0f64).to_bits()),
            Err(PersistError::Invalid("FleetTrainer range"))
        );
        let mut bytes = good.clone();
        bytes.drain(range0_at + 1..range0_at + 17);
        bytes[range0_at] = 0;
        assert_eq!(
            restore(&bytes, 1).map(|_| ()),
            Err(PersistError::Invalid("FleetTrainer range"))
        );
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
        trainer.refresh(&prepare_par::ParConfig::serial());
        trainer.push(1, &MetricVector::from_fn(|_| 4.0), Label::Abnormal);
        let good = image(&trainer);
        for cut in 0..good.len() {
            assert!(restore(&good[..cut], 1).is_err(), "cut at {cut}");
        }
        let serial = prepare_par::ParConfig::serial();
        let mut loaded = 0;
        for bit in 0..good.len() * 8 {
            let mut bytes = good.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let Ok(mut t) = restore(&bytes, 1) else {
                continue;
            };
            loaded += 1;
            for slot in 0..t.slots() {
                t.push(slot, &MetricVector::from_fn(|_| 2.5), Label::Normal);
                t.retire_front(slot);
                t.refresh(&serial);
                assert_same_outcome(&t.derive(slot), &t.train_reference(slot), "damaged");
            }
        }
        assert!(loaded > 0, "some flips only move a sample inside its range");
    }

    proptest! {
        // Random labeled streams with occasional spikes: after an
        // arbitrary interleaving of pushes and front-retirements, the
        // incremental derivation equals the from-scratch rebuild
        // exactly — including which error it returns.
        #[test]
        fn derive_always_equals_reference(input in arb_ops()) {
            let (kind, ops) = input;
            let config = PredictorConfig {
                markov: kind,
                ..PredictorConfig::default()
            };
            let mut trainer = FleetTrainer::new(SLOTS, &config);
            for op in &ops {
                apply(&mut trainer, op);
            }
            trainer.refresh(&prepare_par::ParConfig::serial());
            for slot in 0..SLOTS {
                prop_assert!(same_outcome(&trainer.derive(slot), &trainer.train_reference(slot)));
            }
        }

        // Checkpoint anywhere in a random sequence (empty and one-sample
        // windows, dirty slots, fully evicted ones), restore under any
        // worker count, replay the tail on both copies: the two trainers
        // cannot be told apart, by their images or by what they derive.
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
            for workers in [1usize, 2, 7] {
                let mut live = live.clone();
                let mut restored = restore(&bytes, workers).expect("own image loads");
                prop_assert_eq!(&image(&restored), &bytes);
                prop_assert_eq!(derived_state(&restored), derived_state(&live));
                for op in &ops[cut..] {
                    apply(&mut live, op);
                    apply(&mut restored, op);
                }
                prop_assert_eq!(&restored.dirty, &live.dirty);
                prop_assert_eq!(&restored.generation, &live.generation);
                prop_assert_eq!(image(&restored), image(&live));
                restored.refresh(&prepare_par::ParConfig::with_workers(workers));
                for slot in 0..SLOTS {
                    prop_assert!(same_outcome(&restored.derive(slot), &restored.train_reference(slot)));
                }
            }
        }
    }

    const SLOTS: usize = 2;

    #[derive(Debug, Clone)]
    enum Op {
        Push(usize, Vec<f64>, Label),
        Retire(usize),
        Refresh,
    }

    fn apply(trainer: &mut FleetTrainer, op: &Op) {
        match op {
            Op::Push(slot, v, label) => {
                let vector = MetricVector::from_fn(|a| v[a.index() % v.len()]);
                trainer.push(*slot, &vector, *label);
            }
            Op::Retire(slot) => {
                if trainer.window_len(*slot) > 0 {
                    trainer.retire_front(*slot);
                }
            }
            Op::Refresh => trainer.refresh(&prepare_par::ParConfig::serial()),
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
                2 => Op::Refresh,
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
