//! The 2-dependent Markov chain value predictor (paper §II-B, Fig. 2).
//!
//! "By using this model, transitions from each value depend on both the
//! current value and the prior value. [...] We can construct nine combined
//! states after combining every two single states to transform a
//! non-Markovian attribute into a Markovian one."
//!
//! The chain is first-order over combined states `(prev, cur)`; a
//! transition emits the next single state `next`, moving to combined state
//! `(cur, next)`. Prediction propagates a distribution over the `n²`
//! combined states and marginalizes onto the current (most recent) single
//! state.

use crate::snapshot::TransitionTable;
use crate::{SimpleMarkov, StateDistribution, ValuePredictor};
use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
use std::fmt;
use std::sync::OnceLock;

/// Second-order Markov chain realized over combined `(prev, cur)` states.
///
/// Combined states never observed fall back to the first-order statistics
/// (which are always maintained alongside), so sparse training data
/// degrades gracefully to [`SimpleMarkov`] behaviour instead of to a
/// uniform guess.
///
/// The propagation hot path runs over a lazily-built frozen `n² × n`
/// [`TransitionTable`]: each `next_given(prev, cur)` row — including the
/// first-order-fallback rows, which the naive path re-derives by cloning
/// the whole fallback chain *per live cell per step* — is computed exactly
/// once, in the same arithmetic order, then reused. Propagation itself is
/// double-buffered (no per-step `vec![0.0; n*n]`). Outputs are
/// bit-identical to the kept naive path
/// ([`TwoDependentMarkov::predict_reference`]); the crate's differential
/// proptests assert it.
// xtask: checkpoint
#[derive(Clone)]
pub struct TwoDependentMarkov {
    n: usize,
    /// Flat transition counts out of combined states:
    /// `counts[(prev * n + cur) * n + next]`. Contiguous so arena-backed
    /// trainers can memcpy whole models in and out of struct-of-arrays
    /// storage.
    counts: Vec<f64>,
    /// First-order fallback for unseen combined states.
    fallback: SimpleMarkov,
    alpha: f64,
    prev: Option<usize>,
    current: Option<usize>,
    observations: usize,
    /// Frozen `n² × n` transition rows, built on first use after an
    /// observation and invalidated by `observe`/`reset_position`. Derived
    /// state only: excluded from `Debug` and `PartialEq`.
    table: OnceLock<TransitionTable>, // xtask: ephemeral -- derived snapshot, rebuilt lazily on first predict
}

impl fmt::Debug for TwoDependentMarkov {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TwoDependentMarkov")
            .field("n", &self.n)
            .field("counts", &self.counts)
            .field("fallback", &self.fallback)
            .field("alpha", &self.alpha)
            .field("prev", &self.prev)
            .field("current", &self.current)
            .field("observations", &self.observations)
            .finish()
    }
}

impl PartialEq for TwoDependentMarkov {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.counts == other.counts
            && self.fallback == other.fallback
            && self.alpha == other.alpha
            && self.prev == other.prev
            && self.current == other.current
            && self.observations == other.observations
    }
}

impl TwoDependentMarkov {
    /// Creates a predictor over `n` single states (`n²` combined states)
    /// with default smoothing (α = 0.02).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::with_smoothing(n, 0.02)
    }

    /// Creates a predictor with an explicit Laplace pseudo-count.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is not finite and non-negative.
    pub fn with_smoothing(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "state count must be positive");
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be >= 0");
        TwoDependentMarkov {
            n,
            counts: vec![0.0; n * n * n],
            fallback: SimpleMarkov::with_smoothing(n, alpha),
            alpha,
            prev: None,
            current: None,
            observations: 0,
            table: OnceLock::new(),
        }
    }

    /// Rebuilds a predictor from flat combined (`n³`) and first-order
    /// fallback (`n²`) transition counts — the constructor the
    /// arena-backed incremental trainer uses. The position anchor starts
    /// cleared, matching a freshly trained-then-`reset_position` model.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `alpha` is not finite and non-negative, or
    /// either counts vector has the wrong length.
    pub fn from_parts(
        n: usize,
        alpha: f64,
        counts: Vec<f64>,
        fallback_counts: Vec<f64>,
        observations: usize,
    ) -> Self {
        assert!(n > 0, "state count must be positive");
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be >= 0");
        assert_eq!(counts.len(), n * n * n, "combined counts must be n^3");
        TwoDependentMarkov {
            n,
            counts,
            fallback: SimpleMarkov::from_parts(n, alpha, fallback_counts, observations),
            alpha,
            prev: None,
            current: None,
            observations,
            table: OnceLock::new(),
        }
    }

    /// Read-only view of the flat combined transition counts
    /// (`counts[(prev * n + cur) * n + next]`).
    // xtask: taint-source count
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Read-only view of the first-order fallback's flat counts.
    pub fn fallback_counts(&self) -> &[f64] {
        self.fallback.counts()
    }

    /// Applies a +1 delta for a full-context transition
    /// `(prev, cur) → next`, updating the combined counts *and* the
    /// first-order fallback (`cur → next`) the way [`Self::observe`]
    /// would. Both the combined and the fallback snapshot are
    /// invalidated: the combined table's unseen rows are derived from
    /// fallback counts, so a fallback delta alone can go stale.
    ///
    /// # Panics
    ///
    /// Panics if any state is out of range.
    pub fn record_transition(&mut self, prev: usize, cur: usize, next: usize) {
        assert!(
            prev < self.n && cur < self.n && next < self.n,
            "state out of range"
        );
        self.counts[(prev * self.n + cur) * self.n + next] += 1.0;
        self.fallback.record_transition(cur, next);
        self.table.take();
    }

    /// Applies a −1 delta for a full-context transition, retiring one
    /// previously recorded `(prev, cur) → next` (and its fallback
    /// `cur → next`). `record` followed by `retire` restores both count
    /// arrays bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if any state is out of range or the combined cell is
    /// already zero.
    pub fn retire_transition(&mut self, prev: usize, cur: usize, next: usize) {
        assert!(
            prev < self.n && cur < self.n && next < self.n,
            "state out of range"
        );
        let cell = &mut self.counts[(prev * self.n + cur) * self.n + next];
        assert!(
            *cell >= 1.0,
            "retiring unrecorded transition ({prev}, {cur}) -> {next}"
        );
        *cell -= 1.0;
        self.fallback.retire_transition(cur, next);
        self.table.take();
    }

    /// Applies a +1 delta for a window's *leading* transition
    /// `cur → next` — the first step of a sequence, which has no
    /// two-state context and therefore lands only in the first-order
    /// fallback. Invalidates the combined snapshot too (its unseen rows
    /// read fallback counts).
    pub fn record_leading_transition(&mut self, cur: usize, next: usize) {
        self.fallback.record_transition(cur, next);
        self.table.take();
    }

    /// Retires a window's leading transition (see
    /// [`Self::record_leading_transition`]).
    pub fn retire_leading_transition(&mut self, cur: usize, next: usize) {
        self.fallback.retire_transition(cur, next);
        self.table.take();
    }

    /// Trains from a whole sequence (observing each element in order).
    pub fn train(&mut self, sequence: &[usize]) {
        for &s in sequence {
            self.observe(s);
        }
    }

    /// Number of combined states (`n²`).
    pub fn combined_states(&self) -> usize {
        self.n * self.n
    }

    /// Distribution over the next single state out of combined state
    /// `(prev, cur)`, falling back to first-order stats for unseen rows.
    fn next_given(&self, prev: usize, cur: usize) -> StateDistribution {
        let pc = prev * self.n + cur;
        let row = &self.counts[pc * self.n..(pc + 1) * self.n];
        let total: f64 = row.iter().sum();
        if total > 0.0 {
            let weights: Vec<f64> = row.iter().map(|c| c + self.alpha).collect();
            StateDistribution::from_weights(weights)
        } else {
            // Never saw this (prev, cur) pair: use the first-order view
            // from `cur`. The reference (non-snapshot) predict keeps the
            // exact historical arithmetic — and only derives the one live
            // row — so both the snapshot build and the naive path share it.
            let mut fb = self.fallback.clone();
            fb.reset_position();
            fb.observe(cur);
            fb.predict_reference(1)
        }
    }

    /// The frozen `n² × n` transition table: row `prev * n + cur` is
    /// [`TwoDependentMarkov::next_given`]`(prev, cur)`, baked exactly once
    /// (in combined-state order, with the naive derivation's exact
    /// arithmetic).
    fn table(&self) -> &TransitionTable {
        self.table.get_or_init(|| {
            TransitionTable::from_rows(
                self.n,
                (0..self.n * self.n).map(|pc| self.next_given(pc / self.n, pc % self.n)),
            )
        })
    }

    /// One propagation step over the frozen table:
    /// `dist[prev * n + cur]` → `out[cur * n + next]`. Cell visit order and
    /// per-cell accumulation order match
    /// [`TwoDependentMarkov::step_combined_reference`] exactly, so the
    /// result is bit-identical.
    // xtask: hot-path
    fn step_combined_into(&self, table: &TransitionTable, dist: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for (pc, &p) in dist.iter().enumerate() {
            // xtask-allow: float-eq -- skipping exactly-zero mass is an optimization, not a tolerance question
            if p == 0.0 {
                continue;
            }
            let cur = pc % self.n;
            let row = &mut out[cur * self.n..(cur + 1) * self.n];
            for (o, &w) in row.iter_mut().zip(table.row(pc)) {
                *o += p * w;
            }
        }
    }

    /// The pre-snapshot propagation step, kept verbatim as the
    /// differential reference: re-derives every live `next_given` row
    /// (cloning the fallback chain for unseen rows) and allocates a fresh
    /// `n²` buffer per step.
    fn step_combined_reference(&self, dist: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n * self.n];
        for prev in 0..self.n {
            for cur in 0..self.n {
                let p = dist[prev * self.n + cur];
                // xtask-allow: float-eq -- skipping exactly-zero mass is an optimization, not a tolerance question
                if p == 0.0 {
                    continue;
                }
                let next_dist = self.next_given(prev, cur);
                for next in 0..self.n {
                    out[cur * self.n + next] += p * next_dist.probability(next);
                }
            }
        }
        out
    }

    /// Marginal distribution over the current single state from a combined
    /// distribution.
    fn marginal_current(&self, dist: &[f64]) -> StateDistribution {
        let mut weights = vec![0.0; self.n];
        for prev in 0..self.n {
            for (cur, w) in weights.iter_mut().enumerate() {
                *w += dist[prev * self.n + cur];
            }
        }
        StateDistribution::from_weights(weights)
    }

    /// The anchoring combined state `(prev, cur)`, or `None` when nothing
    /// has been observed since the last reset.
    fn anchor(&self) -> Option<(usize, usize)> {
        match (self.prev, self.current) {
            (_, None) => None,
            (None, Some(c)) => Some((c, c)), // one observation: assume steady
            (Some(p), Some(c)) => Some((p, c)),
        }
    }

    /// The naive prediction path the snapshot engine is proven against:
    /// re-derives every `next_given` row per live cell per step and
    /// allocates per step. Kept public so the differential proptests and
    /// the `hotpath` benchmark can compare the optimized path against it
    /// bit for bit.
    pub fn predict_reference(&self, steps: usize) -> StateDistribution {
        let (prev, cur) = match self.anchor() {
            None => {
                // No data at all.
                return if steps == 0 {
                    StateDistribution::uniform(self.n)
                } else {
                    self.fallback.predict_reference(steps)
                };
            }
            Some(pc) => pc,
        };
        if steps == 0 {
            return StateDistribution::point(self.n, cur);
        }
        let mut dist = vec![0.0; self.n * self.n];
        dist[prev * self.n + cur] = 1.0;
        for _ in 0..steps {
            dist = self.step_combined_reference(&dist);
        }
        let out = self.marginal_current(&dist);
        crate::invariants::debug_assert_normalized(out.as_slice(), "TwoDependentMarkov::predict");
        out
    }
}

impl Persist for TwoDependentMarkov {
    fn store(&self, w: &mut Writer) {
        w.put_usize(self.n);
        w.put_f64(self.alpha);
        self.counts.store(w);
        self.fallback.store(w);
        self.prev.store(w);
        self.current.store(w);
        w.put_usize(self.observations);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.get_usize()?;
        let alpha = r.get_f64()?;
        let counts: Vec<f64> = Persist::load(r)?;
        let fallback = SimpleMarkov::load(r)?;
        let prev: Option<usize> = Persist::load(r)?;
        let current: Option<usize> = Persist::load(r)?;
        let observations = r.get_usize()?;
        if n == 0 || !(alpha.is_finite() && alpha >= 0.0) {
            return Err(PersistError::Invalid("TwoDependentMarkov parameters"));
        }
        if n.checked_pow(3) != Some(counts.len()) || fallback.n_states() != n {
            return Err(PersistError::Invalid("TwoDependentMarkov counts arity"));
        }
        if prev.is_some_and(|p| p >= n) || current.is_some_and(|c| c >= n) {
            return Err(PersistError::Invalid("TwoDependentMarkov position"));
        }
        Ok(TwoDependentMarkov {
            n,
            counts,
            fallback,
            alpha,
            prev,
            current,
            observations,
            table: OnceLock::new(),
        })
    }
}

impl ValuePredictor for TwoDependentMarkov {
    fn n_states(&self) -> usize {
        self.n
    }

    fn observe(&mut self, state: usize) {
        assert!(state < self.n, "state {state} out of range (n={})", self.n);
        if let (Some(p), Some(c)) = (self.prev, self.current) {
            self.counts[(p * self.n + c) * self.n + state] += 1.0;
        }
        self.fallback.observe(state);
        self.prev = self.current;
        self.current = Some(state);
        self.observations += 1;
        self.table.take();
    }

    fn predict(&self, steps: usize) -> StateDistribution {
        let (prev, cur) = match self.anchor() {
            None => {
                // No data at all.
                return if steps == 0 {
                    StateDistribution::uniform(self.n)
                } else {
                    self.fallback.predict(steps)
                };
            }
            Some(pc) => pc,
        };
        if steps == 0 {
            return StateDistribution::point(self.n, cur);
        }
        let table = self.table();
        let mut dist = vec![0.0; self.n * self.n];
        dist[prev * self.n + cur] = 1.0;
        let mut scratch = vec![0.0; self.n * self.n];
        for _ in 0..steps {
            self.step_combined_into(table, &dist, &mut scratch);
            std::mem::swap(&mut dist, &mut scratch);
        }
        let out = self.marginal_current(&dist);
        crate::invariants::debug_assert_normalized(out.as_slice(), "TwoDependentMarkov::predict");
        out
    }

    fn predict_multi(&self, steps: &[usize]) -> Vec<StateDistribution> {
        let (prev, cur) = match self.anchor() {
            // No data: the fallback chain is also position-less, so its
            // start (uniform) and propagation reproduce the per-horizon
            // `predict` exactly.
            None => return self.fallback.predict_multi(steps),
            Some(pc) => pc,
        };
        let mut wanted: Vec<usize> = steps.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        let mut at: std::collections::BTreeMap<usize, StateDistribution> =
            std::collections::BTreeMap::new();
        if wanted.first() == Some(&0) {
            at.insert(0, StateDistribution::point(self.n, cur));
        }
        let max_step = wanted.last().copied().unwrap_or(0);
        if max_step > 0 {
            let table = self.table();
            let mut dist = vec![0.0; self.n * self.n];
            dist[prev * self.n + cur] = 1.0;
            let mut scratch = vec![0.0; self.n * self.n];
            for s in 1..=max_step {
                self.step_combined_into(table, &dist, &mut scratch);
                std::mem::swap(&mut dist, &mut scratch);
                if wanted.binary_search(&s).is_ok() {
                    let out = self.marginal_current(&dist);
                    crate::invariants::debug_assert_normalized(
                        out.as_slice(),
                        "TwoDependentMarkov::predict_multi",
                    );
                    at.insert(s, out);
                }
            }
        }
        steps.iter().map(|s| at[s].clone()).collect()
    }

    fn reset_position(&mut self) {
        self.prev = None;
        self.current = None;
        self.fallback.reset_position();
        self.table.take();
    }

    fn observations(&self) -> usize {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's motivating case: a triangle wave 0,1,2,1,0,1,2,1,...
    /// From single state 1 the next value is ambiguous first-order but
    /// fully determined by (prev, cur).
    #[test]
    fn disambiguates_triangle_wave() {
        let mut m = TwoDependentMarkov::with_smoothing(3, 0.0);
        let wave = [0usize, 1, 2, 1];
        for i in 0..200 {
            m.observe(wave[i % 4]);
        }
        // After 200 obs the last two are (2, 1): descending → next is 0.
        let d = m.predict(1);
        assert!(d.probability(0) > 0.95, "got {d}");
        // And two steps ahead the wave is back at 1.
        assert_eq!(m.predict(2).most_likely(), 1);
        // Three steps ahead: 2.
        assert_eq!(m.predict(3).most_likely(), 2);
    }

    #[test]
    fn beats_simple_markov_on_triangle_wave() {
        let wave = [0usize, 1, 2, 1];
        let mut simple = SimpleMarkov::with_smoothing(3, 0.0);
        let mut twodep = TwoDependentMarkov::with_smoothing(3, 0.0);
        for i in 0..400 {
            simple.observe(wave[i % 4]);
            twodep.observe(wave[i % 4]);
        }
        let truth = wave[(400) % 4]; // next value
        let p_simple = simple.predict(1).probability(truth);
        let p_two = twodep.predict(1).probability(truth);
        assert!(
            p_two > p_simple + 0.3,
            "2-dep ({p_two:.3}) should clearly beat simple ({p_simple:.3})"
        );
    }

    #[test]
    fn single_observation_predicts_steady() {
        let mut m = TwoDependentMarkov::new(4);
        m.observe(2);
        let d = m.predict(0);
        assert_eq!(d.most_likely(), 2);
    }

    #[test]
    fn empty_predictor_is_uniform() {
        let m = TwoDependentMarkov::new(3);
        assert!(m.predict(0).is_valid());
        assert!(m.predict(5).is_valid());
    }

    #[test]
    fn unseen_combined_state_falls_back_to_first_order() {
        let mut m = TwoDependentMarkov::with_smoothing(3, 0.0);
        // Train only 0→1→0→1...
        for i in 0..50 {
            m.observe(i % 2);
        }
        // Now jump to state 2 (combined (1, 2) or (0, 2) never seen).
        m.observe(2);
        let d = m.predict(1);
        assert!(d.is_valid());
    }

    #[test]
    fn reset_position_keeps_learned_structure() {
        let wave = [0usize, 1, 2, 1];
        let mut m = TwoDependentMarkov::with_smoothing(3, 0.0);
        for i in 0..100 {
            m.observe(wave[i % 4]);
        }
        m.reset_position();
        // Re-anchor with a (0,1) context: ascending → next is 2.
        m.observe(0);
        m.observe(1);
        assert_eq!(m.predict(1).most_likely(), 2);
    }

    #[test]
    fn combined_state_count() {
        assert_eq!(TwoDependentMarkov::new(3).combined_states(), 9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn observe_rejects_out_of_range() {
        TwoDependentMarkov::new(2).observe(5);
    }

    #[test]
    fn snapshot_matches_reference_after_further_observations() {
        // The table must be invalidated by observe: a stale snapshot
        // would diverge from the reference path after new counts land.
        let mut m = TwoDependentMarkov::new(3);
        m.train(&[0, 1, 2, 0, 1]);
        let _ = m.predict(4); // builds the table
        m.train(&[2, 2, 2, 1, 0]); // invalidates it
        for steps in 0..6 {
            assert_eq!(m.predict(steps), m.predict_reference(steps));
        }
    }

    #[test]
    fn debug_and_eq_ignore_the_derived_table() {
        let mut a = TwoDependentMarkov::new(3);
        let mut b = TwoDependentMarkov::new(3);
        a.train(&[0, 1, 2, 1]);
        b.train(&[0, 1, 2, 1]);
        let _ = a.predict(3); // a has a built table, b does not
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn delta_recorded_window_equals_trained_model() {
        // The windowed delta algebra: observing a sequence is one leading
        // (first-order only) transition plus full-context transitions.
        let seq = [0usize, 1, 2, 1, 0, 0, 1, 2, 2, 1];
        let mut trained = TwoDependentMarkov::new(3);
        trained.train(&seq);
        trained.reset_position();

        let mut delta = TwoDependentMarkov::new(3);
        delta.record_leading_transition(seq[0], seq[1]);
        for w in seq.windows(3) {
            delta.record_transition(w[0], w[1], w[2]);
        }
        let rebuilt = TwoDependentMarkov::from_parts(
            3,
            0.02,
            delta.counts().to_vec(),
            delta.fallback_counts().to_vec(),
            seq.len(),
        );
        assert_eq!(trained, rebuilt);
        for steps in 0..5 {
            assert_eq!(trained.predict(steps), rebuilt.predict(steps));
        }
    }

    #[test]
    fn record_then_retire_restores_both_count_arrays_bit_for_bit() {
        let mut m = TwoDependentMarkov::new(3);
        m.train(&[0, 1, 2, 1, 0, 1]);
        let combined = m.counts().to_vec();
        let fallback = m.fallback_counts().to_vec();
        m.record_leading_transition(2, 0);
        m.record_transition(2, 0, 1);
        m.record_transition(0, 1, 1);
        m.retire_transition(0, 1, 1);
        m.retire_transition(2, 0, 1);
        m.retire_leading_transition(2, 0);
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(m.counts()), bits(&combined));
        assert_eq!(bits(m.fallback_counts()), bits(&fallback));
    }

    #[test]
    fn fallback_only_delta_invalidates_combined_snapshot() {
        // Seeded stale-snapshot bug: the combined table's unseen rows are
        // derived from fallback counts, so a *fallback-only* delta that
        // skipped `table.take()` would leave the n²×n snapshot stale.
        let mut m = TwoDependentMarkov::with_smoothing(3, 0.0);
        for i in 0..20 {
            m.observe(i % 2); // combined rows for states {0,1} only
        }
        m.observe(2); // anchor on the never-trained (1, 2) pair
        let stale = m.predict(1); // builds the table; (1,2) row is fallback-derived
        for _ in 0..6 {
            m.record_leading_transition(2, 0); // fallback-only delta
        }
        assert_ne!(m.predict(1), stale, "delta must change the prediction");
        for steps in 0..5 {
            assert_eq!(m.predict(steps), m.predict_reference(steps));
        }
    }

    #[test]
    fn full_context_delta_invalidates_combined_snapshot() {
        let mut m = TwoDependentMarkov::new(3);
        m.train(&[0, 1, 2, 0, 1]);
        let stale = m.predict(1); // builds the table; anchored on (0, 1)
        for _ in 0..8 {
            m.record_transition(0, 1, 1);
        }
        assert_ne!(m.predict(1), stale, "delta must change the prediction");
        for steps in 0..5 {
            assert_eq!(m.predict(steps), m.predict_reference(steps));
        }
    }

    #[test]
    #[should_panic(expected = "retiring unrecorded transition")]
    fn retire_rejects_unrecorded_transition() {
        TwoDependentMarkov::new(2).retire_transition(0, 0, 1);
    }

    #[test]
    fn persist_preserves_mid_stream_anchor() {
        let wave = [0usize, 1, 2, 1];
        let mut m = TwoDependentMarkov::with_smoothing(3, 0.0);
        for i in 0..50 {
            m.observe(wave[i % 4]);
        }
        let mut w = prepare_metrics::Writer::new();
        m.store(&mut w);
        let mut r = prepare_metrics::Reader::new(w.bytes());
        let mut back = TwoDependentMarkov::load(&mut r).expect("decodes");
        assert_eq!(back, m);
        // The (prev, cur) anchor survived: both continue identically.
        for steps in 0..5 {
            assert_eq!(back.predict(steps), m.predict(steps));
        }
        for i in 50..60 {
            back.observe(wave[i % 4]);
            m.observe(wave[i % 4]);
        }
        assert_eq!(back, m);
    }
}
