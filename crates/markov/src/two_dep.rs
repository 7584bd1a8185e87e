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

use crate::counts::CountRows;
use crate::simple::load_position;
use crate::snapshot::{propagate, TransitionTable};
use crate::{SimpleMarkov, StateDistribution, ValuePredictor, MAX_STATES};
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
/// transition table: each `next_given(prev, cur)` row is computed exactly
/// once, in the same arithmetic order, then reused. Propagation itself is
/// double-buffered (no per-step `vec![0.0; n*n]`). Outputs are
/// bit-identical to the kept naive path
/// ([`TwoDependentMarkov::predict_reference`]); the crate's differential
/// proptests assert it.
#[derive(Clone)]
pub struct TwoDependentMarkov {
    n: usize,
    /// Transition counts out of combined states: cell `next` of row
    /// `prev * n + cur`.
    counts: CountRows,
    /// First-order fallback for unseen combined states. It observes every
    /// state this chain does, so it also holds the chain's `alpha`, its
    /// current state and its observation count.
    fallback: SimpleMarkov,
    prev: Option<usize>,
    /// Frozen `n² × n` transition rows, built on first use after an
    /// observation and invalidated by `observe`/`reset_position`. Derived
    /// state only: excluded from `Debug` and `PartialEq`.
    table: OnceLock<TransitionTable>,
}

impl fmt::Debug for TwoDependentMarkov {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TwoDependentMarkov")
            .field("n", &self.n)
            .field("counts", &self.counts)
            .field("fallback", &self.fallback)
            .field("prev", &self.prev)
            .finish()
    }
}

impl PartialEq for TwoDependentMarkov {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.counts == other.counts
            && self.fallback == other.fallback
            && self.prev == other.prev
    }
}

impl TwoDependentMarkov {
    /// Creates a predictor over `n` single states (`n²` combined states)
    /// with default smoothing (α = 0.02).
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `1..=MAX_STATES`.
    pub fn new(n: usize) -> Self {
        Self::with_smoothing(n, 0.02)
    }

    /// Creates a predictor with an explicit Laplace pseudo-count.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `1..=MAX_STATES` or `alpha` is not finite
    /// and non-negative.
    pub fn with_smoothing(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "state count must be positive");
        assert!(n <= MAX_STATES, "state count must be at most MAX_STATES");
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be >= 0");
        TwoDependentMarkov {
            n,
            counts: CountRows::new(n * n, n),
            fallback: SimpleMarkov::with_smoothing(n, alpha),
            prev: None,
            table: OnceLock::new(),
        }
    }

    /// Trains from a whole sequence (observing each element in order).
    pub fn train(&mut self, sequence: &[usize]) {
        for &s in sequence {
            self.observe(s);
        }
    }

    /// Distribution over the next single state out of combined state
    /// `(prev, cur)`, falling back to first-order stats for unseen rows.
    fn next_given(&self, prev: usize, cur: usize) -> StateDistribution {
        // A row exists from its first transition on, so a seen row has a
        // positive total. A count below 2^53 converts to `f64` exactly.
        if let Some(row) = self.counts.row(prev * self.n + cur) {
            let alpha = self.fallback.alpha();
            let weights: Vec<f64> = row.iter().map(|&c| c as f64 + alpha).collect();
            StateDistribution::from_weights(weights)
        } else {
            // Never saw this (prev, cur) pair: use the first-order view
            // from `cur`. The second normalisation is what one reference
            // propagation step out of a point mass at `cur` applies to the
            // row (`1.0 * w + 0.0` is `w` exactly), and every trace is
            // pinned to its bits.
            StateDistribution::from_weights(self.fallback.row(cur).as_slice().to_vec())
        }
    }

    /// Reference for [`Self::next_given`]'s unseen-row arm: anchor a copy
    /// of the fallback chain on `cur` and take one reference step.
    #[cfg(test)]
    fn fallback_step_from(&self, cur: usize) -> StateDistribution {
        let mut fb = self.fallback.clone();
        fb.reset_position();
        fb.observe(cur);
        fb.predict_reference(1)
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
    /// differential reference: re-derives every live `next_given` row and
    /// allocates a fresh `n²` buffer per step.
    fn step_combined_reference(&self, dist: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n * self.n];
        for prev in 0..self.n {
            for cur in 0..self.n {
                // xtask-allow: index-in-loop -- prev, cur < n index the n² combined states
                let p = dist[prev * self.n + cur];
                // xtask-allow: float-eq -- skipping exactly-zero mass is an optimization, not a tolerance question
                if p == 0.0 {
                    continue;
                }
                let next_dist = self.next_given(prev, cur);
                for next in 0..self.n {
                    // xtask-allow: index-in-loop -- cur, next < n index the n² combined states
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
        for row in dist.chunks_exact(self.n) {
            for (w, &p) in weights.iter_mut().zip(row) {
                *w += p;
            }
        }
        StateDistribution::from_weights(weights)
    }

    /// The anchoring combined state `(prev, cur)`, or `None` when nothing
    /// has been observed since the last reset.
    fn anchor(&self) -> Option<(usize, usize)> {
        match (self.prev, self.fallback.current()) {
            (_, None) => None,
            (None, Some(c)) => Some((c, c)), // one observation: assume steady
            (Some(p), Some(c)) => Some((p, c)),
        }
    }

    /// The naive prediction path the snapshot engine is proven against:
    /// re-derives every `next_given` row per live cell per step and
    /// allocates per step. Kept public so the differential proptests here
    /// and the predictor's per-tick referee in `prepare-anomaly` can
    /// compare the optimized path against it bit for bit.
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

    /// Serializes the chain's state — the previous state, the `n³`
    /// combined-state counts, then the fallback's state (which holds the
    /// chain's `alpha`, current state and observation count); `n` is the
    /// owner's to supply on load.
    pub fn store_state(&self, w: &mut Writer) {
        let Self {
            n: _, // the row width; supplied by PrepareConfig on load
            counts,
            fallback,
            prev,
            table: _, // derived snapshot, rebuilt lazily on first predict
        } = self;
        prev.store(w);
        counts.store(w);
        fallback.store_state(w);
    }

    /// Serializes the chain's trained half: every combined-state count
    /// row, then the fallback's trained half
    /// ([`SimpleMarkov::store_trained`]).
    pub fn store_trained(&self, w: &mut Writer) {
        let Self {
            n: _,
            counts,
            fallback,
            prev: _,  // the live half's
            table: _, // derived snapshot, rebuilt lazily on first predict
        } = self;
        counts.store(w);
        fallback.store_trained(w);
    }

    /// Serializes the chain's live half: the previous state, the
    /// combined-state rows bumped since the marks were last cleared when
    /// `touched_rows` is set (each whole; otherwise none), then the
    /// fallback's live half ([`SimpleMarkov::store_live`]).
    pub fn store_live(&self, w: &mut Writer, touched_rows: bool) {
        let Self {
            n: _,
            counts,
            fallback,
            prev,
            table: _,
        } = self;
        prev.store(w);
        if touched_rows {
            counts.store_touched(w);
        } else {
            w.put_varint(0);
        }
        fallback.store_live(w, touched_rows);
    }

    /// Restores a chain's trained half written by
    /// [`TwoDependentMarkov::store_trained`], with no position and no
    /// observations yet: [`TwoDependentMarkov::load_live`] supplies them.
    pub fn load_trained(r: &mut Reader<'_>, n: usize) -> Result<Self, PersistError> {
        Ok(TwoDependentMarkov {
            n,
            prev: None,
            counts: CountRows::load(r, n * n, n)?,
            fallback: SimpleMarkov::load_trained(r, n)?,
            table: OnceLock::new(),
        })
    }

    /// Reads a live half written by [`TwoDependentMarkov::store_live`]
    /// over this trained half, refusing what
    /// [`SimpleMarkov::load_live`] refuses.
    pub fn load_live(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.prev = load_position(r, self.n)?;
        self.counts.load_touched(r)?;
        self.fallback.load_live(r)?;
        self.table.take();
        Ok(())
    }

    /// Clears the marks of every count row, the fallback's too.
    pub fn clear_marks(&mut self) {
        self.counts.clear_marks();
        self.fallback.clear_marks();
    }

    /// Restores a chain over `n` single states written by
    /// [`TwoDependentMarkov::store_state`], refusing what
    /// [`SimpleMarkov::load_state`] refuses and a previous state outside
    /// `0..n`.
    pub fn load_state(r: &mut Reader<'_>, n: usize) -> Result<Self, PersistError> {
        Ok(TwoDependentMarkov {
            n,
            prev: load_position(r, n)?,
            counts: CountRows::load(r, n * n, n)?,
            fallback: SimpleMarkov::load_state(r, n)?,
            table: OnceLock::new(),
        })
    }
}

#[cfg(test)]
impl TwoDependentMarkov {
    /// A chain holding an arbitrary combined-state count table and
    /// fallback, for codec tests.
    pub(crate) fn from_parts(
        n: usize,
        counts: Vec<f64>,
        fallback: SimpleMarkov,
        prev: Option<usize>,
    ) -> Self {
        assert_eq!(counts.len(), n * n * n);
        TwoDependentMarkov {
            counts: CountRows::from_dense(n, &counts),
            fallback,
            prev,
            ..TwoDependentMarkov::new(n)
        }
    }

    /// The combined-state count store.
    pub(crate) fn counts(&self) -> &CountRows {
        &self.counts
    }

    /// The first-order fallback chain.
    pub(crate) fn fallback(&self) -> &SimpleMarkov {
        &self.fallback
    }
}

impl ValuePredictor for TwoDependentMarkov {
    fn observe(&mut self, state: usize) {
        assert!(state < self.n, "state {state} out of range (n={})", self.n);
        let current = self.fallback.current();
        if let (Some(p), Some(c)) = (self.prev, current) {
            self.counts.bump(p * self.n + c, state);
        }
        self.fallback.observe(state);
        self.prev = current;
        self.table.take();
    }

    fn predict_multi(&self, steps: &[usize]) -> Vec<StateDistribution> {
        let (prev, cur) = match self.anchor() {
            // No data: the fallback chain is also position-less, so its
            // start (uniform) and propagation are the reference's.
            None => return self.fallback.predict_multi(steps),
            Some(pc) => pc,
        };
        // A point mass on (prev, cur): its marginal is the point mass on
        // `cur` bit for bit, so horizon 0 needs no arm of its own.
        let mut start = vec![0.0; self.n * self.n];
        start[prev * self.n + cur] = 1.0;
        propagate(
            steps,
            start,
            || self.table(),
            |table, dist, out| self.step_combined_into(table, dist, out),
            |dist| self.marginal_current(dist),
        )
    }

    fn reset_position(&mut self) {
        self.prev = None;
        self.fallback.reset_position();
        self.table.take();
    }

    fn observations(&self) -> usize {
        self.fallback.observations()
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

    proptest::proptest! {
        // `predict` and `predict_reference` share `next_given`, so no
        // differential between them sees its unseen-row arm: hold it to
        // the fallback-chain step it replaced, bit for bit. Short
        // sequences over five states leave most combined rows unseen.
        #[test]
        fn unseen_rows_equal_one_reference_step_of_the_fallback(
            seq in proptest::collection::vec(0usize..5, 0..40),
            smoothed in proptest::prelude::any::<bool>(),
        ) {
            let alpha = if smoothed { 0.02 } else { 0.0 };
            let mut m = TwoDependentMarkov::with_smoothing(5, alpha);
            m.train(&seq);
            let mut unseen = 0;
            for pc in 0..25 {
                let (prev, cur) = (pc / 5, pc % 5);
                if m.counts.row(pc).is_none() {
                    unseen += 1;
                    let bits = |d: StateDistribution| {
                        d.as_slice().iter().map(|p| p.to_bits()).collect::<Vec<u64>>()
                    };
                    proptest::prop_assert_eq!(
                        bits(m.next_given(prev, cur)),
                        bits(m.fallback_step_from(cur)),
                        "row ({}, {})", prev, cur
                    );
                }
            }
            proptest::prop_assert!(unseen > 0);
        }
    }

    #[test]
    fn load_state_refuses_a_bad_row_in_either_count_block() {
        let mut m = TwoDependentMarkov::new(2);
        m.train(&[0, 1, 1, 0]);
        let mut w = prepare_metrics::Writer::new();
        m.store_state(&mut w);
        let bytes = w.into_bytes();
        // prev (Some(1): a tag and a u64), the four combined rows (0, 1)
        // → 1 and (1, 1) → 0, then the fallback's alpha and its rows 0 → 1
        // and 1 → {0, 1}.
        let combined_at = 1 + 8;
        assert_eq!(
            bytes[combined_at..combined_at + 8],
            [0, 1, 1, 1, 0, 1, 0, 1]
        );
        let fallback_at = combined_at + 8 + 8;
        assert_eq!(
            bytes[fallback_at..fallback_at + 8],
            [1, 1, 1, 2, 0, 1, 1, 1]
        );
        let load = |bytes: &[u8]| {
            TwoDependentMarkov::load_state(&mut prepare_metrics::Reader::new(bytes), 2)
        };
        assert_eq!(load(&bytes).expect("intact"), m);
        for at in [combined_at + 2, fallback_at + 1] {
            let mut bad = bytes.clone();
            bad[at] = 2;
            assert_eq!(
                load(&bad),
                Err(PersistError::Invalid("Markov count column")),
                "column at {at}"
            );
        }
    }

    #[test]
    fn persist_preserves_mid_stream_anchor() {
        let wave = [0usize, 1, 2, 1];
        let mut m = TwoDependentMarkov::with_smoothing(3, 0.0);
        for i in 0..50 {
            m.observe(wave[i % 4]);
        }
        let mut w = prepare_metrics::Writer::new();
        m.store_state(&mut w);
        let mut r = prepare_metrics::Reader::new(w.bytes());
        let mut back = TwoDependentMarkov::load_state(&mut r, 3).expect("decodes");
        assert!(r.is_exhausted());
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
