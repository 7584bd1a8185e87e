//! First-order ("simple") Markov chain value predictor — the baseline from
//! the authors' earlier work \[10\] that Fig. 11 compares against.

use crate::snapshot::{normalize_in_place, propagate, TransitionTable};
use crate::{StateDistribution, ValuePredictor};
use prepare_metrics::persist::{bounded_capacity, Persist, PersistError, Reader, Writer};
use std::fmt;
use std::sync::OnceLock;

/// A first-order Markov chain over discretized attribute values.
///
/// Transition counts are accumulated online; prediction propagates the
/// current state's point mass through the (Laplace-smoothed) transition
/// matrix `steps` times. Rows never observed fall back to a self-loop
/// biased uniform, keeping early predictions conservative.
///
/// The propagation hot path runs over a lazily-built frozen transition
/// table (each smoothed row derived exactly once, not once per live cell
/// per step) with a double-buffered scratch pair instead of a fresh
/// allocation per step. Outputs are bit-identical to the kept
/// naive path ([`SimpleMarkov::predict_reference`]); the crate's
/// differential proptests assert it.
#[derive(Clone)]
pub struct SimpleMarkov {
    n: usize,
    /// Flat row-major transition counts: `counts[i * n + j]` = observed
    /// transitions i → j.
    counts: Vec<f64>,
    /// Laplace smoothing pseudo-count.
    alpha: f64,
    current: Option<usize>,
    observations: usize,
    /// Frozen transition rows, built on first use after an observation and
    /// invalidated by `observe`/`reset_position`. Derived state only: it is
    /// excluded from `Debug` and `PartialEq`.
    table: OnceLock<TransitionTable>,
}

impl fmt::Debug for SimpleMarkov {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimpleMarkov")
            .field("n", &self.n)
            .field("counts", &self.counts)
            .field("alpha", &self.alpha)
            .field("current", &self.current)
            .field("observations", &self.observations)
            .finish()
    }
}

impl PartialEq for SimpleMarkov {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.counts == other.counts
            && self.alpha == other.alpha
            && self.current == other.current
            && self.observations == other.observations
    }
}

impl SimpleMarkov {
    /// Creates a predictor over `n` states with the default smoothing
    /// (α = 0.02).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::with_smoothing(n, 0.02)
    }

    /// Creates a predictor with an explicit Laplace pseudo-count `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is not finite and non-negative.
    pub fn with_smoothing(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "state count must be positive");
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be >= 0");
        SimpleMarkov {
            n,
            counts: vec![0.0; n * n],
            alpha,
            current: None,
            observations: 0,
            table: OnceLock::new(),
        }
    }

    /// Trains from a whole sequence at once (equivalent to observing each
    /// element in order). Used by the trace-driven experiments and the
    /// Table I training benchmark.
    pub fn train(&mut self, sequence: &[usize]) {
        for &s in sequence {
            self.observe(s);
        }
    }

    /// Smoothed transition row for state `i`. A row with no observations
    /// uses a persistence prior (stay put): for system metrics, an
    /// unvisited state persisting is a far better guess than teleporting
    /// uniformly — and it keeps never-seen extreme states (a pinned CPU
    /// the model was never trained on) predicted as extreme.
    pub(crate) fn row(&self, i: usize) -> StateDistribution {
        let row = &self.counts[i * self.n..(i + 1) * self.n];
        let total: f64 = row.iter().sum();
        // xtask-allow: float-eq -- counts are integer-valued; an exact zero sum means "never observed"
        if total == 0.0 {
            return StateDistribution::point(self.n, i);
        }
        let weights: Vec<f64> = row.iter().map(|c| c + self.alpha).collect();
        StateDistribution::from_weights(weights)
    }

    /// The frozen transition table, baking every smoothed row once (in
    /// row order, with [`SimpleMarkov::row`]'s exact arithmetic).
    fn table(&self) -> &TransitionTable {
        self.table
            .get_or_init(|| TransitionTable::from_rows(self.n, (0..self.n).map(|i| self.row(i))))
    }

    /// One propagation step over the frozen table: `dist * P`, normalized
    /// in place with [`StateDistribution::from_weights`]'s arithmetic —
    /// the same cell order and summation order as
    /// [`SimpleMarkov::step_reference`], so the result is bit-identical.
    // xtask: hot-path
    fn step_into(&self, table: &TransitionTable, dist: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for (i, &p) in dist.iter().enumerate() {
            // xtask-allow: float-eq -- skipping exactly-zero mass is an optimization, not a tolerance question
            if p == 0.0 {
                continue;
            }
            for (o, &w) in out.iter_mut().zip(table.row(i)) {
                *o += p * w;
            }
        }
        normalize_in_place(out);
    }

    /// The pre-snapshot propagation step, kept verbatim as the
    /// differential reference: re-derives each live row and allocates a
    /// fresh buffer per step.
    fn step_reference(&self, dist: &StateDistribution) -> StateDistribution {
        let mut out = vec![0.0; self.n];
        for i in 0..self.n {
            let p = dist.probability(i);
            // xtask-allow: float-eq -- skipping exactly-zero mass is an optimization, not a tolerance question
            if p == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (j, o) in out.iter_mut().enumerate() {
                *o += p * row.probability(j);
            }
        }
        StateDistribution::from_weights(out)
    }

    /// The naive prediction path the snapshot engine is proven against:
    /// re-derives every transition row per step and allocates per step.
    /// Kept public so the differential proptests here and the predictor's
    /// per-tick referee in `prepare-anomaly` can compare the optimized
    /// path against it bit for bit.
    pub fn predict_reference(&self, steps: usize) -> StateDistribution {
        let mut dist = self.start();
        for _ in 0..steps {
            dist = self.step_reference(&dist);
        }
        crate::invariants::debug_assert_normalized(dist.as_slice(), "SimpleMarkov::predict");
        dist
    }

    /// The starting distribution of a propagation (0-step prediction).
    fn start(&self) -> StateDistribution {
        match self.current {
            Some(c) => StateDistribution::point(self.n, c),
            None => StateDistribution::uniform(self.n),
        }
    }

    /// Serializes the chain's state — `alpha`, the `n²` counts, the
    /// position, the observation count; `n` is the owner's to supply on
    /// load.
    pub fn store_state(&self, w: &mut Writer) {
        let Self {
            n: _, // supplied by PrepareConfig on load
            counts,
            alpha,
            current,
            observations,
            table: _, // derived snapshot, rebuilt lazily on first predict
        } = self;
        w.put_f64(*alpha);
        store_counts(w, counts);
        current.store(w);
        w.put_usize(*observations);
    }

    /// Restores a chain over `n` states written by
    /// [`SimpleMarkov::store_state`], refusing a negative or non-finite
    /// `alpha` and a position outside `0..n`.
    pub fn load_state(r: &mut Reader<'_>, n: usize) -> Result<Self, PersistError> {
        let alpha = r.get_f64()?;
        if !(alpha.is_finite() && alpha >= 0.0) {
            return Err(PersistError::Invalid("Markov alpha"));
        }
        Ok(SimpleMarkov {
            n,
            counts: load_counts(r, n * n)?,
            alpha,
            current: load_position(r, n)?,
            observations: r.get_usize()?,
            table: OnceLock::new(),
        })
    }

    /// The Laplace pseudo-count.
    pub(crate) fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The current state, if any has been observed since the last reset.
    pub(crate) fn current(&self) -> Option<usize> {
        self.current
    }
}

/// Writes a count table as whole numbers (`observe` only ever adds 1.0),
/// with no length: the owner's state count fixes how many there are.
pub(crate) fn store_counts(w: &mut Writer, counts: &[f64]) {
    for &c in counts {
        w.put_u64(c as u64);
    }
}

/// Reads the `len` counts [`store_counts`] wrote.
pub(crate) fn load_counts(r: &mut Reader<'_>, len: usize) -> Result<Vec<f64>, PersistError> {
    let mut counts = Vec::with_capacity(bounded_capacity::<u64>(len, r));
    for _ in 0..len {
        counts.push(r.get_u64()? as f64);
    }
    Ok(counts)
}

/// Reads an optional position among `n` states.
pub(crate) fn load_position(r: &mut Reader<'_>, n: usize) -> Result<Option<usize>, PersistError> {
    match Option::<usize>::load(r)? {
        Some(s) if s >= n => Err(PersistError::Invalid("Markov position")),
        position => Ok(position),
    }
}

impl ValuePredictor for SimpleMarkov {
    fn observe(&mut self, state: usize) {
        assert!(state < self.n, "state {state} out of range (n={})", self.n);
        if let Some(prev) = self.current {
            self.counts[prev * self.n + state] += 1.0;
        }
        self.current = Some(state);
        self.observations += 1;
        self.table.take();
    }

    fn predict_multi(&self, steps: &[usize]) -> Vec<StateDistribution> {
        // Every step keeps the vector normalized, so the marginal wraps it
        // without dividing again.
        propagate(
            steps,
            self.start().as_slice().to_vec(),
            || self.table(),
            |table, dist, out| self.step_into(table, dist, out),
            |dist| StateDistribution::from_probs(dist.to_vec()),
        )
    }

    fn reset_position(&mut self) {
        self.current = None;
        self.table.take();
    }

    fn observations(&self) -> usize {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_deterministic_transition() {
        let mut m = SimpleMarkov::with_smoothing(3, 0.0);
        m.train(&[0, 1, 2, 0, 1, 2, 0, 1]);
        let d = m.predict(1);
        assert_eq!(d.most_likely(), 2);
        assert!(d.probability(2) > 0.99);
    }

    #[test]
    fn multi_step_follows_cycle() {
        let mut m = SimpleMarkov::with_smoothing(3, 0.0);
        m.train(&[0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
        // last state 0; after 2 steps expect state 2
        assert_eq!(m.predict(2).most_likely(), 2);
    }

    #[test]
    fn unobserved_predictor_is_uniform() {
        let m = SimpleMarkov::new(4);
        let d = m.predict(3);
        assert!(d.is_valid());
        assert!((d.probability(0) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn cannot_disambiguate_triangle_wave() {
        // 0,1,2,1,0,1,2,1,... from state 1 the next is 50/50 between 0 and
        // 2 for a first-order chain — the paper's motivating failure case.
        let mut m = SimpleMarkov::with_smoothing(3, 0.0);
        let wave = [0usize, 1, 2, 1];
        for i in 0..200 {
            m.observe(wave[i % 4]);
        }
        // position after 200 obs: last index 199 % 4 = 3 → state 1
        let d = m.predict(1);
        assert!((d.probability(0) - 0.5).abs() < 0.05);
        assert!((d.probability(2) - 0.5).abs() < 0.05);
    }

    #[test]
    fn reset_position_keeps_statistics() {
        let mut m = SimpleMarkov::with_smoothing(2, 0.0);
        m.train(&[0, 1, 0, 1]);
        m.reset_position();
        assert!(m.predict(0).is_valid()); // uniform, no position
        m.observe(0);
        assert_eq!(m.predict(1).most_likely(), 1); // stats survived
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn observe_rejects_out_of_range() {
        SimpleMarkov::new(2).observe(2);
    }

    #[test]
    fn observations_counted() {
        let mut m = SimpleMarkov::new(2);
        m.train(&[0, 1, 0]);
        assert_eq!(m.observations(), 3);
    }

    #[test]
    fn snapshot_matches_reference_after_further_observations() {
        // The table must be invalidated by observe: a stale snapshot
        // would diverge from the reference path after new counts land.
        let mut m = SimpleMarkov::new(3);
        m.train(&[0, 1, 2, 0, 1]);
        let _ = m.predict(4); // builds the table
        m.train(&[2, 2, 2, 1, 0]); // invalidates it
        for steps in 0..6 {
            assert_eq!(m.predict(steps), m.predict_reference(steps));
        }
    }

    #[test]
    fn debug_and_eq_ignore_the_derived_table() {
        let mut a = SimpleMarkov::new(3);
        let mut b = SimpleMarkov::new(3);
        a.train(&[0, 1, 2]);
        b.train(&[0, 1, 2]);
        let _ = a.predict(3); // a has a built table, b does not
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn persist_preserves_mid_stream_position() {
        // A checkpoint taken mid-stream must restore `current` so the next
        // prediction and the next observation land identically.
        let mut m = SimpleMarkov::new(3);
        m.train(&[0, 1, 2, 0, 1, 1, 2]);
        let mut w = prepare_metrics::Writer::new();
        m.store_state(&mut w);
        let mut r = prepare_metrics::Reader::new(w.bytes());
        let mut back = SimpleMarkov::load_state(&mut r, 3).expect("decodes");
        assert!(r.is_exhausted());
        assert_eq!(back, m);
        for steps in 0..5 {
            assert_eq!(back.predict(steps), m.predict(steps));
        }
        back.observe(0);
        m.observe(0);
        assert_eq!(back, m);
    }

    #[test]
    fn load_state_refuses_a_truncated_count_block() {
        // The counts carry no length: the state count says how many there
        // are, and a block cut short is refused wherever the cut falls.
        let mut m = SimpleMarkov::new(3);
        m.train(&[0, 1, 2]);
        let mut w = prepare_metrics::Writer::new();
        m.store_state(&mut w);
        let bytes = w.into_bytes();
        let counts_end = 8 + 9 * 8;
        for cut in 8..counts_end {
            let mut r = prepare_metrics::Reader::new(&bytes[..cut]);
            assert!(SimpleMarkov::load_state(&mut r, 3).is_err(), "cut {cut}");
        }
        // Read as a 4-state chain, the same bytes run out.
        let mut r = prepare_metrics::Reader::new(&bytes);
        assert!(SimpleMarkov::load_state(&mut r, 4).is_err());
    }
}
