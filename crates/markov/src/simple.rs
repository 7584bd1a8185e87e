//! First-order ("simple") Markov chain value predictor — the baseline from
//! the authors' earlier work \[10\] that Fig. 11 compares against.

use crate::counts::CountRows;
use crate::snapshot::{normalize_in_place, propagate, TransitionTable};
use crate::MAX_STATES;
use crate::{StateDistribution, ValuePredictor};
use prepare_metrics::persist::{Persist, PersistError, Reader, Writer};
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
    /// Transition counts, one row per current state: cell `j` of row `i`
    /// is the observed transitions i → j.
    counts: CountRows,
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
    /// Panics if `n` is outside `1..=MAX_STATES`.
    pub fn new(n: usize) -> Self {
        Self::with_smoothing(n, 0.02)
    }

    /// Creates a predictor with an explicit Laplace pseudo-count `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `1..=MAX_STATES` or `alpha` is not finite
    /// and non-negative.
    pub fn with_smoothing(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "state count must be positive");
        assert!(n <= MAX_STATES, "state count must be at most MAX_STATES");
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be >= 0");
        SimpleMarkov {
            n,
            counts: CountRows::new(n, n),
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
    ///
    /// A row exists from its first transition on, so a row with no
    /// counts is exactly a missing one. A count below 2^53 converts to
    /// `f64` exactly, so the weights are those of a dense `f64` table.
    pub(crate) fn row(&self, i: usize) -> StateDistribution {
        match self.counts.row(i) {
            None => StateDistribution::point(self.n, i),
            Some(row) => StateDistribution::from_weights(
                row.iter().map(|&c| c as f64 + self.alpha).collect(),
            ),
        }
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
        self.store_trained(w);
        self.store_position(w);
    }

    /// Serializes the chain's trained half: `alpha` and every count row,
    /// as [`SimpleMarkov::store_state`] writes them.
    pub fn store_trained(&self, w: &mut Writer) {
        let Self {
            n: _, // the row width; supplied by PrepareConfig on load
            counts,
            alpha,
            current: _,      // the live half's
            observations: _, // the live half's
            table: _,        // derived snapshot, rebuilt lazily on first predict
        } = self;
        w.put_f64(*alpha);
        counts.store(w);
    }

    /// Serializes the chain's live half: the position, the observation
    /// count and, when `touched_rows` is set, every count row bumped since
    /// the marks were last cleared ([`SimpleMarkov::clear_marks`]), each
    /// whole; otherwise no row.
    pub fn store_live(&self, w: &mut Writer, touched_rows: bool) {
        self.store_position(w);
        if touched_rows {
            self.counts.store_touched(w);
        } else {
            w.put_varint(0);
        }
    }

    /// Serializes the position and the observation count.
    fn store_position(&self, w: &mut Writer) {
        let Self {
            n: _,
            counts: _, // the trained half's, and the live half's touched rows
            alpha: _,  // the trained half's
            current,
            observations,
            table: _,
        } = self;
        current.store(w);
        w.put_usize(*observations);
    }

    /// Restores a chain over `n` states written by
    /// [`SimpleMarkov::store_state`], refusing a negative or non-finite
    /// `alpha` and a position outside `0..n`.
    pub fn load_state(r: &mut Reader<'_>, n: usize) -> Result<Self, PersistError> {
        let mut chain = Self::load_trained(r, n)?;
        chain.current = load_position(r, n)?;
        chain.observations = r.get_usize()?;
        Ok(chain)
    }

    /// Restores a chain's trained half written by
    /// [`SimpleMarkov::store_trained`], with no position and no
    /// observations yet: [`SimpleMarkov::load_live`] supplies them.
    pub fn load_trained(r: &mut Reader<'_>, n: usize) -> Result<Self, PersistError> {
        let alpha = r.get_f64()?;
        if !(alpha.is_finite() && alpha >= 0.0) {
            return Err(PersistError::Invalid("Markov alpha"));
        }
        Ok(SimpleMarkov {
            n,
            counts: CountRows::load(r, n, n)?,
            alpha,
            current: None,
            observations: 0,
            table: OnceLock::new(),
        })
    }

    /// Reads a live half written by [`SimpleMarkov::store_live`] over this
    /// trained half: the position, the observation count, and the touched
    /// rows in place of the trained rows, marked. A touched row with a
    /// cell below its trained one is refused: counts only grow.
    pub fn load_live(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.current = load_position(r, self.n)?;
        self.observations = r.get_usize()?;
        self.counts.load_touched(r)?;
        self.table.take();
        Ok(())
    }

    /// Clears the marks of every count row: the rows as they are now are
    /// the trained half the next live half is written against.
    pub fn clear_marks(&mut self) {
        self.counts.clear_marks();
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

#[cfg(test)]
impl SimpleMarkov {
    /// A chain holding an arbitrary count table, for codec tests that
    /// need tables `observe` would take millions of samples to fill.
    pub(crate) fn from_parts(
        n: usize,
        counts: Vec<f64>,
        current: Option<usize>,
        observations: usize,
    ) -> Self {
        assert_eq!(counts.len(), n * n);
        SimpleMarkov {
            counts: CountRows::from_dense(n, &counts),
            current,
            observations,
            ..SimpleMarkov::new(n)
        }
    }

    /// The count store.
    pub(crate) fn counts(&self) -> &CountRows {
        &self.counts
    }
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
            self.counts.bump(prev, state);
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
        // The rows carry no count of their own: the state count says how
        // many there are, and a block cut short is refused wherever the
        // cut falls.
        let mut m = SimpleMarkov::new(3);
        m.train(&[0, 1, 2]);
        let mut w = prepare_metrics::Writer::new();
        m.store_state(&mut w);
        let bytes = w.into_bytes();
        // alpha, then rows 0 → 1 and 1 → 2 as one (column, count) pair
        // each, then row 2 with none.
        let counts_end = 8 + 3 + 3 + 1;
        assert_eq!(bytes[8..counts_end], [1, 1, 1, 1, 2, 1, 0]);
        for cut in 8..counts_end {
            let mut r = prepare_metrics::Reader::new(&bytes[..cut]);
            assert!(
                matches!(
                    SimpleMarkov::load_state(&mut r, 3),
                    Err(PersistError::Truncated { .. })
                ),
                "cut {cut}"
            );
        }
        // Read as a 4-state chain, the same bytes are refused.
        let mut r = prepare_metrics::Reader::new(&bytes);
        assert!(SimpleMarkov::load_state(&mut r, 4).is_err());
    }

    /// A 3-state image whose count block is `rows`, followed by no
    /// position and 0 observations.
    fn load_rows(rows: &[u8]) -> Result<SimpleMarkov, PersistError> {
        let mut w = prepare_metrics::Writer::new();
        w.put_f64(0.02);
        w.put_raw(rows);
        Option::<usize>::None.store(&mut w);
        w.put_usize(0);
        let bytes = w.into_bytes();
        let mut r = prepare_metrics::Reader::new(&bytes);
        let m = SimpleMarkov::load_state(&mut r, 3)?;
        assert!(r.is_exhausted());
        Ok(m)
    }

    #[test]
    fn sparse_rows_load_into_the_dense_table() {
        // Row 0: column 2 holds 300 (a two-byte varint); row 1: columns 0
        // and 1; row 2: empty.
        let m = load_rows(&[1, 2, 0xac, 0x02, 2, 0, 1, 1, 127, 0]).expect("valid rows");
        assert_eq!(
            m.counts.dense(),
            [0.0, 0.0, 300.0, 1.0, 127.0, 0.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn load_state_refuses_malformed_rows() {
        let invalid = |rows: &[u8], what: &'static str| {
            assert_eq!(
                load_rows(rows),
                Err(PersistError::Invalid(what)),
                "{rows:?}"
            );
        };
        invalid(&[1, 3, 1, 0, 0], "Markov count column");
        invalid(&[1, 0xff, 1, 0, 0], "Markov count column");
        invalid(&[2, 2, 1, 1, 1, 0, 0], "Markov count columns out of order");
        invalid(&[2, 1, 1, 1, 1, 0, 0], "Markov count columns out of order");
        invalid(&[0, 2, 1, 1, 0, 1, 0], "Markov count columns out of order");
        invalid(&[4, 0, 1, 1, 1, 2, 1, 2, 1], "Markov row nonzero count");
        invalid(&[1, 0, 0, 0, 0], "Markov stored count of 0");
        invalid(&[1, 0, 0x81, 0x00, 0, 0], "non-minimal varint");
        let mut overlong = vec![1, 0];
        overlong.extend([0x80; 10]);
        overlong.extend([0x01, 0, 0]);
        invalid(&overlong, "overlong varint");
        let mut overflow = vec![1, 0];
        overflow.extend([0xff; 9]);
        overflow.extend([0x02, 0, 0]);
        invalid(&overflow, "varint overflows u64");
        // A pair cut after its column, or inside a varint, runs out.
        for rows in [&[1u8, 0][..], &[1, 0, 0x80]] {
            let mut w = prepare_metrics::Writer::new();
            w.put_f64(0.02);
            w.put_raw(rows);
            let mut r = prepare_metrics::Reader::new(w.bytes());
            assert!(
                matches!(
                    SimpleMarkov::load_state(&mut r, 3),
                    Err(PersistError::Truncated { .. })
                ),
                "{rows:?}"
            );
        }
        // No chain has zero states, or more than a byte can number.
        for n in [0, MAX_STATES + 1] {
            let mut r = prepare_metrics::Reader::new(&[0u8; 16]);
            assert_eq!(
                SimpleMarkov::load_state(&mut r, n),
                Err(PersistError::Invalid("Markov state count"))
            );
        }
    }
}

#[cfg(test)]
mod codec_proptests {
    use super::*;
    use crate::counts::store_counts_reference;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The counts the sparse layout treats specially: the smallest, the
    /// largest one-byte varint and the smallest two-byte one, and the
    /// largest whole number every smaller one of which an `f64` holds.
    const EDGE_COUNTS: [f64; 4] = [1.0, 127.0, 128.0, 9_007_199_254_740_992.0];

    /// One nonzero count: an edge count or a random whole number up to 2^53.
    fn count(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..EDGE_COUNTS.len() + 2) {
            k if k < EDGE_COUNTS.len() => EDGE_COUNTS[k],
            k if k == EDGE_COUNTS.len() => rng.gen_range(1u64..200) as f64,
            _ => rng.gen_range(1u64..=1 << 53) as f64,
        }
    }

    /// A table of rows `n` wide: an all-zero row, a full row, then a few
    /// rows of random density, in a random order.
    fn table(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let mut rows: Vec<Vec<f64>> = vec![vec![0.0; n], (0..n).map(|_| count(rng)).collect()];
        for _ in 0..rng.gen_range(0usize..4) {
            let density = rng.gen::<f64>();
            rows.push(
                (0..n)
                    .map(|_| {
                        if rng.gen_bool(density) {
                            count(rng)
                        } else {
                            0.0
                        }
                    })
                    .collect(),
            );
        }
        let first = rng.gen_range(0..rows.len());
        rows.swap(0, first);
        rows.concat()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        // For every state count a chain can have (which covers every
        // `MAX_BINS`-bounded configuration), the row-sparse store writes
        // the dense reference encoder's bytes, and `CountRows::load` reads
        // the table back exactly.
        #[test]
        fn store_counts_writes_the_reference_bytes_and_load_counts_inverts_it(seed in 0u64..u64::MAX) {
            for n in 1..=MAX_STATES {
                let mut rng = StdRng::seed_from_u64(seed ^ ((n as u64) << 32));
                let counts = table(&mut rng, n);
                let rows = counts.len() / n;
                let mut fast = Writer::new();
                CountRows::from_dense(n, &counts).store(&mut fast);
                let mut reference = Writer::new();
                store_counts_reference(&mut reference, &counts, n);
                prop_assert_eq!(fast.bytes(), reference.bytes(), "n {}", n);
                let mut r = Reader::new(fast.bytes());
                let back = CountRows::load(&mut r, rows, n)
                    .expect("the encoder's own bytes")
                    .dense();
                prop_assert!(r.is_exhausted(), "n {}", n);
                prop_assert_eq!(back, counts, "n {}", n);
            }
        }
    }

    /// Cells that are not whole positive numbers — what `observe` never
    /// stores — still encode as the reference does: the dense test
    /// constructor truncates them.
    #[test]
    fn cells_that_truncate_to_zero_match_the_reference() {
        let cells = [0.5, -0.0, -3.0, f64::NAN, 0.999, 2.5, f64::INFINITY, 1e300];
        for n in 1..=cells.len() {
            for start in 0..cells.len() {
                let row: Vec<f64> = cells.iter().cycle().skip(start).take(n).copied().collect();
                let mut fast = Writer::new();
                CountRows::from_dense(n, &row).store(&mut fast);
                let mut reference = Writer::new();
                store_counts_reference(&mut reference, &row, n);
                assert_eq!(fast.bytes(), reference.bytes(), "{row:?}");
            }
        }
    }
}
