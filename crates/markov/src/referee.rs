//! The dense referee of the row-sparse count store: both chains as they
//! were before [`crate::counts::CountRows`], with a dense `f64` count
//! table and the naive propagation, held against the sparse chains over
//! random observe streams.

use crate::counts::store_counts_reference;
use crate::{SimpleMarkov, StateDistribution, TwoDependentMarkov, ValuePredictor};
use prepare_metrics::Writer;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The first-order chain over a dense table: `counts[i * n + j]` counts
/// the transitions i → j.
#[derive(Clone)]
struct DenseSimple {
    n: usize,
    counts: Vec<f64>,
    alpha: f64,
    current: Option<usize>,
    observations: usize,
}

impl DenseSimple {
    fn observe(&mut self, state: usize) {
        if let Some(prev) = self.current {
            self.counts[prev * self.n + state] += 1.0;
        }
        self.current = Some(state);
        self.observations += 1;
    }

    fn row(&self, i: usize) -> StateDistribution {
        let row = &self.counts[i * self.n..(i + 1) * self.n];
        let total: f64 = row.iter().sum();
        // xtask-allow: float-eq -- counts are integer-valued; an exact zero sum means "never observed"
        if total == 0.0 {
            return StateDistribution::point(self.n, i);
        }
        StateDistribution::from_weights(row.iter().map(|c| c + self.alpha).collect())
    }

    fn predict(&self, steps: usize) -> StateDistribution {
        let mut dist = match self.current {
            Some(c) => StateDistribution::point(self.n, c),
            None => StateDistribution::uniform(self.n),
        };
        for _ in 0..steps {
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
            dist = StateDistribution::from_weights(out);
        }
        dist
    }
}

/// The 2-dependent chain over a dense table:
/// `counts[(prev * n + cur) * n + next]`.
struct DenseTwoDep {
    n: usize,
    counts: Vec<f64>,
    fallback: DenseSimple,
    prev: Option<usize>,
}

impl DenseTwoDep {
    fn observe(&mut self, state: usize) {
        if let (Some(p), Some(c)) = (self.prev, self.fallback.current) {
            self.counts[(p * self.n + c) * self.n + state] += 1.0;
        }
        self.prev = self.fallback.current;
        self.fallback.observe(state);
    }

    fn reset_position(&mut self) {
        self.prev = None;
        self.fallback.current = None;
    }

    fn next_given(&self, prev: usize, cur: usize) -> StateDistribution {
        let pc = prev * self.n + cur;
        let row = &self.counts[pc * self.n..(pc + 1) * self.n];
        if row.iter().sum::<f64>() > 0.0 {
            let alpha = self.fallback.alpha;
            StateDistribution::from_weights(row.iter().map(|c| c + alpha).collect())
        } else {
            StateDistribution::from_weights(self.fallback.row(cur).as_slice().to_vec())
        }
    }

    fn predict(&self, steps: usize) -> StateDistribution {
        let n = self.n;
        let (prev, cur) = match (self.prev, self.fallback.current) {
            (_, None) => {
                return if steps == 0 {
                    StateDistribution::uniform(n)
                } else {
                    self.fallback.predict(steps)
                };
            }
            (None, Some(c)) => (c, c),
            (Some(p), Some(c)) => (p, c),
        };
        if steps == 0 {
            return StateDistribution::point(n, cur);
        }
        let mut dist = vec![0.0; n * n];
        dist[prev * n + cur] = 1.0;
        for _ in 0..steps {
            let mut out = vec![0.0; n * n];
            for (pc, &p) in dist.iter().enumerate() {
                // xtask-allow: float-eq -- skipping exactly-zero mass is an optimization, not a tolerance question
                if p == 0.0 {
                    continue;
                }
                let next = self.next_given(pc / n, pc % n);
                let cur = pc % n;
                for j in 0..n {
                    // xtask-allow: index-in-loop -- cur, j < n index the n² combined states
                    out[cur * n + j] += p * next.probability(j);
                }
            }
            dist = out;
        }
        let mut weights = vec![0.0; n];
        for row in dist.chunks_exact(n) {
            for (w, &p) in weights.iter_mut().zip(row) {
                *w += p;
            }
        }
        StateDistribution::from_weights(weights)
    }
}

/// A count table of `cells` cells: about one in four holds a count, half
/// of them small and half within 4 096 of 2^53, so the bumps of a stream
/// keep every count at or below 2^53, where an `f64` still counts by one.
fn near_2_53(rng: &mut StdRng, cells: usize) -> Vec<f64> {
    const TOP: u64 = 1 << 53;
    (0..cells)
        .map(|_| match rng.gen_range(0..8) {
            0 => rng.gen_range(1u64..100) as f64,
            1 => (TOP - rng.gen_range(1_024u64..4_096)) as f64,
            _ => 0.0,
        })
        .collect()
}

/// The next state of a skewed walk: mostly a small move from `cur`,
/// sometimes a jump anywhere, and the low states favoured.
fn skewed_step(rng: &mut StdRng, n: usize, cur: usize) -> usize {
    match rng.gen_range(0..10) {
        0..=5 => (cur + rng.gen_range(0usize..3)) % n,
        6..=7 => rng.gen_range(0..n.min(3)),
        _ => rng.gen_range(0..n),
    }
}

/// Every horizon's distribution as bit patterns.
fn bits(dists: &[StateDistribution]) -> Vec<Vec<u64>> {
    dists
        .iter()
        .map(|d| d.as_slice().iter().map(|p| p.to_bits()).collect())
        .collect()
}

/// The dense encoding of a table, the referee of the sparse store's bytes.
fn reference_bytes(counts: &[f64], n: usize) -> Vec<u8> {
    let mut w = Writer::new();
    store_counts_reference(&mut w, counts, n);
    w.into_bytes()
}

const HORIZONS: [usize; 4] = [0, 1, 3, 12];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    // Over random skewed streams with interleaved re-anchoring, from
    // tables with counts near 2^53, the sparse chains hold the dense
    // referee's rows and observation counts, predict its bits at every
    // horizon, write its bytes, and after a mark clear mark exactly the
    // rows bumped since.
    #[test]
    fn the_sparse_store_agrees_with_the_dense_referee(
        n_at in 0usize..4,
        seed in 0u64..u64::MAX,
        len in 0usize..160,
        clear_at in 0usize..160,
    ) {
        let n = [1, 3, 10, 64][n_at];
        let mut rng = StdRng::seed_from_u64(seed);
        let simple_counts = near_2_53(&mut rng, n * n);
        let combined_counts = near_2_53(&mut rng, n * n * n);
        let fallback_counts = near_2_53(&mut rng, n * n);
        let observations = rng.gen_range(0..1_000);

        let mut simple = SimpleMarkov::from_parts(n, simple_counts.clone(), None, observations);
        let mut dense_simple = DenseSimple {
            n,
            counts: simple_counts,
            alpha: simple.alpha(),
            current: None,
            observations,
        };
        let mut twodep = TwoDependentMarkov::from_parts(
            n,
            combined_counts.clone(),
            SimpleMarkov::from_parts(n, fallback_counts.clone(), None, observations),
            None,
        );
        let mut dense_twodep = DenseTwoDep {
            n,
            counts: combined_counts,
            fallback: DenseSimple {
                n,
                counts: fallback_counts,
                alpha: simple.alpha(),
                current: None,
                observations,
            },
            prev: None,
        };

        // The contexts bumped since the clear: the simple chain's, the
        // combined chain's and its fallback's.
        let mut since: [BTreeSet<usize>; 3] = Default::default();
        let mut state = rng.gen_range(0..n);
        for step in 0..len {
            if step == clear_at {
                simple.clear_marks();
                twodep.clear_marks();
                since = Default::default();
            }
            if rng.gen_range(0..16) == 0 {
                simple.reset_position();
                dense_simple.current = None;
                twodep.reset_position();
                dense_twodep.reset_position();
            }
            state = skewed_step(&mut rng, n, state);
            if let Some(c) = dense_simple.current {
                since[0].insert(c);
                since[2].insert(c);
                if let Some(p) = dense_twodep.prev {
                    since[1].insert(p * n + c);
                }
            }
            simple.observe(state);
            dense_simple.observe(state);
            twodep.observe(state);
            dense_twodep.observe(state);
        }

        prop_assert_eq!(simple.counts().dense(), dense_simple.counts.clone());
        prop_assert_eq!(twodep.counts().dense(), dense_twodep.counts.clone());
        prop_assert_eq!(
            twodep.fallback().counts().dense(),
            dense_twodep.fallback.counts.clone()
        );
        prop_assert_eq!(simple.observations(), dense_simple.observations);
        prop_assert_eq!(twodep.observations(), dense_twodep.fallback.observations);

        let want: Vec<_> = HORIZONS.iter().map(|&h| dense_simple.predict(h)).collect();
        prop_assert_eq!(bits(&simple.predict_multi(&HORIZONS)), bits(&want));
        let want: Vec<_> = HORIZONS.iter().map(|&h| dense_twodep.predict(h)).collect();
        prop_assert_eq!(bits(&twodep.predict_multi(&HORIZONS)), bits(&want));

        for (rows, dense) in [
            (simple.counts(), &dense_simple.counts),
            (twodep.counts(), &dense_twodep.counts),
            (twodep.fallback().counts(), &dense_twodep.fallback.counts),
        ] {
            let mut w = Writer::new();
            rows.store(&mut w);
            prop_assert_eq!(w.bytes(), &reference_bytes(dense, n)[..]);
        }

        // With no clear in the stream, the marks are every bump's: the
        // tables the chains started from are unmarked.
        let touched = [
            simple.counts().touched_contexts(),
            twodep.counts().touched_contexts(),
            twodep.fallback().counts().touched_contexts(),
        ];
        for (k, (touched, since)) in touched.iter().zip(&since).enumerate() {
            prop_assert_eq!(touched, &since.iter().copied().collect::<Vec<_>>(), "store {}", k);
        }
    }
}
