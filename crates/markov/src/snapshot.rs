//! Frozen dense transition tables for the prediction hot path.
//!
//! Propagating a distribution through a Markov chain re-derives every
//! transition row from the raw counts — and, for the 2-dependent chain's
//! never-seen combined states, clones the whole first-order fallback
//! chain — *per live cell per step*. A [`TransitionTable`] bakes each row
//! exactly once, in the same arithmetic order as the naive derivation, so
//! propagation becomes pure multiply-adds over a contiguous `rows × n`
//! matrix. The table is built lazily on the first prediction after an
//! observation (see [`crate::SimpleMarkov`] / [`crate::TwoDependentMarkov`])
//! and dropped whenever `observe`/`reset_position` touches the model, so
//! it can never serve stale statistics. Both chains walk it through
//! [`propagate`], the one propagation loop of the crate.

use crate::StateDistribution;

/// A frozen row-stochastic transition matrix: `rows()` rows of width `n`,
/// flattened row-major. Each row holds the exact probabilities the naive
/// per-cell derivation would produce — same values, same order — which is
/// what keeps snapshot-based prediction bit-identical to the reference
/// path.
#[derive(Debug, Clone)]
pub(crate) struct TransitionTable {
    probs: Vec<f64>,
    n: usize,
}

impl TransitionTable {
    /// Bakes a table from one [`StateDistribution`] per row, in row order.
    pub(crate) fn from_rows(n: usize, rows: impl Iterator<Item = StateDistribution>) -> Self {
        let mut probs = Vec::new();
        for row in rows {
            debug_assert_eq!(row.len(), n, "transition row width mismatch");
            probs.extend_from_slice(row.as_slice());
        }
        TransitionTable { probs, n }
    }

    /// The `i`-th transition row (probabilities over the `n` next states).
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.probs[i * self.n..(i + 1) * self.n]
    }
}

/// The one propagation loop of both chains: the distribution at each
/// requested horizon, in the order given (duplicates allowed, `0` is the
/// start itself). Horizons are sorted and deduplicated, the chain is
/// stepped once up to the largest, and each horizon's marginal is emitted
/// as the iteration passes it — one pass serves every horizon instead of
/// restarting from step 0 per horizon.
///
/// A chain supplies its `start` vector, its `step` kernel over the frozen
/// table (built by `table` only when a horizon lies past step 0) and the
/// `marginal` that turns a propagated vector into a distribution over its
/// single states. The scratch pair is double-buffered: no allocation per
/// step.
pub(crate) fn propagate<'t>(
    horizons: &[usize],
    start: Vec<f64>,
    table: impl FnOnce() -> &'t TransitionTable,
    step: impl Fn(&TransitionTable, &[f64], &mut [f64]),
    marginal: impl Fn(&[f64]) -> StateDistribution,
) -> Vec<StateDistribution> {
    let mut wanted: Vec<usize> = horizons.to_vec();
    wanted.sort_unstable();
    wanted.dedup();
    let mut emitted: Vec<StateDistribution> = Vec::with_capacity(wanted.len());
    let mut dist = start;
    if wanted.first() == Some(&0) {
        emitted.push(marginal(&dist));
    }
    let max_step = wanted.last().copied().unwrap_or(0);
    if max_step > 0 {
        let table = table();
        let mut scratch = vec![0.0; dist.len()];
        for s in 1..=max_step {
            step(table, &dist, &mut scratch);
            std::mem::swap(&mut dist, &mut scratch);
            if wanted.binary_search(&s).is_ok() {
                let out = marginal(&dist);
                crate::invariants::debug_assert_normalized(out.as_slice(), "propagate");
                emitted.push(out);
            }
        }
    }
    horizons
        .iter()
        .filter_map(|s| wanted.binary_search(s).ok().and_then(|k| emitted.get(k)))
        .cloned()
        .collect()
}

/// In-place normalization with the exact arithmetic of
/// [`StateDistribution::from_weights`]: same summation order, same
/// per-element division, same near-zero fallback to the uniform
/// distribution. The snapshot propagation path normalizes its scratch
/// buffer with this instead of materializing a fresh distribution per
/// step, and must not divide a second time (a second division by a sum
/// of ≈ 1.0 would perturb the last bit).
pub(crate) fn normalize_in_place(buf: &mut [f64]) {
    let total: f64 = buf.iter().sum();
    if total < 1e-12 {
        buf.fill(prepare_metrics::debug_assert_finite!(
            1.0 / buf.len().max(1) as f64
        ));
    } else {
        for b in buf.iter_mut() {
            *b /= total;
        }
        prepare_metrics::debug_assert_all_finite!(&buf[..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_round_trip() {
        let rows = [
            StateDistribution::from_weights(vec![1.0, 3.0]),
            StateDistribution::point(2, 1),
        ];
        let table = TransitionTable::from_rows(2, rows.iter().cloned());
        assert_eq!(table.row(0), rows[0].as_slice());
        assert_eq!(table.row(1), rows[1].as_slice());
    }

    #[test]
    fn normalize_matches_from_weights_bitwise() {
        let weights = vec![0.3, 1.7, 0.25, 4.1];
        let mut buf = weights.clone();
        normalize_in_place(&mut buf);
        let via_dist = StateDistribution::from_weights(weights);
        assert_eq!(buf, via_dist.as_slice());
    }

    #[test]
    fn normalize_zero_mass_is_uniform() {
        let mut buf = vec![0.0; 4];
        normalize_in_place(&mut buf);
        assert_eq!(buf, StateDistribution::uniform(4).as_slice());
    }
}
