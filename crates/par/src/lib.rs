//! Deterministic work sharding for the PREPARE control loop.
//!
//! PREPARE maintains one independent model pipeline per VM (2-dependent
//! Markov chains plus a TAN classifier), so training, prediction, and
//! diagnosis are embarrassingly parallel across VMs. The hard requirement
//! is the replay contract the rest of the workspace is built around: the
//! same seed must produce byte-identical traces *regardless of how many
//! workers run the loop*. This crate provides exactly that — a std-only
//! fork/join layer (no rayon; the workspace is offline) whose output is a
//! pure function of its input, never of scheduling:
//!
//! 1. **Fixed partition.** Item `i` always goes to shard `i % workers`
//!    ([`shard_indices`]). The assignment depends only on the item's
//!    position (for per-VM work, its position in the sorted `VmId` order)
//!    and the worker count — never on thread timing.
//! 2. **Ordered merge.** Workers return `(index, result)` pairs; the
//!    merge sorts by the original index ([`par_map`]), so results come
//!    back in input order no matter which worker finished first.
//! 3. **Sequential identity.** `workers = 1` takes a plain `for` loop —
//!    bit-for-bit the pre-parallel code path — and because each worker
//!    applies the same pure function to the same items, every other
//!    worker count produces the same bytes. The workspace's differential
//!    tests (`tests/differential.rs`) assert this end to end.
//!
//! Worker panics are re-raised on the caller thread via
//! [`std::panic::resume_unwind`], so a failing debug assertion inside a
//! model surfaces identically under any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;

/// How many OS worker threads the parallel engine may use.
///
/// `workers = 1` is the sequential path (no threads are spawned at all);
/// any larger count fans work out over `std::thread::scope`. The result
/// of every operation in this crate is identical for every `workers`
/// value — the knob trades wall-clock time only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParConfig {
    /// Maximum number of concurrent workers (clamped to at least 1).
    pub workers: usize,
}

/// Environment variable overriding the default worker count
/// (`ParConfig::default()` / [`ParConfig::from_env`]).
pub const WORKERS_ENV: &str = "PREPARE_WORKERS";

impl ParConfig {
    /// The sequential configuration: one worker, no thread spawns.
    pub const fn serial() -> Self {
        ParConfig { workers: 1 }
    }

    /// A configuration using exactly `workers` threads (at least 1).
    pub fn with_workers(workers: usize) -> Self {
        ParConfig {
            workers: workers.max(1),
        }
    }

    /// Reads the worker count from the `PREPARE_WORKERS` environment
    /// variable, falling back to [`std::thread::available_parallelism`]
    /// (and to 1 when even that is unavailable).
    ///
    /// The environment is read once per call, not cached: the CI harness
    /// runs the whole test suite under `PREPARE_WORKERS=1` and
    /// `PREPARE_WORKERS=4` and diffs the traces.
    pub fn from_env() -> Self {
        let from_env = std::env::var(WORKERS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w >= 1);
        let workers = from_env.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        });
        ParConfig { workers }
    }

    /// The worker count actually used for `n` items: never more workers
    /// than items, never fewer than one.
    pub fn effective_workers(&self, n: usize) -> usize {
        self.workers.max(1).min(n.max(1))
    }
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig::from_env()
    }
}

/// The fixed partition underlying every parallel operation: item `i`
/// belongs to shard `i % workers`. Returns one index list per shard;
/// within a shard, indices are strictly ascending.
///
/// Exposed so the property tests can assert partition laws directly: the
/// shards are disjoint, cover `0..n` exactly, and are independent of
/// anything but `(n, workers)`.
pub fn shard_indices(n: usize, workers: usize) -> Vec<Vec<usize>> {
    let w = workers.max(1).min(n.max(1));
    let mut shards: Vec<Vec<usize>> = (0..w).map(|_| Vec::with_capacity(n.div_ceil(w))).collect();
    for i in 0..n {
        if let Some(shard) = shards.get_mut(i % w) {
            shard.push(i);
        }
    }
    shards
}

/// Applies `f` to every item and returns the results **in input order**,
/// using up to `cfg.workers` threads.
///
/// Determinism: the output is exactly `items.map(f)` for any worker
/// count. With one (effective) worker no thread is spawned and the items
/// are mapped in a plain sequential loop.
pub fn par_map<T, R, F>(cfg: &ParConfig, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = cfg.effective_workers(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Fixed partition: item i → shard i % workers, tagged with i.
    let mut shards: Vec<Vec<(usize, T)>> = (0..workers)
        .map(|_| Vec::with_capacity(n.div_ceil(workers)))
        .collect();
    for (i, item) in items.into_iter().enumerate() {
        if let Some(shard) = shards.get_mut(i % workers) {
            shard.push((i, item));
        }
    }

    // Fan out, then merge ordered by the original index.
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                scope.spawn(move || {
                    shard
                        .into_iter()
                        .map(|(i, item)| (i, f(item)))
                        .collect::<Vec<(usize, R)>>()
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => tagged.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Applies `f` to every element of `items` in place, sharded across up to
/// `cfg.workers` threads.
///
/// Elements must be mutually independent (each `f` call touches only its
/// own element); under that contract the final state of `items` is
/// identical for every worker count. With one (effective) worker the
/// items are visited in a plain sequential loop.
pub fn par_for_each_mut<T, F>(cfg: &ParConfig, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let n = items.len();
    let workers = cfg.effective_workers(n);
    if workers <= 1 {
        for item in items.iter_mut() {
            f(item);
        }
        return;
    }

    // Fixed partition over &mut references: reference i → shard i % workers.
    let mut shards: Vec<Vec<&mut T>> = (0..workers)
        .map(|_| Vec::with_capacity(n.div_ceil(workers)))
        .collect();
    for (i, item) in items.iter_mut().enumerate() {
        if let Some(shard) = shards.get_mut(i % workers) {
            shard.push(item);
        }
    }

    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                scope.spawn(move || {
                    for item in shard {
                        f(item);
                    }
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_config_is_one_worker() {
        assert_eq!(ParConfig::serial().workers, 1);
        assert_eq!(ParConfig::with_workers(0).workers, 1);
        assert_eq!(ParConfig::with_workers(7).workers, 7);
    }

    #[test]
    fn effective_workers_is_bounded_by_items() {
        let cfg = ParConfig::with_workers(8);
        assert_eq!(cfg.effective_workers(0), 1);
        assert_eq!(cfg.effective_workers(3), 3);
        assert_eq!(cfg.effective_workers(100), 8);
        assert_eq!(ParConfig::serial().effective_workers(100), 1);
    }

    #[test]
    fn shard_indices_partition_0_to_n() {
        for n in [0usize, 1, 2, 7, 16, 33] {
            for w in 1..=9usize {
                let shards = shard_indices(n, w);
                assert_eq!(shards.len(), w.min(n.max(1)));
                let mut seen: Vec<usize> = shards.iter().flatten().copied().collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} w={w}");
                for shard in &shards {
                    assert!(shard.windows(2).all(|p| p[0] < p[1]), "shard not ascending");
                }
            }
        }
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<u64> = (0..57).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for w in [1usize, 2, 3, 4, 7, 8, 64] {
            let got = par_map(&ParConfig::with_workers(w), items.clone(), |x| x * x + 1);
            assert_eq!(got, expect, "diverged at workers={w}");
        }
    }

    #[test]
    fn par_map_preserves_order_under_uneven_work() {
        // Make early items the slowest so a naive first-done-first-merged
        // scheme would reorder; the ordered merge must not.
        let items: Vec<usize> = (0..24).collect();
        let got = par_map(&ParConfig::with_workers(6), items.clone(), |i| {
            let spins = (24 - i) * 2000;
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_add(k as u64);
            }
            (i, acc.wrapping_mul(0)) // acc consumed so the loop is not optimized out
        });
        let order: Vec<usize> = got.into_iter().map(|(i, _)| i).collect();
        assert_eq!(order, items);
    }

    #[test]
    fn par_for_each_mut_touches_every_item_once() {
        for w in [1usize, 2, 5, 8] {
            let mut items: Vec<u32> = (0..41).collect();
            par_for_each_mut(&ParConfig::with_workers(w), &mut items, |x| *x += 100);
            let expect: Vec<u32> = (0..41).map(|x| x + 100).collect();
            assert_eq!(items, expect, "diverged at workers={w}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = par_map(&ParConfig::with_workers(4), Vec::<u8>::new(), |x| x);
        assert!(out.is_empty());
        let mut none: [u8; 0] = [];
        par_for_each_mut(&ParConfig::with_workers(4), &mut none, |_| {});
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map(&ParConfig::with_workers(3), vec![1, 2, 3], |x| {
                assert!(x != 2, "boom on {x}");
                x
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn from_env_honours_override() {
        // Serialized against other env readers by running in one test.
        std::env::set_var(WORKERS_ENV, "3");
        assert_eq!(ParConfig::from_env().workers, 3);
        std::env::set_var(WORKERS_ENV, "0");
        assert!(ParConfig::from_env().workers >= 1, "0 falls back");
        std::env::set_var(WORKERS_ENV, "nonsense");
        assert!(ParConfig::from_env().workers >= 1, "garbage falls back");
        std::env::remove_var(WORKERS_ENV);
        assert!(ParConfig::from_env().workers >= 1);
    }
}
