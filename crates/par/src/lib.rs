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
//! The calling thread is one of the workers: it maps shard 0 itself, so
//! a fork over `w` workers spawns `w - 1` threads. Worker panics are
//! re-raised on the caller thread via [`std::panic::resume_unwind`],
//! after every spawned shard has been joined, so a failing debug
//! assertion inside a model surfaces identically under any worker count.

use std::num::NonZeroUsize;

/// How many OS worker threads the parallel engine may use.
///
/// `workers = 1` is the sequential path (no threads are spawned at all);
/// any larger count fans work out over `std::thread::scope`, with the
/// calling thread counted as one of the workers. The result
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
/// using up to `cfg.workers` threads, the calling thread among them.
///
/// Determinism: the output is exactly `items.map(f)` for any worker
/// count. With one (effective) worker no thread is spawned and the items
/// are mapped in a plain sequential loop. With `w > 1` workers the caller
/// maps shard 0 itself and spawns only `w - 1` threads for the rest. A
/// panic in any shard reaches the caller after every spawned shard has
/// been joined: `std::thread::scope` joins its threads before it
/// re-raises the caller's own panic.
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

    // Fan out shards 1.., map shard 0 here, then merge ordered by the
    // original index.
    let run = |shard: Vec<(usize, T)>| -> Vec<(usize, R)> {
        shard.into_iter().map(|(i, item)| (i, f(item))).collect()
    };
    let mut shards = shards.into_iter();
    let own = shards.next().unwrap_or_default();
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = shards
            .map(|shard| scope.spawn(move || run(shard)))
            .collect();
        tagged.extend(run(own));
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
    fn empty_input_is_fine() {
        let out: Vec<u8> = par_map(&ParConfig::with_workers(4), Vec::<u8>::new(), |x| x);
        assert!(out.is_empty());
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
    #[expect(
        clippy::disallowed_methods,
        reason = "the assertion is about which thread ran each shard"
    )]
    fn the_caller_maps_shard_zero() {
        let caller = std::thread::current().id();
        let ran_on = par_map(
            &ParConfig::with_workers(2),
            (0..10).collect(),
            |i: usize| (i, std::thread::current().id()),
        );
        for (i, thread) in ran_on {
            assert_eq!(
                thread == caller,
                i % 2 == 0,
                "item {i} ran on the wrong thread"
            );
        }
    }

    #[test]
    fn a_caller_shard_panic_waits_for_the_spawned_shards() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let spawned_done = AtomicBool::new(false);
        let result = std::panic::catch_unwind(|| {
            par_map(&ParConfig::with_workers(2), vec![0, 1], |i: usize| {
                assert!(i != 0, "boom in the caller's shard");
                std::thread::sleep(std::time::Duration::from_millis(50));
                spawned_done.store(true, Ordering::SeqCst);
            })
        });
        assert!(result.is_err(), "the caller's own panic must reach it");
        assert!(
            spawned_done.load(Ordering::SeqCst),
            "the panic surfaced before the spawned shard was joined"
        );
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
