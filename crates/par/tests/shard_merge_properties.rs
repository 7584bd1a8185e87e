//! Property tests of the deterministic shard/merge layer: the parallel
//! engine must be a *function of its inputs* — never of worker count,
//! shard processing order, or scheduling. These are the laws the
//! workspace-level differential tests rely on when they assert that
//! `workers ∈ {1, 2, 7}` produce byte-identical control-loop traces.

use prepare_par::{par_map, shard_indices, ParConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The fixed partition covers `0..n` exactly once, for any worker
    // count: no item is dropped, duplicated, or moved between shards.
    #[test]
    fn sharding_is_a_partition(n in 0usize..200, workers in 1usize..12) {
        let shards = shard_indices(n, workers);
        let mut seen: Vec<usize> = shards.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        // Within a shard, order follows input order (strictly ascending).
        for shard in &shards {
            prop_assert!(shard.windows(2).all(|p| p[0] < p[1]));
        }
    }

    // The partition is a pure function of `(n, workers)` — two calls
    // agree, so shard assignment can never depend on ambient state.
    #[test]
    fn sharding_is_stable(n in 0usize..200, workers in 1usize..12) {
        prop_assert_eq!(shard_indices(n, workers), shard_indices(n, workers));
    }

    // Order preservation: `par_map` returns exactly the sequential map,
    // in input order, for every worker count.
    #[test]
    fn par_map_is_the_sequential_map(
        items in proptest::collection::vec(0u64..1_000_000, 0..150),
        workers in 1usize..12,
    ) {
        let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(2654435761).rotate_left(7)).collect();
        let got = par_map(
            &ParConfig::with_workers(workers),
            items,
            |x| x.wrapping_mul(2654435761).rotate_left(7),
        );
        prop_assert_eq!(got, expect);
    }

    // Permutation invariance of the merge: processing the shards in any
    // order and merging keyed on the original index reconstructs input
    // order. This is the exact argument that makes thread scheduling
    // invisible: whichever worker finishes first, the merge key wins.
    #[test]
    fn merge_is_permutation_invariant(
        n in 0usize..150,
        workers in 1usize..12,
        swap_a in 0usize..12,
        swap_b in 0usize..12,
    ) {
        let mut shards = shard_indices(n, workers);
        // Adversarial completion order: permute the shard list before the
        // merge, as if workers finished in a different order.
        let k = shards.len();
        shards.swap(swap_a % k, swap_b % k);
        shards.rotate_left(swap_b % k.max(1));
        let mut merged: Vec<usize> = shards.into_iter().flatten().collect();
        merged.sort_unstable(); // the ordered merge, keyed on original index
        prop_assert_eq!(merged, (0..n).collect::<Vec<_>>());
    }
}
