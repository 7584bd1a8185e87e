//! `ShardFleet` runs under the full driver loop: equal seeds give equal
//! digests (also across worker counts and with crashes recovered on the
//! way), different seeds give different ones.

use prepare_benchmark::clock::Clock;
use prepare_benchmark::driver::{drive, unmanaged_shard_secs, Deployed, Scenario};
use prepare_benchmark::pass::digest_run;
use prepare_benchmark::stats::Digest;
use prepare_benchmark::trace::Tracer;
use prepare_benchmark::workloads::FleetShape;

/// Small enough for a test, long enough to train on the first injection
/// and meet the second one.
fn shape(crash_every: Option<u64>) -> FleetShape {
    FleetShape {
        shards: 24,
        stride: 8,
        duration_secs: 1100,
        checkpoint_every: 8,
        retrain_interval: Some(120),
        workers: 1,
        storm: true,
        crash_every,
    }
}

struct Outcome {
    digest: u64,
    recoveries: usize,
    mismatches: u64,
    shard_secs: u64,
}

fn run(shape: &FleetShape, seed: u64, workers: usize) -> Outcome {
    let mut scenario = Scenario::fleet(shape, seed, workers);
    let stats = drive(
        &mut scenario,
        &mut Tracer::new(false),
        None,
        &mut Clock::new(),
    );
    let mut digest = Digest::new();
    digest_run(
        &mut digest,
        scenario.control.controller(),
        scenario.cluster.actions(),
    );
    let Deployed::Fleet(fleet) = &scenario.app else {
        panic!("a fleet scenario deploys a fleet");
    };
    Outcome {
        digest: digest.finish(),
        recoveries: stats.recover_ms.len(),
        mismatches: stats.recover_mismatches,
        shard_secs: fleet.violated_shard_secs(),
    }
}

#[test]
fn equal_seeds_agree_and_different_seeds_differ() {
    let shape = shape(None);
    let a = run(&shape, 3, 1);
    let b = run(&shape, 3, 1);
    let two_workers = run(&shape, 3, 2);
    let other_seed = run(&shape, 4, 1);
    assert_eq!(a.digest, b.digest, "same seed, same workers");
    assert_eq!(
        a.digest, two_workers.digest,
        "same seed, other worker count"
    );
    assert_ne!(
        a.digest, other_seed.digest,
        "another seed must change the run"
    );
}

#[test]
fn crashes_are_recovered_without_changing_the_model() {
    let crashing = shape(Some(20));
    let out = run(&crashing, 3, 1);
    // Rounds 20, 40, ..., 200 of 220.
    assert_eq!(out.recoveries, 10);
    assert_eq!(out.mismatches, 0, "a recovery restored another model");
    assert_eq!(out.digest, run(&crashing, 3, 1).digest);
}

#[test]
fn management_beats_no_management_on_the_fleet() {
    let shape = shape(None);
    let managed = run(&shape, 3, 1).shard_secs;
    let unmanaged = unmanaged_shard_secs(&shape, 3);
    // Three faulty shards, two injections each, all of them felt.
    assert!(
        unmanaged > 600,
        "unmanaged fleet barely violated: {unmanaged}"
    );
    assert!(
        managed < unmanaged,
        "managed {managed} vs unmanaged {unmanaged} violated shard-seconds"
    );
}
