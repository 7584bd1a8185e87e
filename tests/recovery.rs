//! Recovery-equivalence proofs: a controller killed at *any* round and
//! rebuilt from its last checkpoint plus the write-ahead journal suffix
//! must be indistinguishable — byte for byte — from one that never
//! crashed.
//!
//! The pinned scenario mirrors the tlc explorer's: a 2-host / 3-VM
//! cluster with a recurring memory leak on VM 0, driven fault-free on
//! the data plane (crashes are the subject here; infrastructure chaos ×
//! crash interleavings live in `prepare-tlc`). The sweep crashes the
//! controller before every single post-prefix round and demands:
//!
//! 1. every per-round event batch from the first post-recovery round on
//!    is byte-identical to the uninterrupted referee's,
//! 2. the final model fingerprints are equal,
//! 3. the final cluster states are equal (no actuation was lost or
//!    double-applied across the crash boundary), and
//! 4. the recovered full event log equals the referee's once the two
//!    crash markers (`ControllerCrashed`, `RecoveryCompleted`) are set
//!    aside.
//!
//! All of it at worker counts {1, 2, 7}: recovery must compose with the
//! sharded engine, not just the sequential one. A proptest extends the
//! sweep to random multi-crash schedules (including back-to-back
//! crashes in consecutive rounds).

mod common;

use common::crash::{
    build_prefix, drive, is_crash_marker, render, Run, CHECKPOINT_EVERY_ROUNDS, FIRST_SWEPT_ROUND,
    ROUNDS, WORKER_COUNTS,
};
use prepare_repro::core::ControllerEvent;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// How many crashes' marker pairs survive to the end of the run: a
/// crash's `ControllerCrashed`/`RecoveryCompleted` markers are durable
/// once a checkpoint seals (at the end of any round `r` with
/// `(r - FIRST_SWEPT_ROUND + 1) % CHECKPOINT_EVERY_ROUNDS == 0`) before
/// the next crash strikes.
fn surviving_marker_pairs(crash_rounds: &BTreeSet<u64>) -> usize {
    let crashes: Vec<u64> = crash_rounds.iter().copied().collect();
    crashes
        .iter()
        .enumerate()
        .filter(|&(i, &c)| match crashes.get(i + 1) {
            None => true,
            Some(&next) => (c..next)
                .any(|r| (r - FIRST_SWEPT_ROUND + 1).is_multiple_of(CHECKPOINT_EVERY_ROUNDS)),
        })
        .count()
}

/// Asserts the four equivalence claims between a crashed run and the
/// uninterrupted referee.
fn assert_equivalent(label: &str, referee: &Run, crashed: &Run, crash_rounds: &BTreeSet<u64>) {
    assert_eq!(
        referee.per_round.len(),
        crashed.per_round.len(),
        "{label}: round count"
    );
    for (i, (r, c)) in referee.per_round.iter().zip(&crashed.per_round).enumerate() {
        assert_eq!(
            render(r),
            render(c),
            "{label}: round {} events diverged",
            FIRST_SWEPT_ROUND + i as u64
        );
    }
    assert_eq!(
        referee.manager.controller().model_fingerprint(),
        crashed.manager.controller().model_fingerprint(),
        "{label}: model fingerprints diverged"
    );
    assert_eq!(
        referee.cluster, crashed.cluster,
        "{label}: cluster states diverged (an actuation was lost or double-applied)"
    );
    // The recovered log is the referee's log plus one pair of crash
    // markers per crash whose recovery note reached a checkpoint (a
    // later crash before the next checkpoint forgets the markers — they
    // were never made durable).
    let markers = crashed
        .manager
        .controller()
        .events()
        .iter()
        .filter(|e| is_crash_marker(e))
        .count();
    assert_eq!(
        markers,
        2 * surviving_marker_pairs(crash_rounds),
        "{label}: crash marker count"
    );
    let without_markers: Vec<ControllerEvent> = crashed
        .manager
        .controller()
        .events()
        .iter()
        .filter(|e| !is_crash_marker(e))
        .cloned()
        .collect();
    assert_eq!(
        render(referee.manager.controller().events()),
        render(&without_markers),
        "{label}: full logs diverged beyond the crash markers"
    );
}

/// The tentpole proof: crash before *every* post-prefix round, at every
/// pinned worker count, and demand byte-identity with the referee.
#[test]
fn crash_at_every_round_recovers_byte_identically() {
    for workers in WORKER_COUNTS {
        let prefix = build_prefix(workers);
        let referee = drive(&prefix, workers, &BTreeSet::new());
        // The referee itself must do interesting things in the swept
        // window, or the sweep proves nothing.
        let flat: Vec<ControllerEvent> = referee.per_round.iter().flatten().cloned().collect();
        assert!(
            flat.iter()
                .any(|e| matches!(e, ControllerEvent::ActionIssued { .. })),
            "workers={workers}: the pinned scenario must actuate in the swept window"
        );
        assert!(
            flat.iter()
                .any(|e| matches!(e, ControllerEvent::CheckpointTaken { .. })),
            "workers={workers}: checkpoints must land in the swept window"
        );
        for crash_round in FIRST_SWEPT_ROUND..ROUNDS {
            let crashes = BTreeSet::from([crash_round]);
            let crashed = drive(&prefix, workers, &crashes);
            assert_equivalent(
                &format!("workers={workers} crash@round{crash_round}"),
                &referee,
                &crashed,
                &crashes,
            );
        }
    }
}

/// Recovery must also be invariant *across* worker counts: the sharded
/// engine recovering a crash produces the same bytes as the sequential
/// one.
#[test]
fn recovered_runs_are_worker_count_invariant() {
    let crashes = BTreeSet::from([FIRST_SWEPT_ROUND + 13, FIRST_SWEPT_ROUND + 14]);
    let runs: Vec<(usize, Run)> = WORKER_COUNTS
        .iter()
        .map(|&w| (w, drive(&build_prefix(w), w, &crashes)))
        .collect();
    let ((first_w, first), rest) = runs.split_first().expect("WORKER_COUNTS is non-empty");
    for (w, run) in rest {
        assert_eq!(
            render(first.manager.controller().events()),
            render(run.manager.controller().events()),
            "workers {first_w} vs {w}: recovered logs diverged"
        );
        assert_eq!(
            first.manager.controller().model_fingerprint(),
            run.manager.controller().model_fingerprint(),
            "workers {first_w} vs {w}: recovered fingerprints diverged"
        );
    }
}

// Random multi-crash schedules (1–6 crashes, anywhere in the swept
// range, duplicates collapsing to back-to-back coverage) recover
// byte-identically at a pinned worker pair.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_crash_schedules_recover_byte_identically(
        rounds in proptest::collection::vec(FIRST_SWEPT_ROUND..ROUNDS, 1..6),
    ) {
        let crashes: BTreeSet<u64> = rounds.into_iter().collect();
        for workers in [1usize, 2] {
            let prefix = build_prefix(workers);
            let referee = drive(&prefix, workers, &BTreeSet::new());
            let crashed = drive(&prefix, workers, &crashes);
            assert_equivalent(
                &format!("workers={workers} crashes@{crashes:?}"),
                &referee,
                &crashed,
                &crashes,
            );
        }
    }
}
