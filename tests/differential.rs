//! Differential tests of the deterministic parallel engine: every
//! end-to-end scenario must produce **byte-identical** transcripts —
//! ticks, controller events, hypervisor actions, and monitored series —
//! at `workers ∈ {1, 2, 7}`. `workers = 1` takes literally the old
//! sequential code path, so these runs prove the sharded engine equal to
//! the sequential controller on every application × fault combination,
//! not merely on unit-level fixtures.
//!
//! Worker counts are chosen adversarially: 2 splits the VM set evenly,
//! 7 exceeds the VM count of every deployed application, so shards are
//! ragged and some are empty.

mod common;

use common::crash::{build_prefix, drive, is_crash_marker, render, FIRST_SWEPT_ROUND};
use common::{run_with_workers, run_with_workers_online, transcript};
use prepare_repro::core::{AppKind, ControllerEvent, FaultChoice, Scheme};
use prepare_tlc::suite;
use std::collections::BTreeSet;

/// Worker counts the engine must be invariant over. 1 is the sequential
/// identity; the others shard.
const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

fn assert_worker_invariant(app: AppKind, fault: FaultChoice, scheme: Scheme, seed: u64) {
    let sequential = run_with_workers(app, fault, scheme, seed, 1);
    // Every differential baseline also passes through the registered
    // temporal-property catalogue: the invariance matrix doubles as the
    // checker's widest scheme/app/fault coverage inside `cargo test`.
    let violations = prepare_tlc::check_all(
        &prepare_tlc::properties::standard_properties(),
        &sequential.events,
    );
    assert!(
        violations.is_empty(),
        "{app:?}/{fault:?}/{scheme:?}: temporal property violations:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let baseline = transcript(&sequential);
    assert!(
        !baseline.is_empty(),
        "empty baseline for {app:?}/{fault:?}/{scheme:?}"
    );
    for workers in WORKER_COUNTS {
        let got = transcript(&run_with_workers(app, fault, scheme, seed, workers));
        assert!(
            got == baseline,
            "transcript diverged from sequential baseline for \
             {app:?}/{fault:?}/{scheme:?} at workers={workers}"
        );
    }
}

#[test]
fn system_s_prepare_is_worker_invariant() {
    for fault in [
        FaultChoice::MemLeak,
        FaultChoice::CpuHog,
        FaultChoice::Bottleneck,
        FaultChoice::Contention,
    ] {
        assert_worker_invariant(AppKind::SystemS, fault, Scheme::Prepare, 42);
    }
}

#[test]
fn rubis_prepare_is_worker_invariant() {
    for fault in [
        FaultChoice::MemLeak,
        FaultChoice::CpuHog,
        FaultChoice::Bottleneck,
        FaultChoice::Contention,
    ] {
        assert_worker_invariant(AppKind::Rubis, fault, Scheme::Prepare, 42);
    }
}

#[test]
fn reactive_scheme_is_worker_invariant() {
    // The reactive path exercises `reactive_diagnosis` (per-VM scoring +
    // best-VM tie-breaking fold) rather than the predictive round.
    assert_worker_invariant(AppKind::Rubis, FaultChoice::CpuHog, Scheme::Reactive, 7);
}

#[test]
fn no_intervention_scheme_is_worker_invariant() {
    // Degenerate but cheap: the controller never trains, so the engine
    // must be invariant even when every parallel path is dormant.
    assert_worker_invariant(
        AppKind::SystemS,
        FaultChoice::MemLeak,
        Scheme::NoIntervention,
        7,
    );
}

/// One suite of the training-arm comparison: renders everything
/// replay-relevant of a run at `(workers, online)` into one string.
type ArmRun = Box<dyn Fn(usize, bool) -> String>;

/// The pinned crash-recovery scenario, killed before a round right after
/// a seal, twice back to back mid-interval, and once late. Crash markers
/// are set aside so the uninterrupted run is the baseline, and
/// `CheckpointTaken::bytes` is zeroed: only the online arm's image
/// carries training windows. For the same reason the model fingerprint
/// is comparable only within an arm, so the crashed run's is held to the
/// uninterrupted run's from the same prefix.
fn crash_recovery_run(workers: usize, online: bool, crashes: &[u64]) -> String {
    let crashes: BTreeSet<u64> = crashes.iter().map(|c| FIRST_SWEPT_ROUND + c).collect();
    let prefix = build_prefix(workers, online);
    let run = drive(&prefix, workers, &crashes);
    let uninterrupted = drive(&prefix, workers, &BTreeSet::new());
    let events: Vec<ControllerEvent> = run
        .manager
        .controller()
        .events()
        .iter()
        .filter(|e| !is_crash_marker(e))
        .map(|e| match e {
            ControllerEvent::CheckpointTaken { at, .. } => {
                ControllerEvent::CheckpointTaken { at: *at, bytes: 0 }
            }
            other => other.clone(),
        })
        .collect();
    format!(
        "{}fingerprint equals the uninterrupted run's: {}\ncluster {:?}\n",
        render(&events),
        run.manager.controller().model_fingerprint()
            == uninterrupted.manager.controller().model_fingerprint(),
        run.cluster
    )
}

#[test]
fn online_training_matches_from_scratch_rebuild() {
    // The training arm must be invisible in the transcript: a run whose
    // training rounds train from the fleet trainer's ingest-labeled
    // windows must be byte-identical to a run that trains from each VM's
    // series with labels resolved from the SLO log — at every worker
    // count, on the paper scenarios, under both pinned chaos plans and
    // across crashes. Each suite's baseline is its sequential referee-arm
    // run (uninterrupted, for crash recovery).
    let paper = |app: AppKind, fault: FaultChoice| -> ArmRun {
        Box::new(move |workers, online| {
            transcript(&run_with_workers_online(
                app,
                fault,
                Scheme::Prepare,
                42,
                workers,
                online,
            ))
        })
    };
    let chaos = |seed: u64| -> ArmRun {
        Box::new(move |workers, online| {
            let spec = suite::golden_spec().with_chaos(suite::hostile_plan(seed));
            transcript(&suite::run_with_workers_online(spec, workers, online))
        })
    };
    let mut suites: Vec<(String, ArmRun, String)> = Vec::new();
    for (name, run) in [
        (
            "paper SystemS/MemLeak".to_string(),
            paper(AppKind::SystemS, FaultChoice::MemLeak),
        ),
        (
            "paper Rubis/CpuHog".to_string(),
            paper(AppKind::Rubis, FaultChoice::CpuHog),
        ),
        (
            format!("chaos {:#x}", suite::PINNED_CHAOS_SEEDS[0]),
            chaos(suite::PINNED_CHAOS_SEEDS[0]),
        ),
        (
            format!("chaos {:#x}", suite::PINNED_CHAOS_SEEDS[1]),
            chaos(suite::PINNED_CHAOS_SEEDS[1]),
        ),
    ] {
        let baseline = run(1, false);
        suites.push((name, run, baseline));
    }
    suites.push((
        "crash recovery".to_string(),
        Box::new(|workers, online| crash_recovery_run(workers, online, &[8, 13, 14, 40])),
        crash_recovery_run(1, false, &[]),
    ));

    let mut diverged = Vec::new();
    for (suite, run, baseline) in &suites {
        assert!(!baseline.is_empty(), "{suite}: empty baseline");
        for workers in WORKER_COUNTS {
            for (online, arm) in [(true, "online"), (false, "referee")] {
                if run(workers, online) != *baseline {
                    diverged.push(format!("({suite}, workers={workers}, {arm} arm)"));
                }
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "transcripts diverged from the sequential referee-arm baseline in: {}",
        diverged.join(", ")
    );
}

#[test]
fn env_override_matches_explicit_workers() {
    // `PrepareConfig::default()` reads `PREPARE_WORKERS`; CI runs the
    // whole suite under 1 and 4. Whatever the ambient value, the explicit
    // configs above pin worker counts — this test closes the loop by
    // checking the ambient default agrees with the sequential baseline.
    let ambient = {
        let spec = prepare_repro::core::ExperimentSpec::paper_default(
            AppKind::SystemS,
            FaultChoice::CpuHog,
            Scheme::Prepare,
        );
        prepare_repro::core::Experiment::new(spec, 11).run()
    };
    let baseline = run_with_workers(
        AppKind::SystemS,
        FaultChoice::CpuHog,
        Scheme::Prepare,
        11,
        1,
    );
    assert!(
        transcript(&ambient) == transcript(&baseline),
        "ambient PREPARE_WORKERS default diverged from the sequential baseline"
    );
}
