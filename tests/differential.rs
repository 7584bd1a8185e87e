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
use common::{run_with_workers, transcript};
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

/// One suite of the worker-count matrix: renders everything
/// replay-relevant of a run at `workers` into one string.
type SuiteRun = Box<dyn Fn(usize) -> String>;

/// The pinned crash-recovery scenario, killed before a round right after
/// a seal, twice back to back mid-interval, and once late. Crash markers
/// are set aside so the uninterrupted run is the baseline; everything
/// else — checkpoint sizes, the final model fingerprint, the cluster —
/// must come out the same.
fn crash_recovery_run(workers: usize, crashes: &[u64]) -> String {
    let crashes: BTreeSet<u64> = crashes.iter().map(|c| FIRST_SWEPT_ROUND + c).collect();
    let run = drive(&build_prefix(workers), workers, &crashes);
    let events: Vec<ControllerEvent> = run
        .manager
        .controller()
        .events()
        .iter()
        .filter(|e| !is_crash_marker(e))
        .cloned()
        .collect();
    format!(
        "{}fingerprint {:#018x}\ncluster {:?}\n",
        render(&events),
        run.manager.controller().model_fingerprint(),
        run.cluster
    )
}

#[test]
fn every_suite_matches_its_sequential_baseline_at_every_worker_count() {
    // One driver for the suites no other test runs at three worker
    // counts — both pinned chaos plans and crash recovery — next to two
    // paper scenarios, naming every diverging (suite, workers) cell. Each
    // suite's baseline is its sequential run (uninterrupted, for crash
    // recovery).
    let paper = |app: AppKind, fault: FaultChoice| -> SuiteRun {
        Box::new(move |workers| {
            transcript(&run_with_workers(app, fault, Scheme::Prepare, 42, workers))
        })
    };
    let chaos = |seed: u64| -> SuiteRun {
        Box::new(move |workers| {
            let spec = suite::golden_spec().with_chaos(suite::hostile_plan(seed));
            transcript(&suite::run_with_workers(spec, workers))
        })
    };
    let mut suites: Vec<(String, SuiteRun, String)> = Vec::new();
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
        let baseline = run(1);
        suites.push((name, run, baseline));
    }
    suites.push((
        "crash recovery".to_string(),
        Box::new(|workers| crash_recovery_run(workers, &[8, 13, 14, 40])),
        crash_recovery_run(1, &[]),
    ));

    let mut diverged = Vec::new();
    for (suite, run, baseline) in &suites {
        assert!(!baseline.is_empty(), "{suite}: empty baseline");
        for workers in WORKER_COUNTS {
            if run(workers) != *baseline {
                diverged.push(format!("({suite}, workers={workers})"));
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "transcripts diverged from the sequential baseline in: {}",
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
