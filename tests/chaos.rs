//! Hostile-infrastructure robustness suite: the control loop must survive
//! seeded monitoring/actuation faults without panicking, keep its
//! invariants, abstain (not mis-vote) while blind, re-converge once the
//! faults clear, and stay byte-for-byte replayable — at any worker count.
//!
//! The chaos layer must also be provably zero-cost when off: an empty
//! plan (and no plan at all) leaves every trace byte-identical.

mod common;

use common::transcript;
use prepare_repro::cloudsim::{ChaosKind, ChaosPlan, HostId};
use prepare_repro::core::{
    AppKind, ControllerEvent, Experiment, ExperimentResult, ExperimentSpec, FaultChoice, Scheme,
};
use prepare_repro::metrics::{AttributeKind, Duration, Timestamp, VmId};
use prepare_tlc::suite::{hostile_plan, PINNED_CHAOS_SEEDS};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn t(secs: u64) -> Timestamp {
    Timestamp::from_secs(secs)
}

fn run_chaos(seed: u64, chaos_seed: u64, workers: usize) -> ExperimentResult {
    let mut spec =
        ExperimentSpec::paper_default(AppKind::SystemS, FaultChoice::MemLeak, Scheme::Prepare)
            .with_chaos(hostile_plan(chaos_seed));
    spec.config = spec.config.with_workers(workers);
    Experiment::new(spec, seed).run()
}

/// Whole-run sanity: events in time order, the clock covered every tick,
/// and every numeric output finite.
fn assert_invariants(r: &ExperimentResult) {
    assert_eq!(r.ticks.len(), 1500);
    let mut last = Timestamp::ZERO;
    for e in &r.events {
        assert!(e.time() >= last, "event log must be time-ordered");
        last = e.time();
    }
    for (_, series) in &r.vm_series {
        for s in series.iter() {
            assert!(s.values.is_finite(), "non-finite monitored value");
        }
    }
}

/// While a VM's monitoring is degraded the controller must stay silent
/// about it — no raw alerts, no confirmations, no reactive blame. A
/// blackout suppresses evidence; it must never be read as an anomaly (or
/// as recovery).
fn assert_no_alerts_while_degraded(events: &[ControllerEvent]) {
    let mut degraded: BTreeSet<VmId> = BTreeSet::new();
    for e in events {
        match e {
            ControllerEvent::MonitoringDegraded { vm, .. } => {
                degraded.insert(*vm);
            }
            ControllerEvent::MonitoringRecovered { vm, .. } => {
                degraded.remove(vm);
            }
            ControllerEvent::AlertRaised { vm, at, .. } => {
                assert!(
                    !degraded.contains(vm),
                    "raw alert from degraded {vm} at {at}"
                );
            }
            ControllerEvent::AlertConfirmed { vm, at, .. } => {
                assert!(
                    !degraded.contains(vm),
                    "confirmed alert on degraded {vm} at {at}"
                );
            }
            ControllerEvent::ReactiveTriggered { vm, at } => {
                assert!(
                    !degraded.contains(vm),
                    "reactive blame on degraded {vm} at {at}"
                );
            }
            _ => {}
        }
    }
}

/// A rollback is only meaningful for a migration that actually started:
/// every `ActionRolledBack` for a VM must be preceded by a
/// migration-start `ActionIssued` (attribute-less action) for that same
/// VM, and each start accounts for at most one rollback.
fn assert_rollbacks_follow_migration_starts(events: &[ControllerEvent]) {
    let mut started: BTreeSet<VmId> = BTreeSet::new();
    for e in events {
        match e {
            ControllerEvent::ActionIssued {
                vm,
                attribute: None,
                ..
            } => {
                started.insert(*vm);
            }
            ControllerEvent::ActionRolledBack { vm, at, .. } => {
                assert!(
                    started.remove(vm),
                    "rollback for {vm} at {at} without a preceding migration start"
                );
            }
            _ => {}
        }
    }
}

/// Run the full registered temporal-property catalogue over a trace and
/// fail loudly on any violation — the same check `prepare-tlc` applies
/// in CI, here embedded so a regressing trace fails `cargo test` too.
fn assert_temporal_properties(label: &str, events: &[ControllerEvent]) {
    let violations =
        prepare_tlc::check_all(&prepare_tlc::properties::standard_properties(), events);
    assert!(
        violations.is_empty(),
        "{label}: temporal property violations:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Every degradation must be matched by a recovery once the fault windows
/// close — the loop re-converges instead of staying blind.
fn assert_monitoring_reconverges(events: &[ControllerEvent]) {
    let degraded = events
        .iter()
        .filter(|e| matches!(e, ControllerEvent::MonitoringDegraded { .. }))
        .count();
    let recovered = events
        .iter()
        .filter(|e| matches!(e, ControllerEvent::MonitoringRecovered { .. }))
        .count();
    assert_eq!(
        degraded, recovered,
        "every monitoring degradation must recover after the faults clear"
    );
}

#[test]
fn hostile_runs_hold_invariants_and_reconverge() {
    for seed in PINNED_CHAOS_SEEDS {
        let r = run_chaos(42, seed, 1);
        assert_invariants(&r);
        assert_no_alerts_while_degraded(&r.events);
        assert_monitoring_reconverges(&r.events);
        assert_rollbacks_follow_migration_starts(&r.events);
        assert_temporal_properties(&format!("chaos seed {seed:#x}"), &r.events);
        let stats = r.chaos_stats.expect("plan was attached");
        assert!(
            stats.dropped > 0 && stats.busy_ticks > 0 && stats.blackout_drops > 0,
            "the hostile plan must actually have fired: {stats:?}"
        );
    }
}

#[test]
fn chaos_replay_is_byte_identical() {
    for seed in PINNED_CHAOS_SEEDS {
        let a = transcript(&run_chaos(42, seed, 1));
        let b = transcript(&run_chaos(42, seed, 1));
        assert!(!a.is_empty());
        assert_eq!(a, b, "chaos seed {seed:#x} must replay byte-identically");
    }
}

#[test]
fn chaos_traces_identical_across_worker_counts() {
    for seed in PINNED_CHAOS_SEEDS {
        let sequential = transcript(&run_chaos(42, seed, 1));
        let sharded = transcript(&run_chaos(42, seed, 4));
        assert_eq!(
            sequential, sharded,
            "chaos seed {seed:#x} must be worker-count invariant"
        );
    }
}

#[test]
fn different_chaos_seeds_diverge() {
    let a = transcript(&run_chaos(42, PINNED_CHAOS_SEEDS[0], 1));
    let b = transcript(&run_chaos(42, PINNED_CHAOS_SEEDS[1], 1));
    assert_ne!(a, b, "distinct chaos seeds should perturb the run");
}

/// The robustness layer is provably zero-cost when off: attaching an
/// *empty* plan produces the same bytes as attaching no plan at all.
#[test]
fn empty_chaos_plan_is_transparent() {
    let spec =
        ExperimentSpec::paper_default(AppKind::SystemS, FaultChoice::MemLeak, Scheme::Prepare);
    let baseline = transcript(&Experiment::new(spec.clone(), 42).run());
    let with_empty = transcript(&Experiment::new(spec.with_chaos(ChaosPlan::new(7)), 42).run());
    assert_eq!(baseline, with_empty);
}

/// One random infrastructure-fault schedule.
fn arb_fault() -> impl Strategy<Value = (u64, u64, ChaosKind)> {
    let kind = prop_oneof![
        (0.05f64..0.9).prop_map(|probability| ChaosKind::DropSamples {
            vm: None,
            probability
        }),
        (0usize..7, 0.05f64..0.9).prop_map(|(vm, probability)| ChaosKind::DropSamples {
            vm: Some(VmId(vm)),
            probability
        }),
        (0.05f64..0.9).prop_map(|probability| ChaosKind::DelaySamples {
            vm: None,
            probability
        }),
        (0usize..7, 0usize..13).prop_map(|(vm, a)| ChaosKind::StuckAttribute {
            vm: VmId(vm),
            attribute: AttributeKind::ALL[a],
        }),
        (0.05f64..0.9).prop_map(|probability| ChaosKind::HypervisorBusy { probability }),
        (2u64..30).prop_map(|secs| ChaosKind::MigrationTimeout {
            timeout: Duration::from_secs(secs)
        }),
        (0usize..4).prop_map(|h| ChaosKind::HostBlackout { host: HostId(h) }),
    ];
    // Windows live inside the evaluated anomaly and always close by
    // t=750, leaving 150 s of benign tail to re-converge in.
    (550u64..700, 5u64..120, kind).prop_map(|(from, len, kind)| (from, (from + len).min(750), kind))
}

// Any random fault schedule: the run completes (no panic), holds its
// invariants, never alerts while blind, re-converges in the benign
// tail, and replays byte-identically.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_chaos_plans_never_break_the_loop(
        seed in 0u64..u64::MAX,
        faults in proptest::collection::vec(arb_fault(), 1..6),
    ) {
        let mut plan = ChaosPlan::new(seed);
        for &(from, until, kind) in &faults {
            plan = plan.with_fault(t(from), t(until), kind);
        }
        let mut spec = ExperimentSpec::paper_default(
            AppKind::SystemS,
            FaultChoice::MemLeak,
            Scheme::Prepare,
        )
        .with_chaos(plan);
        // Shortened schedule: train on an early injection, evaluate a
        // second one under chaos, end at 900 s.
        spec.duration = Duration::from_secs(900);
        spec.first_injection = t(100);
        spec.injection_duration = Duration::from_secs(200);
        spec.second_injection = t(550);
        let a = Experiment::new(spec.clone(), 9).run();
        prop_assert_eq!(a.ticks.len(), 900);
        assert_no_alerts_while_degraded(&a.events);
        assert_monitoring_reconverges(&a.events);
        assert_rollbacks_follow_migration_starts(&a.events);
        let b = Experiment::new(spec, 9).run();
        prop_assert_eq!(transcript(&a), transcript(&b));
    }

    // Satellite property: no random fault schedule — however
    // migration-hostile — can conjure an `ActionRolledBack` out of thin
    // air. Every rollback is pinned to a migration that demonstrably
    // started for the same VM. A `MigrationTimeout` window is always
    // stacked on top of the random faults so the rollback path itself
    // is exercised, not just vacuously absent.
    #[test]
    fn rollbacks_only_follow_migration_starts(
        seed in 0u64..u64::MAX,
        timeout_secs in 2u64..20,
        faults in proptest::collection::vec(arb_fault(), 0..4),
    ) {
        let mut plan = ChaosPlan::new(seed).with_fault(
            t(550),
            t(750),
            ChaosKind::MigrationTimeout {
                timeout: Duration::from_secs(timeout_secs),
            },
        );
        for &(from, until, kind) in &faults {
            plan = plan.with_fault(t(from), t(until), kind);
        }
        let mut spec = ExperimentSpec::paper_default(
            AppKind::SystemS,
            FaultChoice::MemLeak,
            Scheme::Prepare,
        )
        .with_chaos(plan);
        spec.duration = Duration::from_secs(900);
        spec.first_injection = t(100);
        spec.injection_duration = Duration::from_secs(200);
        spec.second_injection = t(550);
        let r = Experiment::new(spec, 11).run();
        assert_rollbacks_follow_migration_starts(&r.events);
    }
}
